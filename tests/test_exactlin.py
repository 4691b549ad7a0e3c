import itertools
import math
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

from fistab import exactlin
from snf_scan import snf_scan_oracle


# independently coded oracles ------------------------------------------------


def rank_oracle(A, p):
    """Fraction-free Gaussian elimination with python ints; written
    separately from the library's vectorized reduction."""
    rows = [[int(x) % p for x in row] for row in np.atleast_2d(A)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while col < ncols and rank < len(rows):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col] * inv % p
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def column_loop_rank(A, p):
    """Rank by the numpy column loop of `rref_modp`, called directly, so
    that at p <= 3 it shares no kernel with the packed rows."""
    return len(exactlin._rref_columns(A, p)[1])


def snf_oracle(A):
    from sympy.matrices.normalforms import smith_normal_form
    M = sympy.Matrix(A.tolist())
    D = smith_normal_form(M)
    diag = [abs(int(D[i, i])) for i in range(min(D.shape))]
    return tuple(d for d in diag if d != 0)


def minor_gcds(A, kmax):
    """gcd of all k x k minors, exact by expansion; tiny inputs only."""
    M = sympy.Matrix(A.tolist())
    out = []
    for k in range(1, kmax + 1):
        g = 0
        for rows in itertools.combinations(range(A.shape[0]), k):
            for cols in itertools.combinations(range(A.shape[1]), k):
                g = math.gcd(g, int(M[list(rows), list(cols)].det()))
        out.append(g)
    return out


mat_small = st.integers(-9, 9)


@st.composite
def matrices(draw, max_side=6, entries=mat_small):
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    data = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return np.array(data, dtype=np.int64).reshape(m, n)


# rank / rref ---------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(matrices(), st.sampled_from([2, 3, 5, 7]))
def test_rank_matches_oracle(A, p):
    assert exactlin.rank_modp(A, p) == rank_oracle(A, p)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.sampled_from([2, 3, 5]))
def test_rank_transpose_invariant(A, p):
    assert exactlin.rank_modp(A, p) == exactlin.rank_modp(A.T, p)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.sampled_from([2, 3, 5]))
def test_rref_pivots(A, p):
    R, pivots = exactlin.rref_modp(A, p)
    assert len(pivots) == exactlin.rank_modp(A, p)
    for r, c in enumerate(pivots):
        assert R[r, c] == 1
        col = R[:, c].copy()
        col[r] = 0
        assert not col.any()


@settings(max_examples=80, deadline=None)
@given(matrices(), st.sampled_from([2, 3, 5]))
def test_nullspace_annihilated(A, p):
    K = exactlin.nullspace_modp(A, p)
    assert K.shape[0] == A.shape[1]
    assert not (A @ K % p).any()
    assert exactlin.rank_modp(K, p) == K.shape[1]
    assert K.shape[1] == exactlin.nullity_modp(A, p)


@settings(max_examples=60, deadline=None)
@given(matrices(max_side=5), st.sampled_from([2, 3, 5]))
def test_solve_consistent_systems(A, p):
    rng = np.random.default_rng(0)
    x = rng.integers(0, p, size=A.shape[1])
    b = A @ x % p
    y = exactlin.solve_modp(A, b, p)
    assert (A @ y % p == b[:, None] % p).all()


def test_solve_inconsistent():
    A = np.array([[1, 0], [1, 0]])
    with pytest.raises(ValueError):
        exactlin.solve_modp(A, np.array([1, 2]), 3)


@settings(max_examples=60, deadline=None)
@given(matrices(max_side=5), st.sampled_from([2, 3, 5]))
def test_colspace_projection_section(A, p):
    proj, free = exactlin.colspace_complement_projection(A, p)
    q = A.shape[0] - exactlin.rank_modp(A, p)
    assert proj.shape == (q, A.shape[0])
    assert not (proj @ A % p).any()
    assert (proj[:, free] % p == np.eye(q, dtype=np.int64) % p).all()


@st.composite
def rref_cases(draw):
    """(p, A): an integer matrix with negative and unreduced entries, in
    empty, tall, wide and square shapes, of rank at most a drawn r, so
    that most are rank-deficient."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    short, long = draw(st.integers(0, 6)), draw(st.integers(0, 14))
    m, n = draw(st.sampled_from([(long, short), (short, long), (short, short),
                                 (0, long), (long, 0)]))
    r = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(-p, 2 * p, size=(m, r)) @ rng.integers(-p, 2 * p,
                                                            size=(r, n))
    return p, A + p * rng.integers(-2, 3, size=(m, n))


@pytest.mark.parametrize("route", ["as shipped", "packed up to 7"])
@settings(max_examples=150, deadline=None)
@given(case=rref_cases())
@example(case=(2, np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])))
@example(case=(3, np.array([[1, 2, 0], [0, -1, 2], [0, 0, 4]])))
@example(case=(5, np.array([[2, 1, 3], [0, 3, 6], [0, 0, 1]])))
def test_rref_matches_sympy(route, case):
    # R and the pivots entry for entry; "packed up to 7" also sends p = 5
    # and 7 through the packed rows, whose pivots then hold more multiples
    p, A = case
    m, n = A.shape
    M = DomainMatrix([[ZZ(int(x)) for x in row] for row in A], (m, n), ZZ)
    want, want_pivots = M.convert_to(GF(p)).rref()
    with mock.patch.object(exactlin, "_PACKED_PMAX", 7 if route ==
                           "packed up to 7" else exactlin._PACKED_PMAX):
        R, pivots = exactlin.rref_modp(A, p)
    assert pivots == list(want_pivots)
    assert R.dtype == np.int64
    assert R.tolist() == [[int(x) % p for x in row] for row in want.to_list()]


@pytest.mark.parametrize("p", [5, 65537])
def test_rref_above_packed_pmax_runs_the_column_loop(monkeypatch, p):
    def refuse(*args):
        raise AssertionError("packed rows used above _PACKED_PMAX")

    for name in ("_rref_packed", "_packed_modp_reduce", "_pack_dense"):
        monkeypatch.setattr(exactlin, name, refuse)
    A = np.array([[1, 2, 3], [2, 4, 7]])
    R, pivots = exactlin.rref_modp(A, p)
    assert pivots == [0, 2] and exactlin.rank_modp(A, p) == 2
    assert R.tolist() == [[1, 2, 0], [0, 0, 1]]


# dense products -------------------------------------------------------------


def matmul_oracle(A, B, p):
    """A @ B mod p in Python ints, one entry at a time."""
    d, k = A.shape
    e = B.shape[1]
    A, B = A.tolist(), B.tolist()
    return [[sum(A[i][t] * B[t][j] for t in range(k)) % p for j in range(e)]
            for i in range(d)]


# 33554393 < 2**25: k (p-1)**2 < 2**53 holds up to k = 8, so k <= 8 runs
# a machine-number branch and k >= 9 the Python-int one.  The small-work
# cutoff is drawn as 0 or as its own value, so that small shapes run the
# float64 branch as well as the int64 one.
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 33554393, 2**31 - 1]), st.integers(0, 5),
       st.integers(0, 12), st.integers(0, 5),
       st.sampled_from([0, exactlin._INT64_WORK]), st.data())
def test_matmul_modp_matches_python_ints(p, d, k, e, cutoff, data):
    entries = st.one_of(st.integers(0, p - 1), st.integers(-2**62, 2**62))

    def draw(m, n):
        rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=m, max_size=m))
        return np.array(rows, dtype=np.int64).reshape(m, n)

    A, B = draw(d, k), draw(k, e)
    with mock.patch.object(exactlin, "_INT64_WORK", cutoff):
        got = exactlin.matmul_modp(A, B, p)
    assert got.dtype == np.int64 and got.shape == (d, e)
    assert got.tolist() == matmul_oracle(A, B, p)


@pytest.mark.parametrize("k", [8, 9, 16])
def test_matmul_modp_at_the_float_bound(k):
    # k = 8 is the largest inner dimension on float64 at p = 33554393: its
    # sums of products near (p-1)**2 come close to 2**53, and from k = 9
    # on they pass it, where float64 no longer holds every integer
    p = 33554393
    rng = np.random.default_rng(k)
    A = rng.integers(p - 1000, p, size=(30, k))
    B = rng.integers(p - 1000, p, size=(k, 80))
    assert A.size * B.shape[1] > exactlin._INT64_WORK
    assert exactlin.matmul_modp(A, B, p).tolist() == matmul_oracle(A, B, p)


def test_matmul_modp_zero_sizes():
    # k = 0 always takes a machine-number branch; 0xk @ kxe at the largest
    # prime takes the Python-int one
    for p in (2, 2**31 - 1):
        Z = exactlin.matmul_modp(np.ones((3, 0), np.int64),
                                 np.ones((0, 4), np.int64), p)
        assert Z.dtype == np.int64 and Z.shape == (3, 4) and not Z.any()
        assert exactlin.matmul_modp(np.ones((0, 2), np.int64),
                                    np.ones((2, 5), np.int64), p).shape == (0, 5)


# sparse and GF(2) paths ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(matrices(), st.sampled_from([2, 3, 5]))
def test_sparse_rank_matches_dense(A, p):
    cols = []
    for j in range(A.shape[1]):
        cols.append({i: int(A[i, j]) % p for i in range(A.shape[0])
                     if A[i, j] % p})
    assert exactlin.sparse_rank_modp(cols, A.shape[0], p) == rank_oracle(A, p)


@settings(max_examples=60, deadline=None)
@given(matrices(max_side=9, entries=st.integers(0, 1)))
def test_gf2_dense_matches_oracle(A):
    assert exactlin.rank_gf2_dense(A) == rank_oracle(A, 2)


@settings(max_examples=60, deadline=None)
@given(matrices(max_side=9, entries=st.integers(0, 1)))
def test_gf2_packed_matches_dense(A):
    rows = [list(np.nonzero(A[i] % 2)[0]) for i in range(A.shape[0])]
    M = exactlin.pack_rows_gf2(rows, A.shape[1])
    assert exactlin.rank_gf2_packed(M, A.shape[1]) == rank_oracle(A, 2)


def test_gf2_pack_cancels_duplicates():
    M = exactlin.pack_rows_gf2([[3, 3, 5]], 8)
    assert exactlin.rank_gf2_packed(M.copy(), 8) == 1
    M2 = exactlin.pack_rows_gf2([[3, 3]], 8)
    assert exactlin.rank_gf2_packed(M2, 8) == 0


def test_gf2_from_columns_wide():
    rng = np.random.default_rng(5)
    A = rng.integers(0, 2, size=(40, 300))
    cols = np.array([np.nonzero(A[:, j])[0][:3] for j in range(300)
                     if A[:, j].sum() >= 3])
    dense = np.zeros((40, len(cols)), dtype=np.int64)
    for j, idx in enumerate(cols):
        for i in idx:
            dense[i, j] ^= 1
    assert exactlin.rank_gf2_from_columns(cols, 40) == rank_oracle(dense, 2)


@st.composite
def gf2_columns(draw):
    """(columns, dense matrix) over Z: tall or wide, each column either a
    dict with arbitrary coefficients or an index list with repeats."""
    short, long = draw(st.integers(0, 8)), draw(st.integers(0, 24))
    nrows, ncols = draw(st.sampled_from([(long, short), (short, long)]))
    A = np.zeros((nrows, ncols), dtype=np.int64)
    cols = []
    for j in range(ncols):
        if nrows == 0:
            cols.append(draw(st.sampled_from([{}, []])))
        elif draw(st.booleans()):
            col = draw(st.dictionaries(st.integers(0, nrows - 1),
                                       st.integers(-9, 9), max_size=nrows))
            for i, v in col.items():
                A[i, j] = v
            cols.append(col)
        else:
            col = draw(st.lists(st.integers(0, nrows - 1), max_size=2 * nrows))
            for i in col:
                A[i, j] += 1
            cols.append(col)
    return cols, A


@settings(max_examples=150, deadline=None)
@given(gf2_columns())
def test_sparse_rank_gf2_matches_oracle(case):
    cols, A = case
    assert exactlin.sparse_rank_modp(cols, A.shape[0], 2) == rank_oracle(A, 2)


@st.composite
def gf2_index_arrays(draw):
    """(index array, nrows, dense matrix over Z): the array has one row of
    row indices per column, tall, wide or square, with repeats likely."""
    short, long = draw(st.integers(1, 7)), draw(st.integers(1, 30))
    nrows, ncols = draw(st.sampled_from([(long, short), (short, long),
                                         (short, short)]))
    width = draw(st.integers(0, 4))
    A = np.array(draw(st.lists(
        st.lists(st.integers(0, nrows - 1), min_size=width, max_size=width),
        min_size=ncols, max_size=ncols)), dtype=np.int64).reshape(ncols, width)
    dense = np.zeros((nrows, ncols), dtype=np.int64)
    for c, rows in enumerate(A.tolist()):
        for r in rows:
            dense[r, c] += 1
    return A, nrows, dense


@settings(max_examples=200, deadline=None)
@given(gf2_index_arrays())
def test_gf2_index_array_rank_matches_oracle(case):
    A, nrows, dense = case
    want = rank_oracle(dense, 2)
    assert exactlin.rank_gf2_from_columns(A, nrows) == want
    assert exactlin.sparse_rank_modp(A, nrows, 2) == want
    assert exactlin.rank_gf2_from_columns(A.tolist(), nrows) == want
    signs = np.where(np.arange(A.shape[1]) % 2, -1, 1)
    signed = np.zeros_like(dense)
    for c, rows in enumerate(A.tolist()):
        for r, s in zip(rows, signs.tolist()):
            signed[r, c] += s
    for p in (2, 3):
        assert exactlin.entry_rank(
            *exactlin.index_entries(A, signs), nrows, len(A), p) \
            == rank_oracle(signed, p)


def test_gf2_pack_buffer_chunks(monkeypatch):
    # vectors longer than the packing buffer, and many per buffer, in
    # both orientations
    rng = np.random.default_rng(3)
    for nrows, ncols in ((40, 90), (200, 50)):
        A = rng.integers(0, nrows, size=(ncols, 3))
        dense = np.zeros((nrows, ncols), dtype=np.int64)
        for c, rows in enumerate(A.tolist()):
            for r in rows:
                dense[r, c] += 1
        for size in (1, 7, 1 << 20):
            monkeypatch.setattr(exactlin, "_PACK_BYTES", size)
            assert exactlin.rank_gf2_from_columns(A, nrows) \
                == rank_oracle(dense, 2)


@pytest.mark.parametrize("nrows", [3, 8])   # array rows, array columns reduced
@pytest.mark.parametrize("bad", [-1, "nrows"])
def test_gf2_index_out_of_range_raises(nrows, bad):
    bad = nrows if bad == "nrows" else bad
    A = np.array([[0, 1], [2, bad], [1, 1], [0, 2]], dtype=np.int64)
    with pytest.raises(ValueError):
        exactlin.rank_gf2_from_columns(A, nrows)
    with pytest.raises(ValueError):
        exactlin.rank_gf2_from_columns(A.tolist(), nrows)
    dicts = [dict.fromkeys(c, 1) for c in A.tolist()]
    with pytest.raises(ValueError):
        exactlin.rank_gf2_from_columns(dicts, nrows)


@pytest.mark.parametrize("nrows", [3, 8])   # rows reduced, columns reduced
@pytest.mark.parametrize("bad", [-1, "nrows", "2 nrows - 1"])
@pytest.mark.parametrize("p", [3, 5])
def test_odd_index_out_of_range_raises(nrows, bad, p):
    # a reversed row label nrows-1-r would wrap a list index round
    bad = {"nrows": nrows, "2 nrows - 1": 2 * nrows - 1}.get(bad, bad)
    A = np.array([[0, 1], [2, bad], [1, 1], [0, 2]], dtype=np.int64)
    with pytest.raises(ValueError, match="out of range"):
        exactlin.entry_rank(
            *exactlin.index_entries(A, np.array([1, -1])), nrows, len(A), p)
    dicts = [dict(zip(c, (1, -1))) for c in A.tolist()]
    with pytest.raises(ValueError, match="out of range"):
        exactlin.sparse_rank_modp(dicts, nrows, p)
    with pytest.raises(ValueError, match="out of range"):
        exactlin.entry_rank(
            *exactlin.index_entries(np.array([[-1]]), 1), 2, 1, p)
    with pytest.raises(ValueError, match="out of range"):
        exactlin.sparse_rank_modp([{7: 1}], 2, p)


@st.composite
def odd_p_cases(draw):
    """(p, dict columns, index array, signs, nrows, the dense matrices of
    both over Z), wide, tall or square.  Dict entries may be zero or
    repeat mod p and whole columns repeat; the index array repeats faces
    and carries a sign per entry."""
    p = draw(st.sampled_from([3, 5, 7]))
    short, long = draw(st.integers(0, 7)), draw(st.integers(0, 24))
    nrows, ncols = draw(st.sampled_from([(long, short), (short, long),
                                         (short, short)]))
    A = np.zeros((nrows, ncols), dtype=np.int64)
    cols = []
    for j in range(ncols):
        if cols and draw(st.booleans()):
            col = dict(cols[draw(st.integers(0, len(cols) - 1))])
        elif nrows:
            col = draw(st.dictionaries(
                st.integers(0, nrows - 1),
                st.sampled_from([0, p, -p, 1, p + 1, -1, 2 * p - 1, 2]),
                max_size=nrows))
        else:
            col = {}
        for i, v in col.items():
            A[i, j] = v
        cols.append(col)
    width = draw(st.integers(0, 4)) if nrows else 0
    faces = np.array(draw(st.lists(
        st.lists(st.integers(0, max(nrows - 1, 0)), min_size=width,
                 max_size=width),
        min_size=ncols, max_size=ncols)), dtype=np.int64).reshape(ncols, width)
    signs = np.array(draw(st.lists(
        st.lists(st.sampled_from([1, -1]), min_size=width, max_size=width),
        min_size=ncols, max_size=ncols)), dtype=np.int64).reshape(ncols, width)
    F = np.zeros((nrows, ncols), dtype=np.int64)
    np.add.at(F, (faces, np.arange(ncols)[:, None]), signs)
    return p, cols, faces, signs, nrows, A, F


@settings(max_examples=300, deadline=None)
@given(odd_p_cases())
def test_odd_p_ranks_match_oracle(case):
    # a wide matrix is ranked by its reversed rows, a tall or square one
    # by its columns
    p, cols, faces, signs, nrows, A, F = case
    assert exactlin.sparse_rank_modp(cols, nrows, p) == rank_oracle(A, p)
    assert exactlin.sparse_rank_modp(iter(cols), nrows, p) \
        == rank_oracle(A, p)
    assert exactlin.entry_rank(
        *exactlin.index_entries(faces, signs), nrows, len(faces), p) \
        == rank_oracle(F, p)
    # one sign list broadcast over every column
    row_signs = signs[0] if len(signs) else np.ones(faces.shape[1], np.int64)
    G = np.zeros_like(F)
    np.add.at(G, (faces, np.arange(len(faces))[:, None]), row_signs)
    assert exactlin.entry_rank(
        *exactlin.index_entries(faces, row_signs), nrows, len(faces), p) \
        == rank_oracle(G, p)


@st.composite
def entry_cases(draw):
    """(p, rows, cols, vals, nrows, ncols, dense matrix over Z): tall,
    wide, square or empty; entries often coincide, and values are often
    negative or zero mod p."""
    p = draw(st.sampled_from([2, 3, 5]))
    short, long = draw(st.integers(0, 7)), draw(st.integers(0, 24))
    nrows, ncols = draw(st.sampled_from([(long, short), (short, long),
                                         (short, short)]))
    entries = draw(st.lists(st.tuples(
        st.integers(0, max(nrows - 1, 0)), st.integers(0, max(ncols - 1, 0)),
        st.sampled_from([1, -1, 2, -2, 0, p, -p, p + 1, 2 * p - 1])),
        max_size=3 * (nrows + ncols))) if nrows and ncols else []
    entries += entries[:draw(st.integers(0, len(entries)))]
    rows, cols, vals = (np.array([e[i] for e in entries], dtype=np.int64)
                        for i in range(3))
    A = np.zeros((nrows, ncols), dtype=np.int64)
    np.add.at(A, (rows, cols), vals)
    return p, rows, cols, vals, nrows, ncols, A


@settings(max_examples=300, deadline=None)
@given(entry_cases())
def test_entry_rank_matches_oracle(case):
    p, rows, cols, vals, nrows, ncols, A = case
    want = rank_oracle(A, p)
    assert exactlin.entry_rank(rows, cols, vals, nrows, ncols, p) == want
    assert want == column_loop_rank(A, p)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("shape", [(3, 8), (8, 3), (4, 4)])
@pytest.mark.parametrize("side", ["rows", "cols"])
@pytest.mark.parametrize("bad", [-1, "bound", -2**62])
def test_entry_rank_index_out_of_range_raises(p, shape, side, bad):
    nrows, ncols = shape
    rows, cols = np.array([0, 1, 2]), np.array([2, 1, 0])
    bound = nrows if side == "rows" else ncols
    (rows if side == "rows" else cols)[1] = bound if bad == "bound" else bad
    with pytest.raises(ValueError, match="out of range"):
        exactlin.entry_rank(rows, cols, np.array([1, -1, 1]), nrows, ncols, p)


@st.composite
def complex_cases(draw):
    """(p, boundaries as entry arrays, their dense matrices mod p): a
    chain complex of 2 to 4 boundaries with d_k d_{k+1} = 0 mod p, each
    d_{k+1} a random combination of a kernel basis of d_k.  Dimensions
    0..9 give wide, tall, square and empty boundaries in every mix; each
    nonzero is split into coincident summands, often negative, and
    entries that are zero mod p are scattered in."""
    p = draw(st.sampled_from([2, 3, 5]))
    dims = draw(st.lists(st.integers(0, 9), min_size=3, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.2, 0.5, 0.9]))

    def sparse(m, n):
        return rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < density)

    dense = [sparse(dims[0], dims[1]) % p]
    for n in dims[2:]:
        K = exactlin.kernel_basis_modp(dense[-1], p)[0]
        dense.append(exactlin.matmul_modp(K, sparse(K.shape[1], n), p))
    return p, [scattered_entries(D, p, rng) for D in dense], dense


def scattered_entries(D, p, rng):
    """Entry arrays of the matrix D mod p: each nonzero split into two
    coincident summands, often negative, and entries that are zero mod p
    scattered in."""
    r, c = np.nonzero(D)
    part = rng.integers(-2 * p, 2 * p + 1, size=r.size)
    zr = rng.integers(0, max(D.shape[0], 1), size=D.size // 3)
    zc = rng.integers(0, max(D.shape[1], 1), size=D.size // 3)
    return (np.concatenate([r, r, zr]), np.concatenate([c, c, zc]),
            np.concatenate([part, D[r, c] - part,
                            p * rng.integers(-2, 3, size=zr.size)]),
            *D.shape)


@settings(max_examples=300, deadline=None)
@given(complex_cases())
def test_complex_ranks_match_entry_rank_and_rref(case):
    p, boundaries, dense = case
    for D, E in zip(dense, dense[1:]):
        assert not exactlin.matmul_modp(D, E, p).any()
    want = [column_loop_rank(D, p) for D in dense]
    assert [exactlin.entry_rank(*b, p) for b in boundaries] == want
    assert exactlin.complex_ranks(boundaries, p) == want
    assert exactlin.complex_ranks(iter(boundaries), p) == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_complex_ranks_when_cleared_rows_hold_every_entry(p):
    # the pivot of d_1 names row 1 of d_2, whose only entries cancel mod p
    d1 = (np.array([0]), np.array([1]), np.array([1]), 1, 2)
    d2 = (np.array([1, 1]), np.array([2, 2]), np.array([1, p - 1]), 2, 3)
    assert exactlin.complex_ranks([d1, d2], p) == [1, 0]


def test_complex_ranks_reject_boundaries_that_do_not_compose():
    empty = (np.zeros(0, dtype=np.int64),) * 3
    with pytest.raises(ValueError, match="follows one with 3 columns"):
        exactlin.complex_ranks([(*empty, 2, 3), (*empty, 4, 5)], 3)


# packed odd-p rows: int fields of w bits, against the column loop and dicts


PACKED_PS = [3, 5, 7]     # the packed kernel, forced on for 5 and 7
DICT_P = 11               # wide boundaries at this p stay on dicts


def test_packed_rule_leaves_a_prime_on_the_dict_side():
    assert exactlin._PACKED_PMAX in PACKED_PS and DICT_P > exactlin._PACKED_PMAX


@st.composite
def wide_complex_cases(draw):
    """(p, two wide boundaries d_1 d_2 = 0 mod p as `scattered_entries`,
    their dense matrices mod p, a packing buffer size).  Widths run to 90
    fields, past byte and 64-bit word ends at every field width, and
    buffers of a few bytes split the rows into many chunks."""
    p = draw(st.sampled_from(PACKED_PS + [DICT_P]))
    a = draw(st.integers(0, 6))
    b = draw(st.integers(a + 1, 40))
    c = draw(st.integers(b + 1, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.3, 0.9]))

    def sparse(m, n):
        return rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < density)

    d1 = sparse(a, b) % p
    K = exactlin.kernel_basis_modp(d1, p)[0]
    dense = [d1, exactlin.matmul_modp(K, sparse(K.shape[1], c), p)]
    return (p, [scattered_entries(D, p, rng) for D in dense], dense,
            draw(st.sampled_from([1, 3, 8, 64, 1 << 20])))


@settings(max_examples=200, deadline=None)
@given(wide_complex_cases())
def test_packed_odd_p_ranks_match_rref_with_clearing(case):
    p, boundaries, dense, pack_bytes = case
    want = [column_loop_rank(D, p) for D in dense]
    pmax = p if p in PACKED_PS else exactlin._PACKED_PMAX
    with mock.patch.object(exactlin, "_PACKED_PMAX", pmax), \
            mock.patch.object(exactlin, "_PACK_BYTES", pack_bytes):
        assert [exactlin.entry_rank(*b, p) for b in boundaries] == want
        assert exactlin.complex_ranks(boundaries, p) == want


@st.composite
def packed_runs(draw):
    """(p, sparse vectors as index -> residue dicts, their length, a
    packing buffer size, a field width): each index once, values in
    [1, p); the width is the narrowest for p or the byte of dense rows."""
    p = draw(st.sampled_from(PACKED_PS + [DICT_P]))
    length = draw(st.integers(1, 90))
    vectors = draw(st.lists(st.dictionaries(
        st.integers(0, length - 1), st.integers(1, p - 1),
        max_size=draw(st.sampled_from([3, length]))), max_size=24))
    return (p, vectors, length, draw(st.sampled_from([1, 5, 64, 1 << 20])),
            draw(st.sampled_from([exactlin._field_width(p),
                                  exactlin._DENSE_WIDTH])))


@settings(max_examples=300, deadline=None)
@given(packed_runs())
def test_packed_and_dict_kernels_agree_on_rank_and_pivot_keys(case):
    # complex_ranks clears the next boundary's rows by these keys, so the
    # two kernels must name the same ones, not only count them alike
    p, vectors, length, pack_bytes, w = case
    runs = [sorted(v.items()) for v in vectors]
    idx = np.array([i for run in runs for i, _ in run], dtype=np.int64)
    vals = np.array([v for run in runs for _, v in run], dtype=np.int64)
    starts = np.cumsum([0] + [len(run) for run in runs])
    with mock.patch.object(exactlin, "_PACK_BYTES", pack_bytes):
        packed = list(exactlin._pack_runs(idx, starts, length, vals, w))
    assert len(packed) == len(vectors)
    for x, v in zip(packed, vectors):
        assert x >> length * w == 0
        assert {i: x >> i * w & (1 << w) - 1 for i in range(length)} \
            == {i: v.get(i, 0) for i in range(length)}
    keys = exactlin._packed_modp_reduce(packed, length, p, w)
    (rank,), pivots = exactlin._modp_reduce(vectors, length, p,
                                            exactlin._ALL)
    assert sorted(keys) == sorted(pivots)
    dense = np.zeros((len(vectors), length), dtype=np.int64)
    for r, v in enumerate(vectors):
        dense[r, list(v)] = list(v.values())
    assert rank == len(keys) == rank_oracle(dense, p)


def test_rank_modp_gf2_above_dense_threshold():
    # A = L D U with L, U unit triangular and D a 0/1 diagonal with r
    # ones has rank exactly r; float64 products of 0/1 entries this
    # small are exact
    rng = np.random.default_rng(11)
    m, n, r = 2048, 2049, 1500
    assert m * n > 1 << 22
    L = np.tril(rng.integers(0, 2, size=(m, m)), -1) + np.eye(m, dtype=np.int64)
    U = np.triu(rng.integers(0, 2, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
    D = np.zeros((m, n))
    ones = rng.choice(min(m, n), size=r, replace=False)
    D[ones, ones] = 1
    A = (L.astype(np.float64) @ D @ U.astype(np.float64)).astype(np.int64) % 2
    assert exactlin.rank_modp(A, 2) == r


# prefix ranks: one reduction, the rank of every leading block of columns ---


@st.composite
def prefix_cases(draw):
    """(p, dict or index-list columns, dense matrix over Z, ascending
    counts): wide shapes often reach full row rank before the last
    column; counts repeat and may be 0 or exceed the column count."""
    p = draw(st.sampled_from([2, 3, 5]))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 20))
    A = np.array(draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=nrows, max_size=nrows),
        min_size=ncols, max_size=ncols)), dtype=np.int64).reshape(ncols, nrows).T
    cols = []
    for j in range(ncols):
        if p == 2 and draw(st.booleans()):
            # the same column as an index list: odd entries once, and a
            # cancelling pair for every even nonzero one
            cols.append([i for i in range(nrows) if A[i, j] % 2]
                        + [i for i in range(nrows) if A[i, j] and not A[i, j] % 2] * 2)
        else:
            cols.append({i: int(A[i, j]) for i in range(nrows) if A[i, j]})
    counts = sorted(draw(st.lists(st.integers(0, ncols + 2), max_size=6)))
    return p, cols, A, counts


@settings(max_examples=200, deadline=None)
@given(prefix_cases())
def test_sparse_prefix_ranks_match_every_prefix(case):
    p, cols, A, counts = case
    nrows = A.shape[0]
    ranks = exactlin.sparse_prefix_ranks(cols, nrows, p, counts)
    assert ranks == [exactlin.rank_modp(A[:, :c], p) for c in counts]
    assert ranks == [rank_oracle(A[:, :c], p) if c and nrows else 0
                     for c in counts]
    # the single-count case, and every traced rank function hands back an
    # int (the benchmark tracer sums them with int())
    full = exactlin.sparse_rank_modp(cols, nrows, p)
    assert type(full) is int and full == exactlin.rank_modp(A, p)
    if p == 2:
        packed = exactlin.pack_rows_gf2(cols, nrows)
        assert type(exactlin.rank_gf2_packed(packed, nrows)) is int
        assert type(exactlin.rank_gf2_from_columns(cols, nrows)) is int


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sparse_prefix_ranks_stop_at_full_rank(p):
    # every count from the one that reaches rank nrows on reads nrows, and
    # no later column is read (the generator fails if one is)
    nrows = 4
    full = [{i: 1, nrows - 1: p - 1} if i < nrows - 1 else {i: 1}
            for i in range(nrows)]

    def columns():
        yield from full
        raise AssertionError("read a column past full rank")

    assert exactlin.sparse_prefix_ranks(
        columns(), nrows, p, [0, 0, 2, 4, 4, 9, 100]) == [0, 0, 2, 4, 4, 4, 4]
    assert exactlin.sparse_prefix_ranks([], 0, p, [0, 3]) == [0, 0]


# Smith normal form ---------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(matrices(max_side=5, entries=st.integers(-20, 20)))
def test_snf_matches_sympy(A):
    assert exactlin.smith_normal_form(A) == snf_oracle(A)


@settings(max_examples=60, deadline=None)
@given(matrices(max_side=4, entries=st.integers(-6, 6)))
def test_snf_minor_gcd_characterization(A):
    inv = exactlin.smith_normal_form(A)
    gcds = minor_gcds(A, len(inv))
    prod = 1
    for k, d in enumerate(inv):
        prod *= d
        assert prod == gcds[k]
    for a, b in zip(inv, inv[1:]):
        assert b % a == 0


@st.composite
def sparse_unit_matrices(draw, max_side=12):
    """Matrices of mostly +-1 entries with a few non-units, at most half
    of the cells filled and some rows and columns emptied.  Eliminating
    a pivot here fills in new entries and changes the fill of entries
    that are not written, so heap keys go stale."""
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    A = np.zeros((m, n), dtype=np.int64)
    values = st.sampled_from([1, -1] * 4 + [2, -2, 3, 4, -6])
    if m and n:
        cells = draw(st.permutations(range(m * n)))
        for c in cells[:draw(st.integers(0, m * n // 2))]:
            A[divmod(c, n)] = draw(values)
        A[draw(st.lists(st.integers(0, m - 1), max_size=2)), :] = 0
        A[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0
    return A


@settings(max_examples=150, deadline=None)
@given(sparse_unit_matrices())
def test_snf_heap_matches_scan_and_sympy(A):
    inv = exactlin.smith_normal_form(A)
    assert inv == snf_scan_oracle(A)
    assert inv == snf_oracle(A)


def test_snf_rejects_non_integer_matrices():
    with pytest.raises(ValueError):
        exactlin.smith_normal_form(np.array([[0.5, 0], [0, 2.7]]))
    with pytest.raises(ValueError):
        exactlin.smith_normal_form(np.array([[2.0, 0], [0, 4]]))
    with pytest.raises(ValueError):
        exactlin.smith_normal_form(np.array([[0.5, 0], [0, 2]], dtype=object))
    unimodular = np.array([[True, True], [False, True]])
    assert exactlin.smith_normal_form(unimodular) == (1, 1)
    small = np.array([[6, 0], [0, 4]], dtype=np.uint8)
    assert exactlin.smith_normal_form(small) == (2, 12)


def test_snf_object_entries_beyond_int64():
    big = np.array([[2**40, 0], [0, 2**40]], dtype=object)
    assert exactlin.smith_normal_form(big) == (2**40, 2**40)
    huge = np.array([[2**70, 0], [0, 3 * 2**69]], dtype=object)
    assert exactlin.smith_normal_form(huge) == (2**69, 3 * 2**70)


def test_snf_frozen_examples():
    assert exactlin.smith_normal_form(np.diag([4, 6])) == (2, 12)
    assert exactlin.smith_normal_form(np.zeros((3, 3), dtype=np.int64)) == ()
    A = np.array([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert exactlin.smith_normal_form(A) == (2, 2, 156)


def test_bad_prime_rejected():
    with pytest.raises(ValueError):
        exactlin.rank_modp(np.eye(2, dtype=np.int64), 4)
    with pytest.raises(ValueError):
        exactlin.rank_modp(np.eye(2, dtype=np.int64), 1)


def test_is_prime_matches_sympy():
    xs = list(range(10**4)) + [2**31 - 1, 2**31 - 3]
    assert [exactlin.is_prime(x) for x in xs] == [sympy.isprime(x) for x in xs]
    assert exactlin.rank_modp(np.eye(3, dtype=np.int64), 2**31 - 1) == 3
