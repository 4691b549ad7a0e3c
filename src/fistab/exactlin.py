"""Exact linear algebra over prime fields and over the integers.

Everything here is exact.  F_p matrices are int64 numpy arrays reduced
mod p (p < 2**31, so a product of two residues fits in int64).  Dense
products go through `matmul_modp`: as float64 on BLAS while k * (p-1)**2
< 2**53 for the inner dimension k, the range in which float64 sums the
integer products exactly in any order (small products stay in int64
there), and in Python ints beyond it.  The integer Smith normal form
uses arbitrary-precision Python ints.  The two heavy paths are a dense
elimination mod p (`rref_modp`, `rank_modp`) and one sparse reduction
for large boundary matrices, which can report the rank of each of
several leading blocks of columns (`sparse_prefix_ranks`).  Both reduce
packed vectors, one Python int each, at p <= 3 (`_PACKED_PMAX`):
bitsets over GF(2), and at p = 3 the rows of a dense matrix, one residue
per byte, and of a wide boundary, one per 3-bit field, so that one step
is a few word-parallel integer operations.  At larger p the dense
elimination is a numpy loop over the columns, and the sparse vectors
are dicts.  Every assembled sparse matrix is given by its entry arrays
(rows, cols, vals), and `complex_ranks` alone ranks them: it checks the
indices, takes the shorter side, sums coincident entries and hands each
vector's run to the kernel of its field, in the order measured fastest
for that kernel.  It takes the consecutive boundaries of one chain
complex, and where d_k and d_{k+1} are both wide it skips the rows of
d_{k+1} that the pivots of d_k prove dependent ("clearing"), which is
exact only because d_k d_{k+1} = 0.  `entry_rank` is its one-boundary
case; `sparse_rank_modp` and `rank_gf2_from_columns` rank dict or
index-list columns through that, and `index_entries` gives the entry
arrays of an index array.  The prefix ranks keep the column order.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import math
import operator
import sys

import numpy as np

_PMAX = 2**31


@functools.lru_cache(maxsize=None)
def is_prime(x: int) -> bool:
    """Trial division, run once per distinct x."""
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


def _check_p(p: int) -> None:
    if not (2 <= p < _PMAX):
        raise ValueError(f"modulus {p} out of supported range [2, 2^31)")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def asmod(A, p: int) -> np.ndarray:
    """A as a 2d int64 array with entries in [0, p), copied only if some
    entry is not; callers that write to it copy it first.

    Seen as uint64, a negative entry is at least 2**63, so one maximum
    checks both ends of the range.
    """
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("expected a 2d array")
    if A.size and A.view(np.uint64).max() >= p:
        A = A % p
    return A


_FLOAT_EXACT = 2**53
# Below this many multiply-adds (d * k * e) numpy's int64 loop beats the
# float64 conversions and BLAS call, whose fixed cost is about 13 us.
_INT64_WORK = 2**14


def matmul_modp(A, B, p: int) -> np.ndarray:
    """A @ B mod p as an int64 array, exact for every modulus p >= 2.

    Both operands are reduced mod p.  While k * (p-1)**2 < 2**53 (k the
    inner dimension) every partial sum is an integer below 2**53, so the
    float64 BLAS product is exact whatever its summation order, and so is
    the int64 one that small products use; beyond that bound the operands
    are Python-int object arrays.
    """
    if p < 2:
        raise ValueError(f"modulus {p} must be at least 2")
    A, B = asmod(A, p), asmod(B, p)
    d, k = A.shape
    if k * (p - 1) ** 2 >= _FLOAT_EXACT:
        return (A.astype(object) @ B.astype(object) % p).astype(np.int64)
    if d * k * B.shape[1] <= _INT64_WORK:
        return A @ B % p
    F = A.astype(np.float64) @ B.astype(np.float64)
    C = F.astype(np.int64)
    # C - (C // p) * p, the quotient written over the float product:
    # numpy divides by a scalar far faster than it takes a remainder
    q = F.view(np.int64)
    np.floor_divide(C, p, out=q)
    q *= p
    C -= q
    return C


def rref_modp(A, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.  Returns (R, pivot_columns).

    At p <= _PACKED_PMAX the rows are packed into ints (`_pack_dense`),
    reduced by the kernel of their field and back-substituted
    (`_rref_packed`); at larger p it is the numpy column loop
    `_rref_columns`.
    """
    _check_p(p)
    if p > _PACKED_PMAX:
        return _rref_columns(A, p)
    return _rref_packed(asmod(A, p), p)


def _rref_columns(A, p: int) -> tuple[np.ndarray, list[int]]:
    """`rref_modp` one column at a time, at any p: each pivot is scaled
    to 1 and cleared from every other row by numpy."""
    R = asmod(A, p).copy()
    m, n = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            R[[r, piv]] = R[[piv, r]]
        inv = pow(int(R[r, c]), -1, p)
        R[r] = (R[r] * inv) % p
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if others.size:
            R[others] = (R[others] - np.outer(R[others, c], R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def rank_modp(A, p: int) -> int:
    """Rank of A over F_p: over F_2 `rank_gf2_dense`, at odd p <=
    _PACKED_PMAX the forward pass of `rref_modp` alone, and at larger p
    the number of pivots of the column loop."""
    _check_p(p)
    A = asmod(A, p)
    if not A.size:
        return 0
    if p == 2:
        return rank_gf2_dense(A)
    if p <= _PACKED_PMAX:
        return len(_packed_modp_reduce(_pack_dense(A, p), A.shape[1], p,
                                       _DENSE_WIDTH))
    return len(_rref_columns(A, p)[1])


def nullity_modp(A, p: int) -> int:
    A = np.asarray(A)
    return A.shape[1] - rank_modp(A, p)


def kernel_basis_modp(A, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(K, free): the columns of K are a basis of ker(A) over F_p, and
    K[free] is the identity, so a vector x of ker(A) is K @ x[free]."""
    R, pivots = rref_modp(A, p)
    n = R.shape[1]
    free = np.delete(np.arange(n), pivots)
    K = np.zeros((n, free.size), dtype=np.int64)
    K[free, np.arange(free.size)] = 1
    K[pivots] = -R[:len(pivots), free] % p
    return K, free


def nullspace_modp(A, p: int) -> np.ndarray:
    """Columns form a basis of ker(A) over F_p."""
    return kernel_basis_modp(A, p)[0]


def solve_modp(A, B, p: int) -> np.ndarray:
    """Solve A @ X = B mod p.  Raises ValueError if inconsistent."""
    A = asmod(A, p)
    B = np.asarray(B, dtype=np.int64)
    if B.ndim == 1:
        B = B[:, None]
    B = asmod(B, p)
    m, n = A.shape
    aug = np.concatenate([A, B], axis=1)
    R, pivots = rref_modp(aug, p)
    if any(c >= n for c in pivots):
        raise ValueError("inconsistent linear system mod p")
    X = np.zeros((n, B.shape[1]), dtype=np.int64)
    X[pivots] = R[:len(pivots), n:]
    return X


def colspace_complement_projection(A, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Projection onto a complement of the column space of A.

    Returns (proj, free): proj is q x m with proj @ A = 0 and
    proj[:, free] = I_q, where q = m - rank(A), so the standard basis
    vectors at the rows `free` map onto a basis of F_p^m / col(A), and a
    matrix X acts on the quotient as proj @ X[:, free].  Coordinates of
    the quotient are the non-pivot rows of the column-reduced form of A.
    """
    A = asmod(A, p)
    m = A.shape[0]
    R, pivots = rref_modp(A.T, p)  # rows of R span the column space of A
    free = np.delete(np.arange(m), pivots)
    # in rref, reducing x against R clears exactly the pivot coordinates:
    # x - sum_k x[pc_k] R[k]; its free coordinate f reads x[f] - sum_k
    # x[pc_k] R[k, f]
    proj = np.eye(m, dtype=np.int64)[free]
    proj[:, pivots] = -R[:len(pivots), free].T % p
    return proj, free


# ---------------------------------------------------------------------------
# sparse matrices: entry arrays, and the one rank of them
# ---------------------------------------------------------------------------


def dense_to_columns(A) -> list[dict[int, int]]:
    """The columns of a dense matrix as row -> value dicts, zeros left out."""
    At = np.asarray(A).T
    cols: list[dict[int, int]] = [{} for _ in range(At.shape[0])]
    ci, ri = np.nonzero(At)
    for c, r, v in zip(ci.tolist(), ri.tolist(), At[ci, ri].tolist()):
        cols[c][r] = v
    return cols


def column_entries(columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entry arrays (rows, cols, vals) of a list of columns, each a
    row -> value dict or a list of row indices of value 1."""
    rows: list[int] = []
    vals: list[int] = []
    lens = []
    for col in columns:
        rows.extend(col)
        vals.extend(col.values() if isinstance(col, dict)
                    else itertools.repeat(1, len(col)))
        lens.append(len(col))
    return (np.array(rows, dtype=np.int64),
            np.repeat(np.arange(len(lens)), np.array(lens, dtype=np.int64)),
            np.array(vals, dtype=np.int64))


def entries_to_dense(rows, cols, vals, nrows: int, ncols: int,
                     p: int) -> np.ndarray:
    """The nrows x ncols matrix mod p of entry arrays, coincident entries
    summed."""
    D = np.zeros((nrows, ncols), dtype=np.int64)
    np.add.at(D, (rows, cols), vals)
    return D % p


# The one count of a plain rank: more columns than any matrix has.
_ALL = (sys.maxsize,)


def entry_rank(rows, cols, vals, nrows: int, ncols: int, p: int) -> int:
    """Rank over F_p of the nrows x ncols matrix with entry vals[i] at
    (rows[i], cols[i]), coincident entries summed: `complex_ranks` of
    the complex with this one boundary."""
    return complex_ranks([(rows, cols, vals, nrows, ncols)], p)[0]


def complex_ranks(boundaries, p: int) -> list[int]:
    """Ranks over F_p of the consecutive boundaries d_a, d_{a+1}, ... of
    one chain complex, d_k: C_k -> C_{k-1}, each given by its entry arrays
    (rows, cols, vals, nrows, ncols) as `entry_rank` takes them.

    `boundaries` may be any iterable, read one boundary at a time, each
    let go before the next is read.  Precondition: d_k d_{k+1} = 0 mod p;
    only the shapes are checked.

    Clearing: when d_k and d_{k+1} are both wide, both are reduced by
    rows (`_reduce_entries`), and the pivot keys of d_k name rows of
    d_{k+1} that are skipped before they are packed or turned into
    dicts.  A pivot of d_k with key t is a vector of rowspace(d_k) whose
    last entry in processing order is t; times d_{k+1} it gives 0, so row
    t of d_{k+1} lies in the span of the rows processed before it.  The
    labels match: reversed at odd p (key ncols_k-1-c of d_k is vector
    nrows_{k+1}-1-r of d_{k+1}), natural over F_2.  Every other pair is
    ranked plainly.  On a sequence that is not a complex a skipped row
    may be independent, and a rank would come out too low.  (Chen and
    Kerber, EuroCG 2011; Bauer, *Ripser*, J. Appl. Comput. Topol. 2021.)
    """
    _check_p(p)
    ranks: list[int] = []
    keys, width = None, None
    for boundary in boundaries:
        if width is not None and boundary[3] != width:
            raise ValueError(f"boundary with {boundary[3]} rows follows one "
                             f"with {width} columns")
        width = boundary[4]
        rank, keys = _reduce_entries(*boundary, p, keys)
        del boundary
        ranks.append(rank)
    return ranks


def _reduce_entries(rows, cols, vals, nrows: int, ncols: int, p: int,
                    cleared):
    """(rank, pivot keys) of the matrix of `entry_rank`; the keys are
    None unless it was reduced by rows, and the rows named in `cleared`,
    in the labels of that reduction, are skipped when it is.

    The three integer arrays broadcast to one shape, so an index array
    needs no column index per entry and no sign per column.  Indices out
    of range raise ValueError.  The shorter side is reduced: the rows
    when nrows < ncols, else the columns.  Every vector beyond the rank
    is reduced to zero before it is dropped, and the longer side has
    more of them.  One sort of the entries lists each vector's entries in
    one run, and the sort's temporaries are freed before the reduction
    starts; cleared rows are dropped before the sort.

    Over F_2 only the parity of a value counts, and repeats cancel; over
    odd p coincident entries are summed and zeros dropped.  At odd p the
    rows of a wide matrix take every label reversed, row r being vector
    nrows-1-r and column c its entry ncols-1-c, so they are reduced from
    the last to the first, each keyed on its lowest column.  The runs of
    F_2 vectors, and of those rows when p <= _PACKED_PMAX, are packed
    into ints a chunk at a time (`_pack_runs`, w-bit fields mod p) and
    reduced one at a time (`_gf2_reduce`, `_packed_modp_reduce`), so of
    the vectors only the pivot table is held.  The other odd-p runs, the
    columns of a tall or square matrix and the rows at larger p, are fed
    as dict vectors to `_modp_reduce`: their steps touch a few entries
    each, where a packed step costs the whole width.  Each kernel takes
    the order measured best for it: at odd p reversed rows beat the
    columns on the wide bar and total boundaries of `congruence` and
    match them on the small hyper complexes of the audit, where rows in
    their own order cost twice as much; over F_2 reversed rows raised the
    memory peak of the (Z/2)^4 bar, so there the rows keep their order.
    """
    rows, cols, vals = (np.asarray(a, dtype=np.int64)
                        for a in (rows, cols, vals))
    for idx, bound in ((rows, nrows), (cols, ncols)):
        # seen as uint64 a negative index is at least 2**63, so one
        # maximum checks both ends; numpy would wrap it round silently
        if idx.size and idx.view(np.uint64).max() >= bound:
            raise ValueError(f"index out of range [0, {bound})")
    wide = nrows < ncols
    shape = np.broadcast_shapes(rows.shape, cols.shape, vals.shape)
    if 0 in shape:
        return 0, None
    nvec, length = (nrows, ncols) if wide else (ncols, nrows)
    if wide and p != 2:
        rows, cols = nrows - 1 - rows, ncols - 1 - cols
    # vector v's entry e has key v * length + e
    key = np.broadcast_to(rows * ncols + cols if wide else cols * nrows + rows,
                          shape)
    # the entries kept: over F_2 the odd ones (on vals as given, so that a
    # shared sign list stays short), and those of rows not cleared; the
    # vectors read, and nvec to end the last one
    keep = vals % 2 != 0 if p == 2 else None
    read = np.arange(nvec + 1)
    if wide and cleared is not None and len(cleared):
        skip = np.zeros(nrows, dtype=bool)
        skip[cleared] = True
        read = np.append(np.flatnonzero(~skip), nvec)
        keep = ~skip[rows] if keep is None else keep & ~skip[rows]
        del skip
    if p != 2:
        vals = np.broadcast_to(vals, shape)
    if keep is not None and not keep.all():
        keep = np.broadcast_to(keep, shape)
        key = key[keep]
        if p != 2:
            vals = vals[keep]
    del keep
    if p == 2:
        key = np.sort(key, axis=None)
    else:
        key = key.ravel()
        order = np.argsort(key)
        key = key[order]
        vals = vals.ravel()[order]
        del order
        # the first entry of each key; none when cleared rows held them all
        first = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        first = np.flatnonzero(first)
        vals = np.add.reduceat(vals, first) % p
        nonzero = vals != 0
        key, vals = key[first[nonzero]], vals[nonzero]
    # a cleared vector has no entry left, so the next read vector's start
    # ends the run of the one before it
    starts = np.searchsorted(key, read * length)
    key %= length    # now the entries, run after run
    if p == 2 or wide and p <= _PACKED_PMAX:
        # from here on only the packer holds the entries
        runs = _pack_runs(key, starts, length, None if p == 2 else vals,
                          _field_width(p))
        del rows, cols, vals, key, starts
        if p == 2:
            (rank,), pivots = _gf2_reduce(runs, length, _ALL)
        else:
            pivots = _packed_modp_reduce(runs, length, p, _field_width(p))
            rank = len(pivots)
    else:
        starts, key, vals = starts.tolist(), key.tolist(), vals.tolist()
        vectors = [dict(zip(key[a:b], vals[a:b]))
                   for a, b in zip(starts, starts[1:])]
        del rows, cols, vals, key, starts
        (rank,), pivots = _modp_reduce(vectors, length, p, _ALL)
    if not wide:
        return rank, None
    return rank, np.fromiter(pivots, dtype=np.int64, count=len(pivots))


def sparse_rank_modp(columns, nrows: int, p: int) -> int:
    """Rank over F_p of a matrix given by its columns, each a row ->
    integer dict or a list of row indices of value 1; `entry_rank` of
    their `column_entries`."""
    columns = list(columns)
    return entry_rank(*column_entries(columns), nrows, len(columns), p)


def rank_gf2_from_columns(columns, nrows: int) -> int:
    """Rank over GF(2) of a matrix given by its columns, as
    `sparse_rank_modp` takes them; a repeated index cancels."""
    return sparse_rank_modp(columns, nrows, 2)


def index_entries(faces: np.ndarray, signs):
    """The entry arrays of an index array: column c has coefficient
    signs[c, i] at row faces[c, i], `signs` broadcast against `faces`."""
    faces = np.asarray(faces)
    if faces.ndim != 2:
        raise ValueError("expected a 2d index array")
    return faces, np.arange(len(faces))[:, None], signs


def sparse_prefix_ranks(columns, nrows: int, p: int, counts) -> list[int]:
    """The rank over F_p of the first c columns, for each c of the
    ascending `counts`, from one left-to-right reduction.

    `columns` is an iterable of dict columns, as `sparse_rank_modp` takes
    them, or over F_2 of index lists.  No column is read past the last
    count or once the rank reaches nrows.  Over odd p the columns are
    reduced by `_modp_reduce`; over F_2 each column is packed as it is
    read (`_packed_rows`) and reduced by `_gf2_reduce`.  Every count from
    the one that reaches rank nrows on reads nrows.
    """
    _check_p(p)
    if p == 2:
        return _gf2_reduce(_packed_rows(columns, nrows), nrows, counts)[0]
    return _modp_reduce(columns, nrows, p, counts)[0]


def _modp_reduce(columns, nrows: int, p: int, counts):
    """(ranks, pivot table) of the odd-p `sparse_prefix_ranks`.

    Each column is reduced against a pivot table keyed on the lowest
    (largest-index) nonzero row, the scheme used for boundary-matrix
    reduction, until it is zero or has a new lowest row.
    """
    pivot: dict[int, dict[int, int]] = {}
    cols = iter(columns)
    ranks, done = [], 0
    for c in counts:
        if len(pivot) < nrows:
            for col in itertools.islice(cols, c - done):
                col = {r: v % p for r, v in col.items() if v % p}
                while col:
                    low = max(col)
                    piv = pivot.get(low)
                    if piv is None:
                        inv = pow(col[low], -1, p)
                        pivot[low] = {r: (v * inv) % p for r, v in col.items()}
                        break
                    f = col[low]
                    for r, v in piv.items():
                        w = (col.get(r, 0) - f * v) % p
                        if w:
                            col[r] = w
                        else:
                            col.pop(r, None)
                if len(pivot) == nrows:
                    break
        done = c
        ranks.append(len(pivot))
    return ranks, pivot


# ---------------------------------------------------------------------------
# packed vectors: one Python int per row (or column), index i in the w-bit
# field at bit i*w; GF(2) bitsets are the w = 1 case
# ---------------------------------------------------------------------------

# Largest byte buffer that `_pack_runs` fills at once.
_PACK_BYTES = 1 << 20


def _pack_runs(idx: np.ndarray, starts: np.ndarray, length: int,
               vals: np.ndarray | None, w: int):
    """Yield one int of `length` fields of w <= 8 bits per vector v, from
    the entries idx[starts[v]:starts[v + 1]]: field i starts at bit i*w.

    Over F_2 (w = 1, no vals) bit i is set when i occurs an odd number of
    times; otherwise each index occurs at most once and its field holds
    the value vals[j] < 2**w.  Vectors are written a chunk at a time into
    one zeroed byte buffer of at most _PACK_BYTES, each entry XORed into
    the (at most two) bytes its field touches, so that repeats cancel and
    distinct fields never meet, and read off it with `int.from_bytes`, so
    only the ints handed out so far live on.
    """
    width = max(1, -(-length * w // 8))
    per = max(1, _PACK_BYTES // width)
    pos = idx * w
    shifted = np.left_shift(1 if vals is None else vals, pos & 7)
    pos >>= 3
    low = shifted.astype(np.uint8)
    high = (shifted >> 8).astype(np.uint8) if w > 1 else None
    del idx, vals, shifted    # freed here when the caller let go of them
    nvec = len(starts) - 1
    for a in range(0, nvec, per):
        b = min(a + per, nvec)
        lo, hi = starts[a], starts[b]
        at = np.repeat(np.arange(b - a) * width, np.diff(starts[a:b + 1]))
        at += pos[lo:hi]
        # one spare byte: a field ending a vector writes a zero high byte
        buf = np.zeros((b - a) * width + 1, dtype=np.uint8)
        np.bitwise_xor.at(buf, at, low[lo:hi])
        if high is not None:
            np.bitwise_xor.at(buf, at + 1, high[lo:hi])
        data = memoryview(buf)
        for off in range(0, len(buf) - 1, width):
            yield int.from_bytes(data[off:off + width], "little")


def _packed_rows(rows, ncols: int):
    """Yield one int per row, with bit c set when c occurs an odd number
    of times in the row, an index list or a dict index -> coefficient,
    whose even entries drop out."""
    for row in rows:
        x = 0
        if isinstance(row, dict):
            for c, v in row.items():
                if v % 2:
                    x ^= 1 << int(c)
        else:
            for c in row:
                x ^= 1 << int(c)
        if x >> ncols:
            raise ValueError(
                f"index {x.bit_length() - 1} out of range {ncols}")
        yield x


def pack_rows_gf2(rows, ncols: int) -> list[int]:
    """One int per row, packed as `_packed_rows` packs it."""
    return list(_packed_rows(rows, ncols))


def rank_gf2_packed(M, ncols: int) -> int:
    """Rank over GF(2) of the rows M, each an int of `ncols` bits; M may
    be any iterable, consumed one row at a time."""
    return _gf2_reduce(M, ncols, _ALL)[0][0]


def _gf2_reduce(M, ncols: int, counts):
    """(ranks, pivot table): the rank over GF(2) of the first c rows of
    M, for each c of the ascending `counts`, M as `rank_gf2_packed` takes
    it, and the pivot rows keyed on their highest set bit.

    Each row is reduced against the earlier pivot rows until it is zero
    or has a new highest bit.  Once the rank reaches ncols no row is
    read.
    """
    pivots: dict[int, int] = {}
    rows = iter(M)
    ranks, done = [], 0
    for c in counts:
        if len(pivots) < ncols:
            for x in itertools.islice(rows, c - done):
                while x:
                    low = x.bit_length() - 1
                    y = pivots.get(low)
                    if y is None:
                        pivots[low] = x
                        break
                    x ^= y
                if len(pivots) == ncols:
                    break
        done = c
        ranks.append(len(pivots))
    return ranks, pivots


# The odd primes whose wide boundaries `_reduce_entries` reduces as packed
# rows, and whose dense matrices `rref_modp` and `rank_modp` reduce so;
# the rest go to the dict kernel and the numpy column loop.  A packed step
# costs the whole row width, a dict step the entries it touches, and a
# packed pivot holds (p-1)/2 multiples.  Measured on a 2-core Xeon
# (bar_homology_from_table, best of 5, packed against dicts): at p = 3
# H_2((Z/3)^3) 0.029 against 0.115 s, H_3((Z/3)^2) 0.010 against 0.027 s
# and H_8(Z/3) 0.151 against 0.189 s, the one loss H_4(Z/9) at 0.51
# against 0.45 s; at p = 5 and 7 the sparse cyclic bars lost (H_5(Z/5)
# 0.152 against 0.101 s, H_4(Z/7) 0.149 against 0.123 s), and more so at
# 11 and 13 (H_3(Z/13) 0.68 against 0.16 s).  On dense matrices the
# packed rows beat the column loop at p = 3 (a 500 x 500 matrix of rank
# 500, 0.33 against 0.71 s) and lost 10 to 20 times at p = 65537.  p = 3
# is the one odd prime of the congruence workloads.
_PACKED_PMAX = 3


def _field_width(p: int) -> int:
    """Bits per field of a packed vector mod p: one over F_2; at odd p
    the residues below p, and above them one guard bit, so that a field
    holds any value below 2p, and the guard bit of x + 2**(w-1) - p is
    set exactly when the field x is at least p."""
    return 1 if p == 2 else (p - 1).bit_length() + 1


def _packed_modp_reduce(rows, ncols: int, p: int, w: int) -> dict[int, tuple]:
    """The pivot table of the rows, each an int of `ncols` fields of w
    bits holding residues mod an odd p, with w at least `_field_width(p)`.

    As in `_modp_reduce`, each row is reduced against the pivots, keyed
    on its highest nonzero field, until it is zero or has a new key.  A
    pivot y with leading coefficient c is stored as (1/c, y, 2y, ...,
    h*y), h = (p-1)/2 (`_pivot_multiples`), so that x - g*y is one add of
    (p-g)*y when g > h, or of p - g*y in every field when g <= h.  Either
    way every field of the sum is below 2p, and one word-parallel step
    reduces it: adding 2**(w-1) - p to every field sets its guard bit
    exactly where the field is at least p, and p times the guard bits,
    shifted down, is taken off.  Once the rank reaches ncols no row is
    read.
    """
    half, lift, guard, full = _packed_constants(ncols, p, w)
    pivots: dict[int, tuple] = {}
    for x in rows:
        # every step lowers the key, so no row takes more than ncols
        for _ in range(ncols + 1):
            if not x:
                break
            key = (x.bit_length() - 1) // w
            y = pivots.get(key)
            if y is None:
                pivots[key] = _pivot_multiples(x, pow(x >> key * w, -1, p),
                                               p, w, lift, guard)
                break
            g = (x >> key * w) * y[0] % p    # x - g*y has no field at key
            if g > half:
                x += y[p - g]
            else:
                x += full - y[g]
            x -= (((x + lift) & guard) >> w - 1) * p
        else:
            raise ArithmeticError(f"a packed row mod {p} was not reduced "
                                  f"in {ncols + 1} steps")
        if len(pivots) == ncols:
            break
    return pivots


def _packed_constants(ncols: int, p: int, w: int) -> tuple[int, ...]:
    """(h, lift, guard, full) of `_packed_modp_reduce`: h = (p-1)/2, and
    2**(w-1) - p, the guard bit and p in each of the ncols fields."""
    ones = ((1 << ncols * w) - 1) // ((1 << w) - 1)    # 1 in every field
    return (p - 1) // 2, ((1 << w - 1) - p) * ones, ones << w - 1, p * ones


def _pivot_multiples(x: int, inv: int, p: int, w: int, lift: int,
                     guard: int) -> tuple:
    """(inv, x, 2x, ..., h*x), h = (p-1)/2, each multiple reduced mod p
    field by field with the `_packed_constants` lift and guard: the pivot
    entry of `_packed_modp_reduce`."""
    multiples = [inv, x]
    for _ in range((p - 1) // 2 - 1):
        m = multiples[-1] + x
        multiples.append(m - (((m + lift) & guard) >> w - 1) * p)
    return tuple(multiples)


# Bits per field of a dense matrix packed mod an odd p: one byte, so the
# rows are read off the bytes of the matrix, with room for the guard bit
# of every p < 2**7.
_DENSE_WIDTH = 8


def _pack_dense(A: np.ndarray, p: int) -> list[int]:
    """The rows of A, entries in [0, p), p <= _PACKED_PMAX, one int each:
    column c in field n-1-c, so that the highest field is the leftmost
    column; a field is a bit over F_2 (`np.packbits`) and a byte
    otherwise."""
    m, n = A.shape
    flipped = A[:, ::-1]
    if p == 2:
        data = np.packbits(flipped, axis=1, bitorder="little").tobytes()
        width = -(-n // 8)
    else:
        data, width = flipped.astype(np.uint8).tobytes(), n
    data = memoryview(data)
    return [int.from_bytes(data[i * width:(i + 1) * width], "little")
            for i in range(m)]


def _rref_packed(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """`rref_modp` of A, entries in [0, p), p <= _PACKED_PMAX, on packed
    rows (`_pack_dense`).

    The forward pass is `_gf2_reduce` or `_packed_modp_reduce`; its
    pivot rows, keyed on their highest field, are echelon but not
    reduced.  They are then back-substituted from the rightmost pivot
    column to the leftmost: the fields of a row at the keys already done
    (`x & done`) are each cleared by one step against the reduced pivot
    row of that key, which is zero at every other key done.  At odd p a
    pivot row keeps its leading coefficient c, and its unpacked row is
    scaled by 1/c.
    """
    m, n = A.shape
    rows = _pack_dense(A, p)
    done = 0
    if p == 2:
        table = _gf2_reduce(rows, n, _ALL)[1]
        for k in sorted(table):
            x = table[k]
            while hit := x & done:
                x ^= table[hit.bit_length() - 1]
            table[k] = x
            done |= 1 << k
    else:
        w = _DENSE_WIDTH
        table = _packed_modp_reduce(rows, n, p, w)
        half, lift, guard, full = _packed_constants(n, p, w)
        field = (1 << w) - 1
        for k in sorted(table):
            inv, x = table[k][:2]
            while hit := x & done:
                j = (hit.bit_length() - 1) // w
                y = table[j]
                g = (x >> j * w & field) * y[0] % p
                x += y[p - g] if g > half else full - y[g]
                x -= (((x + lift) & guard) >> w - 1) * p
            table[k] = _pivot_multiples(x, inv, p, w, lift, guard)
            done |= field << k * w
    keys = sorted(table, reverse=True)    # the leftmost pivot column first
    R = np.zeros((m, n), dtype=np.int64)
    if p == 2:
        width = -(-n // 8)
        data = b"".join(table[k].to_bytes(width, "little") for k in keys)
        R[:len(keys)] = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8).reshape(len(keys), width),
            axis=1, count=n, bitorder="little")[:, ::-1]
    else:
        data = b"".join(table[k][1].to_bytes(n, "little") for k in keys)
        inv = np.array([table[k][0] for k in keys], dtype=np.int64)
        R[:len(keys)] = (np.frombuffer(data, dtype=np.uint8)
                         .reshape(len(keys), n)[:, ::-1] * inv[:, None] % p)
    return R, [n - 1 - k for k in keys]


def rank_gf2_dense(A) -> int:
    """Rank over GF(2) of a dense matrix, its rows packed by np.packbits."""
    A = asmod(A, 2)
    return rank_gf2_packed(_pack_dense(A, 2), A.shape[1])


# ---------------------------------------------------------------------------
# integer Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(A) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Exact over Python ints.  A must have an integer, bool or object dtype
    and integer entries; anything else, such as a float array, raises
    ValueError.  Zero invariant factors are not reported: the tuple has
    length rank(A).

    Each pivot is the entry of smallest absolute value, ties broken by the
    Markowitz fill (row length - 1) * (column length - 1).  The candidates
    sit in a heap on that key: every write pushes its entry with the key
    it has then, and a pop skips entries that are gone or hold another
    value (a later write pushed those again) and pushes back, with its
    current key, an entry whose fill has changed.  So no pivot search
    reads the whole matrix.  Pivot order changes only the work and the
    size of intermediate entries, never the invariant factors: the
    product of the first k factors is the gcd of the k x k minors, which
    unimodular row and column operations keep.  The unit factors are
    split off before the divisibility chain is enforced, which then
    runs over the factors > 1 only.
    """
    A = np.asarray(A)
    if A.dtype.kind not in "iub" and A.dtype != object:
        raise ValueError("Smith normal form needs an integer matrix, "
                         f"not dtype {A.dtype}")
    ri, ci = np.nonzero(A)
    try:
        vals = [operator.index(v) for v in A[ri, ci].tolist()]
    except TypeError as exc:
        raise ValueError(f"Smith normal form needs integer entries: {exc}") \
            from None
    mat: dict[tuple[int, int], int] = dict(zip(zip(ri.tolist(), ci.tolist()),
                                               vals))
    rows: dict[int, set[int]] = collections.defaultdict(set)
    cols: dict[int, set[int]] = collections.defaultdict(set)
    for (i, j) in mat:
        rows[i].add(j)
        cols[j].add(i)

    def fill(i: int, j: int) -> int:
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    heap = [(abs(v), fill(i, j), i, j) for (i, j), v in mat.items()]
    heapq.heapify(heap)

    def set_entry(i: int, j: int, v: int) -> None:
        if v:
            if (i, j) not in mat:
                rows[i].add(j)
                cols[j].add(i)
            mat[(i, j)] = v
            heapq.heappush(heap, (abs(v), fill(i, j), i, j))
        elif (i, j) in mat:
            del mat[(i, j)]
            rows[i].discard(j)
            cols[j].discard(i)

    def add_row(dst: int, src: int, f: int) -> None:
        if f == 0:
            return
        for j in list(rows[src]):
            set_entry(dst, j, mat.get((dst, j), 0) + f * mat[(src, j)])

    def add_col(dst: int, src: int, f: int) -> None:
        if f == 0:
            return
        for i in list(cols[src]):
            set_entry(i, dst, mat.get((i, dst), 0) + f * mat[(i, src)])

    diags: list[int] = []
    while mat:
        while True:
            a, f, pi, pj = heapq.heappop(heap)
            v = mat.get((pi, pj))
            if v is None or abs(v) != a:
                continue
            now = fill(pi, pj)
            if now == f:
                break
            heapq.heappush(heap, (a, now, pi, pj))
        # make the pivot divide its whole row and column, then clear
        while True:
            pv = mat[(pi, pj)]
            moved = False
            for i in list(cols[pj]):
                if i == pi:
                    continue
                q = mat[(i, pj)] // pv
                add_row(i, pi, -q)
                if (i, pj) in mat:
                    # remainder smaller than pivot: swap roles
                    pi = i
                    moved = True
                    break
            if moved:
                continue
            pv = mat[(pi, pj)]
            for j in list(rows[pi]):
                if j == pj:
                    continue
                q = mat[(pi, j)] // pv
                add_col(j, pj, -q)
                if (pi, j) in mat:
                    pj = j
                    moved = True
                    break
            if not moved:
                break
        pv = mat[(pi, pj)]
        # pivot row/col now only contain the pivot itself, unless some
        # remainder reappeared; loop above guarantees clean state
        assert rows[pi] == {pj} and cols[pj] == {pi}
        diags.append(abs(pv))
        set_entry(pi, pj, 0)

    # enforce the divisibility chain among the factors > 1; a unit
    # factor divides every other one already
    units = diags.count(1)
    diags = [d for d in diags if d > 1]
    changed = True
    while changed:
        changed = False
        for a in range(len(diags)):
            for b in range(a + 1, len(diags)):
                if diags[b] % diags[a]:
                    g = math.gcd(diags[a], diags[b])
                    lcm = diags[a] * diags[b] // g
                    diags[a], diags[b] = g, lcm
                    changed = True
    diags.sort()
    return (1,) * units + tuple(diags)
