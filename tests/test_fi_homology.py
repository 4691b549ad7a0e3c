import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fistab import exactlin, fi_core, fi_homology

primes = st.sampled_from([2, 3, 5])


# degree bookkeeping ---------------------------------------------------------


def test_degree_of_profile():
    assert fi_homology.degree_of_profile([0, 0, 0]) == -1
    assert fi_homology.degree_of_profile([1, 0, 2, 0]) == 2


# zeroth and first homology ---------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(primes, st.integers(1, 3), st.integers(4, 6))
def test_induced_generators_concentrated(p, d, N):
    M = fi_core.induced_module(fi_core.fb_trivial(p, d), N)
    table = fi_homology.homology_table(M, 0)
    assert table[0] == [1 if n == d else 0 for n in range(N + 1)]


@settings(max_examples=15, deadline=None)
@given(primes, st.integers(0, 2), st.integers(4, 6))
def test_semi_induced_acyclic(p, d, N):
    # induced modules have no higher homology anywhere in the window
    M = fi_core.induced_module(
        fi_core.fb_direct_sum(fi_core.fb_trivial(p, d),
                              fi_core.fb_regular(p, d + 1)), N)
    table = fi_homology.homology_table(M, 2)
    assert not any(table[1])
    assert not any(table[2])


def test_constant_module_homology():
    M = fi_core.constant_module(3, 6)
    table = fi_homology.homology_table(M, 1)
    assert table[0] == [1, 0, 0, 0, 0, 0, 0]
    assert not any(table[1])


def test_torsion_point_homology():
    # one S_2-trivial generator at level 2 with everything above killed:
    # a relation pushes in at level 3
    M = fi_core.torsion_point_module(2, 2, 6)
    table = fi_homology.homology_table(M, 1)
    assert table[0] == [0, 0, 1, 0, 0, 0, 0]
    assert fi_homology.degree_of_profile(table[1]) == 3


# presentation route vs Koszul route ------------------------------------------


@settings(max_examples=25, deadline=None)
@given(primes, st.integers(0, 500))
def test_presentation_matches_koszul(p, seed):
    M = fi_core.random_presented(p, 6, 1 + seed % 2, 2 + seed % 2, seed)
    h0, h1 = fi_homology.presentation_profiles(M)
    table = fi_homology.homology_table(M, 1)
    assert h0 == table[0]
    assert h1 == table[1]


@settings(max_examples=25, deadline=None)
@given(primes, st.sampled_from(["kernel", "shifted", "derivative"]),
       st.integers(0, 500))
def test_presentation_h0_matches_koszul_on_derived_windows(p, kind, seed):
    # the span closure against the Koszul H_0 on windows that are not
    # given by a presentation
    M = random_window(kind, p, seed)
    h0, _ = fi_homology.presentation_profiles(M)
    assert h0 == fi_homology.homology_table(M, 0)[0]


def test_presentation_level_edge_cases():
    M = fi_core.torsion_point_module(3, 1, 4)
    h0, h1 = fi_homology.presentation_profiles(M)
    assert h0[0] == M.dims[0]
    # level 1: relations are exactly the kernel of the structure map
    # out of level 0
    K = np.asarray(M.phi[1])
    rank = np.linalg.matrix_rank(K) if K.size else 0
    assert h1[1] == M.dims[0] - rank


def test_relation_map_blocks_are_insertion_maps():
    # every block of the relation map (oracle_relation_map, below) is the
    # insertion map missing x - (x > y); the coset permutation is
    # recomputed here from the representative h_{x,y} and the inverse of
    # tau_y
    cases = 0
    for n in range(2, 10):
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                h = [z for z in range(n) if z not in (x, y)] + [x, y]
                tau = fi_core.insertion_permutation(n - 1, y)
                ti = [0] * n
                for i, z in enumerate(tau):
                    ti[z] = i
                wperm = tuple(ti[h[i]] for i in range(n - 1))
                assert wperm == fi_core.insertion_permutation(n - 2, x - (x > y))
                cases += 1
    assert cases == 240


def test_presentation_consistency_guard():
    M = fi_core.free_module(2, 1, 5)
    # corrupting an action matrix must either fail validation or trip the
    # H_0 cross-check
    M.act[3][0] = np.eye(3, dtype=np.int64)[[0, 1, 2]]
    bad_validate = bool(fi_core.validate(M))
    tripped = False
    try:
        fi_homology.presentation_degrees(M)
    except fi_homology.InternalConsistencyError:
        tripped = True
    assert bad_validate or tripped


def test_presentation_h0_catches_bad_insertion_maps():
    # zero insertion maps out of level 2 corrupt only the Koszul route;
    # the span closure reads phi and the s_i, so the two H_0 rows differ
    def build():
        return fi_core.random_presented(3, 6, 1, 2, 5)

    assert fi_homology.presentation_degrees(build()) == (1, 2)
    M = build()
    M.cache[("cols", 2)] = [exactlin.dense_to_columns(
        np.zeros((M.dims[3], M.dims[2]), dtype=np.int64)) for _ in range(3)]
    with pytest.raises(fi_homology.InternalConsistencyError):
        fi_homology.presentation_degrees(M)


# invariants -------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(primes, st.integers(0, 3))
def test_free_module_invariants(p, m):
    M = fi_core.free_module(p, m, 7)
    inv = fi_homology.invariants(M)
    assert inv.t0 == (m if m > 0 else 0)
    assert inv.t1 == -1
    assert inv.delta == m and inv.delta_certified
    assert inv.hmax == -1 and inv.hmax_certified
    assert inv.semi_induced


@pytest.mark.parametrize("seed", [3, 8])
def test_invariants_repeatable(seed):
    # a second call reads the window's cached ranks; a fresh identical
    # window recomputes them
    def build():
        return fi_core.random_presented(2 + seed % 2, 6, 2, 3, seed)

    M = build()
    first = fi_homology.invariants(M)
    assert fi_homology.invariants(M) == first
    fresh = build()
    assert fi_homology.invariants(fresh) == first
    assert fi_homology.homology_table(M, 2) == fi_homology.homology_table(fresh, 2)
    assert (fi_homology.presentation_profiles(M)
            == fi_homology.presentation_profiles(fresh))


def test_invariants_report_is_kept_and_frozen():
    # a window shared by several callers hands each the one cached report,
    # which none of them can change
    M = fi_core.random_presented(3, 5, 1, 2, 9)
    rep = fi_homology.invariants(M)
    assert M.cache["invariants"] is rep
    assert fi_homology.invariants(M) is rep
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.t0 = rep.t0 + 1


def test_invariants_releases_shifted_windows(monkeypatch):
    # the shift route reads M's own Koszul reductions, so the only shifted
    # windows built are those inside the derivative route, one each, and
    # none of them outlives the call
    made, derivatives = [], []
    single_shift = fi_core._shift_once
    single_derivative = fi_core._derivative_once

    def recording(M):
        S = single_shift(M)
        made.append(weakref.ref(S))
        return S

    def counting(M):
        derivatives.append(M.N)
        return single_derivative(M)

    monkeypatch.setattr(fi_core, "_shift_once", recording)
    monkeypatch.setattr(fi_core, "_derivative_once", counting)
    # stable degree 2: the derivative route takes three derivatives
    M = fi_core.free_module(3, 2, 6)
    # with the collector off, only reference counting can free them, so a
    # reference cycle would keep them alive too
    gc.disable()
    try:
        fi_homology.invariants(M)
        alive = [r for r in made if r() is not None]
    finally:
        gc.enable()
    assert len(made) == len(derivatives) >= 2
    assert alive == []


def test_torsion_module_invariants():
    M = fi_core.torsion_point_module(2, 2, 7)
    inv = fi_homology.invariants(M)
    assert inv.delta == -1 and inv.delta_certified
    assert inv.hmax == 2
    assert inv.torsion_degree == 2
    assert not inv.semi_induced


def test_shift_makes_torsion_semi_induced():
    M = fi_core.torsion_point_module(2, 2, 7)
    inv = fi_homology.invariants(M)
    S = fi_core.shift(M, inv.hmax + 1)
    assert fi_homology.is_semi_induced_window(S)
    S_less = fi_core.shift(M, inv.hmax)
    assert not fi_homology.is_semi_induced_window(S_less)


@settings(max_examples=15, deadline=None)
@given(primes, st.integers(0, 300))
def test_derivative_drops_stable_degree(p, seed):
    M = fi_core.random_presented(p, 7, 2, 3, seed)
    inv = fi_homology.stable_degree(M)
    dinv = fi_homology.stable_degree(fi_core.derivative(M))
    if inv.certified and dinv.certified:
        assert dinv.delta == max(inv.delta - 1, -1)


# polynomial fit ---------------------------------------------------------------


def test_fit_free_module():
    M = fi_core.free_module(3, 2, 7)
    inv = fi_homology.invariants(M)
    fit = fi_homology.polynomial_fit(M, inv.delta, inv.hmax)
    assert fit.onset == 0
    assert [fit.value(n) for n in range(8)] == M.dims
    # n(n-1) in the binomial basis is 2*C(n,2)
    assert list(fit.coeffs) == [0, 0, 2]


def test_fit_with_late_onset():
    M = fi_core.direct_sum(fi_core.torsion_point_module(2, 2, 7),
                           fi_core.constant_module(2, 7))
    inv = fi_homology.invariants(M)
    fit = fi_homology.polynomial_fit(M, inv.delta, inv.hmax)
    assert fit.onset == 3
    assert [fit.value(n) for n in range(3, 8)] == M.dims[3:]


def test_fit_error_when_profile_not_polynomial():
    # dims 1,2,1,... of the truncated point module never fit a degree-(-1)
    # or degree-0 polynomial with early onset
    M = fi_core.torsion_point_module(2, 1, 6)
    with pytest.raises(fi_homology.FitError):
        fi_homology.polynomial_fit(M, -1, -1)


# hyper homology ---------------------------------------------------------------


def test_module_as_complex_matches_plain_homology():
    M = fi_core.random_presented(3, 6, 1, 2, 17)
    C = fi_homology.FIComplexWindow(M.p, M.N, 0, 0, [M], {})
    table = fi_homology.hyper_homology_table(C, 2)
    plain = fi_homology.homology_table(M, 2)
    for k in range(3):
        assert table[k] == plain[k]


@settings(max_examples=10, deadline=None)
@given(primes, st.integers(0, 200))
def test_two_term_complex_euler(p, seed):
    f = fi_core.random_induced_map(p, 6, 1, 2, seed)
    C = fi_homology.two_term_complex(f)
    assert C.validate() == []
    table = fi_homology.hyper_homology_table(C, 2)
    ker = fi_core.submodule_from_kernels(f)
    cok = fi_core.cokernel_module(f)
    k0 = fi_homology.homology_table(cok, 2)
    # degree 0 of the hyper table is the FI-homology of H_0 of the complex
    assert table[0] == k0[0]


@settings(max_examples=10, deadline=None)
@given(primes, st.integers(0, 200))
def test_shift_monotone_t_degrees(p, seed):
    f = fi_core.random_induced_map(p, 6, 1 + seed % 2, 2, seed)
    C = fi_homology.two_term_complex(f)
    t = fi_homology.hyper_t_degrees(C, 1)
    tS = fi_homology.hyper_t_degrees(C, 1, s=1)
    for k in t:
        assert tS[k] <= t[k]


def test_hyper_boundary_squares_to_zero():
    f = fi_core.random_induced_map(2, 5, 1, 2, 3)
    C = fi_homology.two_term_complex(f)
    for n in range(6):
        for m in range(1, 4):
            d1 = fi_homology.hyper_boundary(C, n, m)
            d2 = fi_homology.hyper_boundary(C, n, m + 1)
            if d1.size and d2.size:
                assert not (d1 @ d2 % 2).any()


# stable and local degree certification ----------------------------------------


def test_stable_degree_routes_agree_on_induced():
    M = fi_core.induced_module(fi_core.fb_trivial(2, 2), 7)
    res = fi_homology.stable_degree(M)
    assert res.delta == 2 and res.certified
    assert res.derivative_route == 2
    assert res.shift_route[0] == 2 and res.plateau >= 2


def test_local_degree_of_induced():
    M = fi_core.induced_module(fi_core.fb_regular(3, 2), 7)
    res = fi_homology.local_degree(M, 2)
    assert res.hmax == -1 and res.certified


# sparse Koszul columns and the totalizer against the dense assemblies ---------


def colex(n, k):
    """The k-subsets of [n] in colex order: sorted by their reversals."""
    return sorted(itertools.combinations(range(n), k), key=lambda R: R[::-1])


def column_loop_rank(D, p):
    """Rank by the numpy column loop of `rref_modp`, called directly, so
    that at p <= 3 it shares no kernel with the packed Koszul ranks."""
    return len(exactlin._rref_columns(D, p)[1])


def oracle_koszul_boundary(M, n, k):
    """Dense block assembly of C_k -> C_{k-1}, subsets in colex order: the
    face removing the j-th smallest r of R is the insertion map missing
    r - j, sign (-1)^j."""
    p = M.p
    if k < 1 or k > n:
        rows = math.comb(n, k - 1) * M.dims[n - k + 1] if k == n + 1 else 0
        return np.zeros((rows, 0), dtype=np.int64)
    m = n - k
    src = colex(n, k)
    tgt = {R: i for i, R in enumerate(colex(n, k - 1))}
    ds, dt = M.dims[m], M.dims[m + 1]
    D = np.zeros((len(tgt) * dt, len(src) * ds), dtype=np.int64)
    for c, R in enumerate(src):
        for j, r in enumerate(R):
            i0 = tgt[R[:j] + R[j + 1:]] * dt
            D[i0:i0 + dt, c * ds:(c + 1) * ds] = (
                (-1) ** j * M.insertion_map(m, r - j) % p)
    return D


def oracle_hyper_boundary(C, n, m):
    """Dense T_m -> T_{m-1}: blocks (j, r) ordered by j, the Koszul
    boundary within a degree and id (x) d with sign (-1)^r across."""
    p = C.p

    def offsets(t):
        out, off = {}, 0
        for j in range(C.jmin, C.jmax + 1):
            if 0 <= t - j <= n:
                out[j, t - j] = off
                off += math.comb(n, t - j) * C.module(j).dims[n - t + j]
        return out, off

    src, ncols = offsets(m)
    tgt, nrows = offsets(m - 1)
    D = np.zeros((nrows, ncols), dtype=np.int64)
    for (j, r), c0 in src.items():
        w = math.comb(n, r) * C.module(j).dims[n - r]
        if (j, r - 1) in tgt:
            K = oracle_koszul_boundary(C.module(j), n, r)
            i0 = tgt[j, r - 1]
            D[i0:i0 + K.shape[0], c0:c0 + w] = K
        if (j - 1, r) in tgt:
            blk = np.kron(np.eye(math.comb(n, r), dtype=np.int64),
                          C.diffs[j][n - r]) * (-1) ** r % p
            i0 = tgt[j - 1, r]
            D[i0:i0 + blk.shape[0], c0:c0 + w] = blk
    return D


def random_window(kind, p, seed):
    gen, rel = 1 + seed % 2, 2 + seed % 2
    if kind == "kernel":
        return fi_core.submodule_from_kernels(
            fi_core.random_induced_map(p, 5, gen, rel, seed))
    M = fi_core.random_presented(p, 5 + (kind != "presented"), gen, rel, seed)
    if kind == "shifted":
        return fi_core.shift(M)
    if kind == "derivative":
        return fi_core.derivative(M)
    return M


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]),
       st.sampled_from(["presented", "kernel", "shifted", "derivative"]),
       st.integers(0, 500))
def test_koszul_matches_dense_oracle(p, kind, seed):
    M = random_window(kind, p, seed)
    for n in range(M.N + 1):
        for k in range(n + 2):
            D = oracle_koszul_boundary(M, n, k)
            assert np.array_equal(fi_homology.koszul_boundary(M, n, k), D)
            assert fi_homology.koszul_rank(M, n, k) == column_loop_rank(D, p)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]),
       st.sampled_from(["presented", "kernel", "shifted", "derivative"]),
       st.integers(0, 500))
def test_koszul_boundary_squares_to_zero(p, kind, seed):
    M = random_window(kind, p, seed)
    for n in range(M.N + 1):
        for k in range(2, n + 2):
            assert not exactlin.matmul_modp(
                fi_homology.koszul_boundary(M, n, k - 1),
                fi_homology.koszul_boundary(M, n, k), p).any()


def oracle_relation_map(M, n):
    """The relation map of the induction presentation at level n >= 2.

    Source basis: ordered pairs (a, b) of distinct points of [n], tensored
    with level n-2.  Pair (x, y) pushes level n-2 into copy y of level n-1
    by the insertion map missing x - (x > y); the pair's column is that
    push minus the push of (b, a).
    """
    p = M.p
    w2, w1 = M.dims[n - 2], M.dims[n - 1]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    D = np.zeros((n * w1, len(pairs) * w2), dtype=np.int64)
    for c, (a, b) in enumerate(pairs):
        for sign, (x, y) in ((1, (a, b)), (-1, (b, a))):
            blk = D[y * w1:(y + 1) * w1, c * w2:(c + 1) * w2]
            blk[:] = (blk + sign * M.insertion_map(n - 2, x - (x > y))) % p
    return D, pairs


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]),
       st.sampled_from(["presented", "kernel", "derivative"]),
       st.integers(0, 500))
def test_relation_map_is_doubled_koszul_d2(p, kind, seed):
    # column (a, b) of the relation map is +/- column {a, b} of the Koszul
    # d_2, so its rank and its kernel check repeat the Koszul rank table
    M = random_window(kind, p, seed)
    for n in range(2, M.N + 1):
        D, pairs = oracle_relation_map(M, n)
        K = fi_homology.koszul_boundary(M, n, 2)
        index = {R: i for i, R in enumerate(colex(n, 2))}
        w2 = M.dims[n - 2]
        for c, (a, b) in enumerate(pairs):
            i = index[min(a, b), max(a, b)]
            expect = K[:, i * w2:(i + 1) * w2] * (1 if a < b else -1) % p
            assert np.array_equal(D[:, c * w2:(c + 1) * w2], expect)


def built_shift(C, s):
    """Sigma^s C built as a new complex: each module shifted, and each
    differential at level n taken from level n + s."""
    mods = [fi_core.shift(C.module(j), s) for j in range(C.jmin, C.jmax + 1)]
    diffs = {j: [C.diffs[j][n + s] for n in range(C.N - s + 1)]
             for j in C.diffs}
    return fi_homology.FIComplexWindow(C.p, C.N - s, C.jmin, C.jmax, mods,
                                       diffs)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([2, 3]), st.booleans(), st.integers(0, 500))
def test_hyper_matches_dense_oracle(p, shifted, seed):
    # the shifted case reads Sigma C off C and compares it with the oracle
    # of the built shift
    f = fi_core.random_induced_map(p, 5, 1 + seed % 2, 2 + seed % 2, seed)
    C = fi_homology.two_term_complex(f)
    s = int(shifted)
    B = built_shift(C, s)
    k_max = 2
    want = {k: [0] * (B.N + 1) for k in range(B.jmin, k_max + 1)}
    for n in range(B.N + 1):
        dims, ranks = {}, {}
        for m in range(B.jmin, k_max + 2):
            D = oracle_hyper_boundary(B, n, m)
            assert np.array_equal(fi_homology.hyper_boundary(C, n, m, s), D)
            dims[m], ranks[m] = D.shape[1], column_loop_rank(D, p)
        for k in range(B.jmin, k_max + 1):
            want[k][n] = dims[k] - ranks[k] - ranks[k + 1]
    assert fi_homology.hyper_homology_table(C, k_max, s) == want


# shifts read off the parent window's Koszul reductions -------------------------


@settings(max_examples=20, deadline=None)
@given(primes, st.sampled_from(["presented", "kernel", "derivative"]),
       st.integers(0, 500))
def test_shift_homology_matches_built_shift(p, kind, seed):
    # Sigma^s M's complex is the leading block of M's, so reading its
    # ranks off M's reductions gives what the built shift gives
    M = random_window(kind, p, seed)
    for s in range(M.N + 1):
        S = fi_core.shift(M, s)
        assert (fi_homology.homology_table(M, M.N - s, s)
                == fi_homology.homology_table(S, S.N))
        assert (fi_homology.is_semi_induced_window(M, s)
                == fi_homology.is_semi_induced_window(S))
    with pytest.raises(fi_core.WindowError):
        fi_homology.homology_at(M, 1, 0, M.N)
    with pytest.raises(fi_core.WindowError):
        fi_homology.homology_at(M, 0, 0, -1)


@settings(max_examples=15, deadline=None)
@given(primes, st.integers(0, 500))
def test_shift_hyper_homology_matches_built_shift(p, seed):
    # Sigma^s C is read off C's Koszul columns and differentials; building
    # it module by module gives the same table
    f = fi_core.random_induced_map(p, 5, 1 + seed % 2, 2 + seed % 2, seed)
    C = fi_homology.two_term_complex(f)
    for s in (1, 2):
        B = built_shift(C, s)
        assert B.validate() == []
        assert (fi_homology.hyper_homology_table(C, 2, s)
                == fi_homology.hyper_homology_table(B, 2))
    for s in (-1, C.N + 1):
        with pytest.raises(fi_core.WindowError):
            fi_homology.hyper_homology_table(C, 2, s)
    with pytest.raises(fi_core.WindowError):
        fi_homology.hyper_boundary(C, 1, 1, C.N)


# invariant report fields in asdict order, then the stable degree's shift
# route and plateau and the local degree's shifts tried, as computed by
# building every shifted window
PINNED_INVARIANTS = [
    (lambda: fi_core.random_presented(2, 7, 1, 2, 11),
     (1, 2, -1, True, 1, True, 1, False), [1, 0, -1, -1, -1, -1, -1], 5, 3),
    (lambda: fi_core.random_presented(3, 7, 2, 3, 12),
     (2, 3, 0, True, 2, True, 2, False), [2, 1, 0, 0, 0, 0, 0], 5, 4),
    (lambda: fi_core.derivative(fi_core.random_presented(5, 7, 2, 3, 13)),
     (1, 2, -1, True, 1, True, 1, False), [1, 0, -1, -1, -1, -1], 4, 3),
    (lambda: fi_core.submodule_from_kernels(
        fi_core.random_induced_map(3, 6, 1, 2, 14)),
     (3, 4, 2, True, 0, True, -1, False), [3, 2, 2, 2, 2, 1], 3, 2),
    (lambda: fi_core.cokernel_module(fi_core.random_induced_map(2, 6, 2, 3, 15)),
     (2, 3, 2, True, 2, True, 2, False), [2, 2, 2, 2, 2, 1], 4, 4),
    (lambda: fi_core.torsion_point_module(3, 3, 7),
     (3, 4, -1, True, 3, True, 3, False), [3, 2, 1, 0, -1, -1, -1], 3, 5),
]


@pytest.mark.parametrize("case", range(len(PINNED_INVARIANTS)))
def test_invariants_pinned(case):
    build, report, shift_route, plateau, shifts_tried = PINNED_INVARIANTS[case]
    assert tuple(fi_homology.invariants(build()).asdict().values()) == report
    M = build()
    sd = fi_homology.stable_degree(M)
    assert (sd.shift_route, sd.plateau) == (shift_route, plateau)
    assert fi_homology.local_degree(M, sd.delta).shifts_tried == shifts_tried
