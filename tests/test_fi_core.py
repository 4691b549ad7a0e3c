import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fistab import exactlin, fi_core, fi_homology

primes = st.sampled_from([2, 3, 5])


# permutation utilities -------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(5))))
def test_adjacent_factorization_reconstructs(sigma):
    sigma = tuple(sigma)
    n = len(sigma)
    cur = tuple(range(n))
    for i in fi_core.adjacent_factorization(sigma):
        cur = fi_core.transpose(i, cur)  # s_i o cur
    assert cur == sigma


def test_insertion_permutation_values():
    assert fi_core.insertion_permutation(3, 0) == (1, 2, 3, 0)
    assert fi_core.insertion_permutation(3, 3) == (0, 1, 2, 3)
    assert fi_core.insertion_permutation(2, 1) == (0, 2, 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_insertion_permutation_is_order_embedding(m, t):
    if t > m:
        t = m
    sigma = fi_core.insertion_permutation(m, t)
    # first m slots keep their relative order and miss t
    image = [sigma[i] for i in range(m)]
    assert image == sorted(image)
    assert t not in image
    assert sigma[m] == t


# constructors and validation --------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(primes, st.integers(2, 5))
def test_constant_module_valid(p, N):
    M = fi_core.constant_module(p, N)
    assert fi_core.validate(M) == []
    assert M.dims == [1] * (N + 1)


@settings(max_examples=20, deadline=None)
@given(primes, st.integers(0, 3), st.integers(3, 5))
def test_free_module_valid_and_binomial_dims(p, m, N):
    M = fi_core.free_module(p, m, N)
    assert fi_core.validate(M) == []
    want = [math.comb(n, m) * math.factorial(m) for n in range(N + 1)]
    assert M.dims == want


@settings(max_examples=20, deadline=None)
@given(primes, st.integers(1, 3), st.integers(3, 5))
def test_induced_on_trivial_dims(p, d, N):
    M = fi_core.induced_module(fi_core.fb_trivial(p, d), N)
    assert fi_core.validate(M) == []
    assert M.dims == [math.comb(n, d) for n in range(N + 1)]


def test_torsion_point_module():
    M = fi_core.torsion_point_module(3, 2, 5)
    assert fi_core.validate(M) == []
    assert M.dims == [0, 0, 1, 0, 0, 0]


def test_signed_permutation_window_rejects_missing_label():
    # s_0 sends the label "a" of level 2 to "c", which level 2 lacks
    def act(n, i, label):
        return ("c" if label == "a" else label), 1
    with pytest.raises(ValueError, match="'c'"):
        fi_core.signed_permutation_window(3, 3, [[], ["a"], ["a", "b"], []],
                                          act)


def test_induced_module_rejects_non_monomial_block():
    # a valid involution over F_3 with two nonzero entries in its first column
    V = fi_core.fb_zero(3, 2)
    V.dims[2] = 2
    V.trans[2] = [np.array([[1, 0], [1, 2]], dtype=np.int64)]
    assert (V.trans[2][0] @ V.trans[2][0] % 3 == np.eye(2)).all()
    with pytest.raises(ValueError):
        fi_core.induced_module(V, 3)


@pytest.mark.parametrize("fb", [fi_core.fb_trivial, fi_core.fb_regular])
def test_fb_windows_reject_bad_sizes(fb):
    # a window that ends below its degree has no level to hold it
    with pytest.raises(ValueError, match="below the degree"):
        fb(2, 3, 1)
    with pytest.raises(ValueError, match=">= 0"):
        fb(2, -1)
    assert fb(2, 2, 2).dims == fb(2, 2).dims
    assert fb(3, 1, 4).dims[1:] == [1, 0, 0, 0]


def test_validate_catches_broken_involution():
    M = fi_core.free_module(2, 1, 4)
    M.act[2][0] = (M.act[2][0] + 1) % 2
    assert fi_core.validate(M)


def test_validate_catches_broken_equivariance():
    M = fi_core.induced_module(fi_core.fb_trivial(3, 1), 4)
    M.phi[3][0, 0] = (M.phi[3][0, 0] + 1) % 3
    assert fi_core.validate(M)


def test_zero_structure_maps_are_legal():
    # non-injective (even zero) inclusions are allowed: torsion modules
    M = fi_core.torsion_point_module(2, 2, 4)
    assert fi_core.validate(M) == []


P_MAX = 2**31 - 1  # the largest prime modulus the library admits


def _conjugated_window(swaps):
    """The S_3 representation with s_0, s_1 = swaps at level 3, conjugated
    by a random invertible S mod P_MAX, and zero below; and the map that
    conjugates a matrix by S.

    The entries are spread over [0, 2**31), so a product of two of them
    is near 2**62 and int64 sums of a few such products wrap.
    """
    d = swaps[0].shape[0]
    rng = np.random.default_rng(5)
    S = rng.integers(0, P_MAX, size=(d, d))
    assert exactlin.rank_modp(S, P_MAX) == d
    S_inv = exactlin.solve_modp(S, np.eye(d, dtype=np.int64), P_MAX)

    def conj(X):
        out = S.astype(object) @ X.astype(object) @ S_inv.astype(object)
        return (out % P_MAX).astype(np.int64)

    dims = [0, 0, 0, d]
    act = [[np.zeros((0, 0), dtype=np.int64)] * max(0, n - 1) for n in range(3)]
    act.append([conj(X) for X in swaps])
    phi = [None] + [np.zeros((dims[n], dims[n - 1]), dtype=np.int64)
                    for n in range(1, 4)]
    return fi_core.FIModuleWindow(P_MAX, 3, dims, act, phi), conj


def test_validate_exact_at_largest_prime():
    # S_3 permuting the coordinates of F_p^3
    I3 = np.eye(3, dtype=np.int64)
    M, _ = _conjugated_window([I3[[1, 0, 2]], I3[[0, 2, 1]]])
    assert fi_core.validate(M) == []
    M.act[3][1] = M.act[3][1].copy()
    M.act[3][1][0, 0] = (M.act[3][1][0, 0] + 1) % P_MAX
    assert fi_core.validate(M)


def test_map_and_complex_checks_exact_at_largest_prime():
    # S_3 on its group algebra; M --f--> M --g--> M with f = J, g = J - 6I
    # at level 3 (J all ones, conjugated by S): both commute with every
    # permutation matrix, and g f = 6J - 6J = 0
    M, conj = _conjugated_window(fi_core.fb_regular(P_MAX, 3).trans[3])
    J = np.ones((6, 6), dtype=np.int64)
    zero = [np.zeros((0, 0), dtype=np.int64)] * 3
    f = zero + [conj(J)]
    g = zero + [conj(J - 6 * np.eye(6, dtype=np.int64))]
    assert fi_core.FIMapWindow(M, M, f).validate() == []
    C = fi_homology.FIComplexWindow(P_MAX, 3, 0, 2, [M, M, M], {1: g, 2: f})
    assert C.validate() == []
    C.diffs[1] = f
    assert C.validate() == ["d^2 != 0 at degree 2, level 3"]


# the induced action in detail -------------------------------------------------


def test_induced_transposition_moves_subsets():
    # level 2 of the induced module on the degree-1 trivial representation:
    # basis subsets {0}, {1}; the transposition swaps them
    M = fi_core.induced_module(fi_core.fb_trivial(2, 1), 3)
    basis2 = fi_core.induced_basis(fi_core.fb_trivial(2, 1), 2)
    subsets = [b[0] for b in basis2]
    assert subsets == [(0,), (1,)]
    assert (M.act[2][0] == np.array([[0, 1], [1, 0]])).all()


def test_induced_internal_twist():
    # on the regular representation in degree 2, a transposition inside
    # the subset acts by the internal group algebra twist, not only by
    # relabeling
    V = fb = fi_core.fb_regular(3, 2)
    M = fi_core.induced_module(V, 2)
    A = M.act[2][0]
    assert not (A == np.eye(A.shape[0], dtype=np.int64)).all()
    assert ((A @ A) % 3 == np.eye(A.shape[0], dtype=np.int64)).all()


@settings(max_examples=15, deadline=None)
@given(primes, st.integers(1, 2), st.integers(3, 5))
def test_insertion_maps_commute_with_phi_chain(p, d, N):
    M = fi_core.induced_module(fi_core.fb_regular(p, d), N)
    for m in range(1, N):
        ins = M.insertion_map(m, 0)
        assert ins.shape == (M.dims[m + 1], M.dims[m])
        # inserting at the top slot is the plain structure map
        top = M.insertion_map(m, m)
        assert (top == M.phi[m + 1]).all()


def _window(kind: str, p: int, seed: int) -> fi_core.FIModuleWindow:
    if kind == "induced":
        V = fi_core.fb_direct_sum(fi_core.fb_trivial(p, seed % 3),
                                  fi_core.fb_regular(p, 2))
        return fi_core.induced_module(V, 5)
    M = fi_core.random_presented(p, 6, 1 + seed % 2, 2 + seed % 2, seed)
    if kind == "shifted":
        return fi_core.shift(M, 1 + seed % 2)
    if kind == "derivative":
        return fi_core.derivative(M)
    return M


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["induced", "presented", "shifted", "derivative"]),
       primes, st.integers(0, 500))
def test_cached_insertion_maps_match_permutation_route(kind, p, seed):
    # the recursion ins(m, t) = s_t ins(m, t+1) against the product over an
    # adjacent factorization of the insertion permutation; asked for from
    # t = 0 up, each map is built afresh, and from t = m down each is one
    # product on the last, which the window lets go of at t = 0
    M = _window(kind, p, seed)
    for m in range(M.N):
        for t in list(range(m + 1)) + list(range(m, -1, -1)):
            sigma = fi_core.insertion_permutation(m, t)
            want = fi_core.matrix_of_permutation(
                M.act[m + 1], sigma, p, M.dims[m + 1]) @ M.phi[m + 1] % p
            assert (M.insertion_map(m, t) == want).all()
        assert "ins" not in M.cache


def test_insertion_map_rejects_points_outside_the_level():
    # an injection [m] -> [m+1] misses one of 0..m
    M = fi_core.free_module(3, 1, 4)
    held = M.insertion_map(2, 2)
    for t in (-1, 3, 5):
        with pytest.raises(ValueError):
            M.insertion_map(2, t)
    # the refusal leaves the last map held for the next step down
    assert M.cache["ins"][:2] == (2, 2) and M.cache["ins"][2] is held


# direct sums, maps, sub/quotient ----------------------------------------------


@settings(max_examples=15, deadline=None)
@given(primes, st.integers(3, 5))
def test_direct_sum_valid(p, N):
    A = fi_core.induced_module(fi_core.fb_trivial(p, 1), N)
    B = fi_core.free_module(p, 2, N)
    S = fi_core.direct_sum(A, B)
    assert fi_core.validate(S) == []
    assert S.dims == [a + b for a, b in zip(A.dims, B.dims)]


@settings(max_examples=12, deadline=None)
@given(primes, st.integers(4, 6), st.integers(0, 400))
def test_random_induced_map_is_fi_map(p, N, seed):
    f = fi_core.random_induced_map(p, N, 1, 2, seed)
    assert f.validate() == []


def test_random_induced_map_relations_beyond_window():
    # relations in degree 4 do not reach a window of size 2: the map is
    # zero there, and the presented module is its target
    f = fi_core.random_induced_map(2, 2, 1, 4, 1)
    assert f.validate() == [] and f.source.dims == [0, 0, 0]
    assert [F.shape for F in f.mats] == [(d, 0) for d in f.target.dims]


@settings(max_examples=12, deadline=None)
@given(primes, st.integers(4, 6), st.integers(0, 400))
def test_kernel_cokernel_are_modules(p, N, seed):
    f = fi_core.random_induced_map(p, N, 1, 2, seed)
    ker = fi_core.submodule_from_kernels(f)
    cok = fi_core.cokernel_module(f)
    assert fi_core.validate(ker) == []
    assert fi_core.validate(cok) == []
    for n in range(N + 1):
        # rank-nullity through the map
        assert ker.dims[n] + (f.target.dims[n] - cok.dims[n]) \
            == f.source.dims[n]


# kernels, quotients and torsion against the elimination and product routes ------


def oracle_kernel(f):
    """(dims, act, phi) of the kernel window, each coordinate matrix found
    by `solve_modp` on the kernel basis."""
    M, p = f.source, f.source.p
    kers = [exactlin.nullspace_modp(F, p) for F in f.mats]
    act = [[exactlin.solve_modp(kers[n], exactlin.matmul_modp(A, kers[n], p),
                                p) for A in M.act[n]] for n in range(M.N + 1)]
    phi = [None] + [exactlin.solve_modp(
        kers[n], exactlin.matmul_modp(M.phi[n], kers[n - 1], p), p)
        for n in range(1, M.N + 1)]
    return [K.shape[1] for K in kers], act, phi


def oracle_quotient(M, images):
    """(dims, act, phi) of the quotient window, each matrix the product
    proj @ X @ section with the section I[:, free] formed in full."""
    p = M.p
    projs, secs = [], []
    for n in range(M.N + 1):
        proj, free = exactlin.colspace_complement_projection(images[n], p)
        projs.append(proj)
        secs.append(np.eye(M.dims[n], dtype=np.int64)[:, free])

    def through(n, X, m):
        return exactlin.matmul_modp(
            projs[n], exactlin.matmul_modp(X, secs[m], p), p)

    act = [[through(n, A, n) for A in M.act[n]] for n in range(M.N + 1)]
    phi = [None] + [through(n, M.phi[n], n - 1) for n in range(1, M.N + 1)]
    return [P.shape[0] for P in projs], act, phi


def oracle_torsion(M):
    """observed_torsion with composite_phi formed afresh at every level."""
    h0, all_torsion = -1, True
    for n in range(M.N + 1):
        if M.dims[n]:
            nul = exactlin.nullity_modp(M.composite_phi(n, M.N), M.p)
            h0 = n if nul else h0
            all_torsion = all_torsion and nul == M.dims[n]
    return all_torsion, h0


def as_lists(dims, act, phi):
    return (dims, [[A.tolist() for A in mats] for mats in act],
            [None] + [P.tolist() for P in phi[1:]])


@settings(max_examples=40, deadline=None)
@given(primes, st.integers(2, 6), st.integers(0, 2), st.integers(1, 3),
       st.integers(0, 10**6))
def test_kernel_quotient_torsion_match_oracles(p, N, gen, rel, seed):
    rel = min(rel, N)
    f = fi_core.random_induced_map(p, N, gen, rel, seed)
    ker = fi_core.submodule_from_kernels(f)
    assert as_lists(ker.dims, ker.act, ker.phi) == as_lists(*oracle_kernel(f))
    cok = fi_core.cokernel_module(f)
    assert as_lists(cok.dims, cok.act, cok.phi) \
        == as_lists(*oracle_quotient(f.target, f.mats))
    S = fi_core._shift_once(f.target)
    D = fi_core.derivative(f.target)
    assert as_lists(D.dims, D.act, D.phi) == as_lists(*oracle_quotient(
        S, [f.target.phi[n + 1] for n in range(S.N + 1)]))
    for M in (ker, cok, D, f.source, f.target):
        assert fi_core.observed_torsion(M) == oracle_torsion(M)


def test_kernel_of_a_non_equivariant_map_raises():
    # the kernel of each level's map is the line of basis vector 0, which
    # s_0 moves off it: coordinates in the kernel basis do not exist
    p, N = 3, 3
    M = fi_core.free_module(p, 1, N)
    mats = [np.eye(M.dims[n], dtype=np.int64)[1:] for n in range(N + 1)]
    f = fi_core.FIMapWindow(M, M, mats)
    with pytest.raises(ValueError):
        oracle_kernel(f)
    with pytest.raises(ValueError):
        fi_core.submodule_from_kernels(f)


# shift and derivative -----------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(primes, st.integers(1, 2), st.integers(4, 6))
def test_shift_of_induced_dims(p, d, N):
    M = fi_core.induced_module(fi_core.fb_trivial(p, d), N)
    S = fi_core.shift(M)
    assert fi_core.validate(S) == []
    assert S.dims == [M.dims[n + 1] for n in range(N)]


@settings(max_examples=12, deadline=None)
@given(primes, st.integers(1, 2), st.integers(4, 6))
def test_derivative_of_induced_drops_degree(p, d, N):
    # the derivative of the induced module on the degree-d trivial
    # representation is induced on degree d-1, up to dimension count
    M = fi_core.induced_module(fi_core.fb_trivial(p, d), N)
    D = fi_core.derivative(M)
    assert fi_core.validate(D) == []
    want = [math.comb(n, d - 1) for n in range(N)]
    assert D.dims == want


def test_derivative_of_constant_is_zero():
    M = fi_core.constant_module(3, 5)
    D = fi_core.derivative(M)
    assert D.dims == [0] * 5


def test_derivative_zero_times_leaves_the_window_alone():
    # a window may be shared, so taking no derivative must not rename it
    M = fi_core.random_presented(3, 5, 1, 2, 4)
    name = M.name
    assert fi_core.derivative(M, 0) is M
    assert M.name == name


def test_observed_torsion_on_torsion_module():
    M = fi_core.torsion_point_module(2, 3, 6)
    flag, h0 = fi_core.observed_torsion(M)
    assert flag and h0 == 3


def test_observed_torsion_on_free():
    M = fi_core.free_module(2, 1, 6)
    flag, h0 = fi_core.observed_torsion(M)
    assert not flag and h0 == -1


# serialization -------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(primes, st.integers(0, 300))
def test_roundtrip(p, seed):
    M = fi_core.random_presented(p, 5, 1, 2, seed)
    doc = fi_core.encode(M)
    M2 = fi_core.decode(json.loads(json.dumps(doc)))
    assert M2.p == M.p and M2.N == M.N and M2.dims == M.dims
    for n in range(M.N + 1):
        assert all((a == b).all() for a, b in zip(M.act[n], M2.act[n]))
        if n:
            assert (M.phi[n] == M2.phi[n]).all()


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        fi_core.decode({"kind": "nope"})
    doc = fi_core.encode(fi_core.constant_module(2, 2))
    doc["levels"][1]["inclusion"] = [[1], [1]]
    with pytest.raises(ValueError):
        fi_core.decode(doc)


# the label route of monomial windows ------------------------------------------

LABEL_PRIMES = [2, 3, 5, P_MAX]


def random_monomial_fb(p, top, rng):
    """Trivial, sign and regular pieces in random degrees <= top, each
    level conjugated by a random signed permutation matrix (its inverse
    is its transpose, the signs being +1 or -1)."""
    parts = []
    for m in range(top + 1):
        for kind in rng.integers(0, 3, size=rng.integers(0, 3)):
            V = (fi_core.fb_regular if kind == 2 else fi_core.fb_trivial)(
                p, m, top)
            if kind == 1:
                V.trans[m] = [np.full((1, 1), p - 1)] * max(0, m - 1)
            parts.append(V)
    V = fi_core.fb_direct_sum(*parts) if parts else fi_core.fb_zero(p, top)
    for m, d in enumerate(V.dims):
        Q = np.zeros((d, d), dtype=np.int64)
        Q[rng.permutation(d), np.arange(d)] = rng.choice([1, p - 1], size=d)
        V.trans[m] = [exactlin.matmul_modp(exactlin.matmul_modp(Q, A, p),
                                           Q.T, p) for A in V.trans[m]]
    return V


@st.composite
def monomial_windows(draw):
    """Constant, torsion point, free, induced on a random monomial FB
    window, hk_fi_module (p in {2, 3}, N <= 4), or a direct sum of two."""
    from fistab import congruence
    p = draw(st.sampled_from(LABEL_PRIMES))
    N = draw(st.integers(1, 5))
    kinds = ["constant", "torsion", "free", "induced"]
    if p in (2, 3) and N <= 4:
        kinds.append("hk")

    def one():
        kind = draw(st.sampled_from(kinds))
        if kind == "constant":
            return fi_core.constant_module(p, N)
        if kind == "torsion":
            return fi_core.torsion_point_module(p, draw(st.integers(0, N)), N)
        if kind == "free":
            return fi_core.free_module(p, draw(st.integers(0, min(N, 2))), N)
        if kind == "induced":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            return fi_core.induced_module(random_monomial_fb(p, min(N, 3), rng),
                                          N)
        return congruence.hk_fi_module(draw(st.integers(1, 2)), p, N)

    return fi_core.direct_sum(one(), one()) if draw(st.booleans()) else one()


def plant(M, fault, rng):
    """Flip the sign of one nonzero entry, swap two columns, or move one
    entry of a structure map to another row; every matrix stays monomial.
    Returns False when M has no matrix to plant the fault in."""
    p = M.p
    slots = [(n, i) for n in range(M.N + 1) for i in range(len(M.act[n]))]
    slots += [(n, None) for n in range(1, M.N + 1)]

    def get(slot):
        n, i = slot
        return M.phi[n] if i is None else M.act[n][i]

    def fits(A, i):
        if fault == "sign":
            return A.any()
        if fault == "swap":
            return A.shape[1] >= 2
        return i is None and A.shape[0] >= 2 and A.any()

    slots = [s for s in slots if fits(get(s), s[1])]
    if not slots:
        return False
    n, i = slots[rng.integers(len(slots))]
    A = get((n, i)).copy()
    if fault == "swap":
        j, k = rng.choice(A.shape[1], size=2, replace=False)
        A[:, [j, k]] = A[:, [k, j]]
    else:
        nz = np.argwhere(A)
        r, c = nz[rng.integers(len(nz))]
        v = A[r, c]
        if fault == "sign":
            A[r, c] = (p - v) % p
        else:
            A[r, c] = 0
            A[(r + 1 + rng.integers(A.shape[0] - 1)) % A.shape[0], c] = v
    if i is None:
        M.phi[n] = A
    else:
        M.act[n][i] = A
    M.cache.clear()
    return True


@st.composite
def labelled_windows(draw):
    """monomial_windows, half of them with a planted fault."""
    M = draw(monomial_windows())
    fault = draw(st.sampled_from([None, "sign", "swap", "move"]))
    if fault:
        plant(M, fault, np.random.default_rng(draw(st.integers(0, 10**6))))
    assert fi_core.read_labels(M) is not None
    return M


@settings(max_examples=80, deadline=None)
@given(monomial_windows(), st.sampled_from(["sign", "swap", "move"]),
       st.integers(0, 10**6))
def test_label_validate_matches_dense(M, fault, seed):
    assert fi_core.validate(M) == fi_core._validate_dense(M) == []
    if plant(M, fault, np.random.default_rng(seed)):
        assert fi_core.read_labels(M) is not None
        assert fi_core.validate(M) == fi_core._validate_dense(M)


def test_label_validate_catches_planted_faults():
    # each fault breaks an identity; both validators name the same ones
    M = fi_core.free_module(3, 1, 4)
    A = M.act[3][0].copy()
    A[:, [0, 1]] = A[:, [1, 0]]
    M.act[3][0] = A
    M.phi[2] = M.phi[2][[1, 0]]
    P = M.phi[4].copy()
    P[:, 2] = np.roll(P[:, 2], 1)
    M.phi[4] = P
    assert fi_core.read_labels(M) is not None
    bad = fi_core.validate(M)
    assert bad == fi_core._validate_dense(M) == [
        "level 3: braid relation fails at s_0, s_1",
        "level 3: structure map not equivariant at s_0",
        "level 3: two-step symmetry fails",
        "level 4: structure map not equivariant at s_0",
        "level 4: structure map not equivariant at s_1"]


@settings(max_examples=60, deadline=None)
@given(labelled_windows())
def test_orbit_closure_matches_span_closure(M):
    for n in range(1, M.N + 1):
        assert fi_homology._generated_rank(M, n) \
            == fi_homology._span_rank(M, n)


@settings(max_examples=60, deadline=None)
@given(labelled_windows())
def test_label_torsion_matches_oracle(M):
    assert fi_core.observed_torsion(M) == oracle_torsion(M)


@settings(max_examples=60, deadline=None)
@given(labelled_windows())
def test_label_derivative_matches_dense_quotient(M):
    D_dense = M
    for a in range(1, min(M.N, 2) + 1):
        D_dense = fi_core._derivative_dense(D_dense)
        D = fi_core.derivative(M, a)
        assert as_lists(D.dims, D.act, D.phi) \
            == as_lists(D_dense.dims, D_dense.act, D_dense.phi)


def test_dense_windows_read_no_labels():
    # this cokernel has a column with two nonzero entries; a wrong shape
    # is reported by the dense route
    M = fi_core.random_presented(3, 4, 1, 2, 7)
    assert fi_core.read_labels(M) is None
    M = fi_core.free_module(3, 1, 4)
    M.phi[4] = np.eye(2, dtype=np.int64)
    assert fi_core.read_labels(M) is None
    assert fi_core.validate(M) == ["level 4: structure map has wrong shape"]


@pytest.mark.parametrize("which,message", [
    ("s_1", "level 3: s_1 matrix has shape (2, 2), want (3, 3)"),
    ("phi", "level 3: structure map has wrong shape"),
])
def test_wrong_shape_is_reported_not_multiplied(which, message):
    # the braid check of level 3 and the two-step check of level 4 would
    # multiply the wrong-shaped matrix; both routes report the shape alone
    M = fi_core.free_module(3, 1, 4)
    if which == "s_1":
        M.act[3][1] = np.eye(2, dtype=np.int64)
    else:
        M.phi[3] = np.eye(2, dtype=np.int64)
    assert fi_core.validate(M) == [message]
    assert fi_core._validate_dense(M) == [message]


def test_validate_ignores_the_cached_labels():
    # invariants fills the cache; an edit made after it is still seen
    M = fi_core.free_module(3, 1, 5)
    fi_homology.invariants(M)
    stale = M.cache["labels"]
    assert stale is not None
    A = M.act[4][2].copy()
    A[:, [0, 1]] = A[:, [1, 0]]
    M.act[4][2] = A
    bad = fi_core.validate(M)
    assert bad and bad == fi_core._validate_dense(M)
    assert M.cache["labels"] is stale


def test_derivative_rejects_steps_beyond_window():
    M = fi_core.constant_module(2, 2)
    with pytest.raises(fi_core.WindowError):
        fi_core.derivative(M, 3)
    with pytest.raises(fi_core.WindowError):
        fi_core.derivative(M, -1)


# induced windows shared through a memo ------------------------------------------


def _same_window(A: fi_core.FIModuleWindow, B: fi_core.FIModuleWindow) -> bool:
    return (A.p, A.N, A.dims) == (B.p, B.N, B.dims) and all(
        (X == Y).all() for n in range(A.N + 1)
        for X, Y in zip(A.act[n] + [A.phi[n]] * (n > 0),
                        B.act[n] + [B.phi[n]] * (n > 0)))


def test_random_induced_map_shared_windows_match_fresh():
    # one memo across every call, against fresh windows, matrix for matrix
    windows: dict = {}
    for p, gen, rel, N, seed in itertools.product(
            [2, 3, 5], range(3), range(4), range(7), [1, 2, 7, 2025]):
        fresh = fi_core.random_induced_map(p, N, gen, rel, seed)
        shared = fi_core.random_induced_map(p, N, gen, rel, seed, windows)
        assert _same_window(fresh.source, shared.source)
        assert _same_window(fresh.target, shared.target)
        assert len(fresh.mats) == len(shared.mats) == N + 1
        assert all((F == G).all() and F.shape == G.shape
                   for F, G in zip(fresh.mats, shared.mats))
    assert windows


def oracle_induced_map_mats(p, N, gen_deg, rel_deg, seed):
    """The matrices of `random_induced_map`, from the same draws, filled
    one source column and one term at a time."""
    rng = np.random.default_rng(seed)
    js = tuple(j for j in range(gen_deg) if rng.integers(0, 2))
    V = fi_core.fb_direct_sum(fi_core.fb_trivial(p, gen_deg),
                              *(fi_core.fb_trivial(p, j) for j in js))
    W = fi_core.fb_regular(p, rel_deg)
    gens = fi_core.induced_basis(V, rel_deg)
    img = rng.integers(0, p, size=len(gens))
    terms = [(B, v, int(c)) for (B, v), c in zip(gens, img) if c]
    perms = list(itertools.permutations(range(rel_deg)))
    mats = []
    for n in range(N + 1):
        target = fi_core.induced_basis(V, n)
        index = {key: r for r, key in enumerate(target)}
        source = fi_core.induced_basis(W, n)
        F = np.zeros((len(target), len(source)), dtype=np.int64)
        for col, (sub, k) in enumerate(source):
            for B, v, c in terms:
                F[index[(tuple(sorted(sub[perms[k][x]] for x in B)), v)],
                  col] = c
        mats.append(F)
    return mats


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("gen, rel", [(1, 2), (2, 3), (0, 0), (2, 0),
                                      (0, 1), (3, 1), (1, 4)])
def test_random_induced_map_matches_column_loop(p, gen, rel):
    # the index-array matrices equal the loop's byte for byte
    for N, seed in itertools.product(range(7), [0, 1, 7, 2025, 31337]):
        f = fi_core.random_induced_map(p, N, gen, rel, seed)
        want = oracle_induced_map_mats(p, N, gen, rel, seed)
        assert len(f.mats) == len(want) == N + 1
        for F, G in zip(f.mats, want):
            assert F.dtype == G.dtype and F.shape == G.shape
            assert F.tobytes() == G.tobytes()


def test_random_induced_map_matches_column_loop_past_63_points():
    # a subset of [n] for n > 62 has no int64 bit mask
    f = fi_core.random_induced_map(3, 66, 1, 1, 5)
    want = oracle_induced_map_mats(3, 66, 1, 1, 5)
    assert any(F.any() for F in f.mats[64:])
    assert all(F.dtype == G.dtype and F.tobytes() == G.tobytes()
               for F, G in zip(f.mats, want))
