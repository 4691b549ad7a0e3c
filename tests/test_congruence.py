import itertools
import math
import tracemalloc

import numpy as np
import pytest
import sympy

from fistab import congruence as cg
from fistab import exactlin
from fistab import fi_core, fi_homology, splitbases as sb


# structure -------------------------------------------------------------------


def test_identify_structure_examples():
    assert cg.identify_structure(4, 2, 3) == {
        "order": 512, "abelian": True, "exponent": 2,
        "elementary_abelian_rank": 9}
    assert cg.identify_structure(9, 3, 2) == {
        "order": 81, "abelian": True, "exponent": 3,
        "elementary_abelian_rank": 4}
    out = cg.identify_structure(8, 2, 2)
    assert out["order"] == 256
    assert out["elementary_abelian_rank"] is None


def test_cohom_dim_formula_examples():
    assert cg.cohom_dim_formula(9, 2) == 45
    assert cg.cohom_dim_formula(4, 3) == 20
    assert all(cg.cohom_dim_formula(1, k) == 1 for k in range(6))


def test_cohom_dim_formula_generating_function():
    # coefficient of t^k in (1 - t)^(-r), expanded independently
    t = sympy.Symbol("t")
    for r in range(1, 6):
        series = sympy.series((1 - t) ** (-r), t, 0, 7).removeO()
        for k in range(6):
            assert cg.cohom_dim_formula(r, k) == series.coeff(t, k)


# bar oracle ------------------------------------------------------------------


def symmetric_group_table(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    tab = np.zeros((len(perms), len(perms)), dtype=np.int64)
    for i, a in enumerate(perms):
        for j, b in enumerate(perms):
            tab[i, j] = index[tuple(a[b[x]] for x in range(n))]
    return tab


def bar_reference(table, j, action=None, nb=1):
    """Dense integer bar boundary from degree j >= 1, from the definition:
    (g_1, ..., g_j) x c goes to (g_2, ..., g_j) x c
    + sum_{0 < i < j} (-1)^i (..., g_i g_{i+1}, ...) x c
    + (-1)^j (g_1, ..., g_{j-1}) x g_j c; cells tuple-major, then c."""
    order = len(table)
    lower = {t: i for i, t in
             enumerate(itertools.product(range(order), repeat=j - 1))}
    cells = list(itertools.product(range(order), repeat=j))
    D = np.zeros((len(lower) * nb, len(cells) * nb), dtype=np.int64)
    for n, g in enumerate(cells):
        for c in range(nb):
            col = n * nb + c
            D[lower[g[1:]] * nb + c, col] += 1
            for i in range(1, j):
                merged = g[:i - 1] + (int(table[g[i - 1], g[i]]),) + g[i + 1:]
                D[lower[merged] * nb + c, col] += (-1) ** i
            img, sign = (c, 1) if action is None else \
                (action[0][g[-1], c], action[1][g[-1], c])
            D[lower[g[:-1]] * nb + img, col] += (-1) ** j * sign
    return D


def twisted_regular_action(table):
    """g sends cell c to f(gc) f(c) (gc) for a fixed f: G -> +-1, the
    regular permutation module conjugated by a diagonal sign matrix."""
    f = np.where(np.arange(len(table)) % 3 == 1, -1, 1)
    return table, f[table] * f[None, :]


def test_bar_faces_match_definition():
    cyc = cg._cyclic_table
    groups = [cyc(q) for q in (2, 3, 4, 5)] + [
        cg._product_table([cyc(2), cyc(2)]),
        cg._product_table([cyc(3), cyc(3)]), symmetric_group_table(3)]
    for table in groups:
        order = len(table)
        for action, nb in ((None, 1), (twisted_regular_action(table), order)):
            prev = None
            for j in range(1, 4):
                faces, signs = cg._bar_faces(table, j, action, nb)
                D = np.zeros((order ** (j - 1) * nb, order ** j * nb),
                             dtype=np.int64)
                np.add.at(D, (faces, np.arange(len(faces))[:, None]), signs)
                assert (D == bar_reference(table, j, action, nb)).all()
                if prev is not None:
                    # d_{j-1} d_j = 0 over Z, so mod every p; the float64
                    # product of these small integers is exact
                    assert not (prev.astype(float) @ D).any()
                prev = D


def test_bar_ranks_match_dense_rref():
    # every bar boundary is wide, so at odd p entry_rank ranks its
    # reversed rows; the dense oracle reads the matrix of the definition
    # and ranks it by the numpy column loop, which shares no kernel with
    # the packed rows
    cyc = cg._cyclic_table
    groups = [cyc(3), cyc(6), cg._product_table([cyc(3), cyc(3)]),
              symmetric_group_table(3)]
    for table in groups:
        order = len(table)
        for action, nb in ((None, 1), (twisted_regular_action(table), order)):
            for j in range(1, 4):
                if order ** j * nb > 2000:
                    continue
                faces, signs = cg._bar_faces(table, j, action, nb)
                D = bar_reference(table, j, action, nb)
                assert exactlin.entry_rank(
                    *exactlin.index_entries(faces, signs), len(D), len(faces),
                    3) == len(exactlin._rref_columns(D, 3)[1])


def test_bar_cyclic_values():
    for k in range(4):
        assert cg.bar_homology_oracle([2], k, 2) == 1
        assert cg.bar_homology_oracle([3], k, 3) == 1
        assert cg.bar_homology_oracle([4], k, 2) == 1
    # coefficients coprime to the order kill higher homology
    assert cg.bar_homology_oracle([3], 0, 2) == 1
    assert cg.bar_homology_oracle([3], 1, 2) == 0
    assert cg.bar_homology_oracle([3], 2, 2) == 0


def test_bar_nonabelian_symmetric_group():
    tab = symmetric_group_table(3)
    assert cg.bar_homology_oracle(tab, 1, 2) == 1
    assert cg.bar_homology_oracle(tab, 1, 3) == 0
    assert cg.bar_homology_oracle(tab, 2, 3) == 0
    assert cg.bar_homology_oracle(tab, 3, 3) == 1


def test_bar_elementary_abelian_matches_formula():
    for r in range(1, 5):
        for p in (2, 3):
            for k in range(4):
                assert cg.bar_homology_oracle([p] * r, k, p) \
                    == cg.cohom_dim_formula(r, k)


def test_kunneth_route_agrees_with_direct_bar():
    # same group through the direct table and through cyclic factors
    for orders, p, kmax in [([2, 2], 2, 3), ([3, 3], 3, 3), ([2, 4], 2, 2)]:
        table = cg._product_table([cg._cyclic_table(q) for q in orders])
        for k in range(kmax + 1):
            direct = cg.bar_homology_from_table(table, k, p)
            kunneth = cg.homology_dims_product(orders, p, k)[k]
            assert direct == kunneth


def test_bar_on_congruence_group():
    G = sb.congruence_group(4, 2, 2)
    assert cg.bar_homology_oracle(G, 2, 2) == 10
    G1 = sb.congruence_group(9, 3, 1)
    assert cg.bar_homology_oracle(G1, 3, 3) == 1


def test_bar_guard_falls_back_or_raises():
    # too large for bar, but elementary abelian: routed through factors
    assert cg.bar_homology_oracle([3] * 4, 3, 3) == cg.cohom_dim_formula(4, 3)
    with pytest.raises(sb.FeasibilityError):
        tab = symmetric_group_table(5)
        cg.bar_homology_oracle(tab, 2, 2)


@pytest.mark.parametrize("G,k,p", [([3], -1, 3), ([3] * 4, -1, 3),
                                   ([0], 1, 2), ([-2], 1, 2)])
def test_bar_oracle_rejects_negative_degree_or_order(G, k, p):
    with pytest.raises(ValueError, match="nonnegative|positive"):
        cg.bar_homology_oracle(G, k, p)


def test_bar_from_table_rejects_negative_degree():
    with pytest.raises(ValueError, match="nonnegative"):
        cg.bar_homology_from_table(cg._cyclic_table(3), -1, 3)


@pytest.mark.parametrize("p", [2, 3])
def test_bar_clearing_skips_the_rows_proved_dependent(monkeypatch, p):
    # (Z/p)^2: d_3 and d_4 are both wide, so every pivot of d_3 names a
    # row of d_4 that is never handed to the reduction
    table = cg._product_table([cg._cyclic_table(p)] * 2)
    order = len(table)
    boundaries = [cg._bar_entries(table, j) for j in (3, 4)]
    plain = [exactlin.entry_rank(*b, p) for b in boundaries]
    name = "_gf2_reduce" if p == 2 else "_packed_modp_reduce"
    reduce, fed = getattr(exactlin, name), []

    def counting(vectors, length, *rest):
        vectors = list(vectors)
        fed.append(len(vectors))
        return reduce(vectors, length, *rest)

    monkeypatch.setattr(exactlin, name, counting)
    assert exactlin.complex_ranks(boundaries, p) == plain
    assert plain[0] > 0
    assert fed == [order ** 2, order ** 3 - plain[0]]
    assert cg.bar_homology_from_table(table, 3, p) == 4


def _composes_to_zero(monkeypatch, run) -> int:
    """Run `run` with `exactlin.complex_ranks` recording what it is handed,
    check with dense products that each boundary times the next is 0 mod
    p, and return the number of pairs checked."""
    handed, complex_ranks = [], exactlin.complex_ranks

    def recording(boundaries, p):
        boundaries = list(boundaries)
        handed.append((boundaries, p))
        return complex_ranks(boundaries, p)

    monkeypatch.setattr(exactlin, "complex_ranks", recording)
    run()
    pairs = 0
    for boundaries, p in handed:
        dense = [exactlin.entries_to_dense(*b, p) for b in boundaries]
        for D, E in zip(dense, dense[1:]):
            assert not exactlin.matmul_modp(D, E, p).any()
            pairs += 1
    return pairs


@pytest.mark.parametrize("args", [(2, 2, 2, 1), (3, 2, 1, 1)])
def test_equivariant_and_hyper_bar_totals_compose_to_zero(monkeypatch, args):
    # the equivariant totals in degrees -1..1 give two pairs, the hyper
    # bar totals in degrees k and k + 1 one more
    assert _composes_to_zero(
        monkeypatch, lambda: cg.theoremC_check(*args)) >= 3


@pytest.mark.parametrize("p", [2, 3])
def test_hyper_table_totals_compose_to_zero(monkeypatch, p):
    C = fi_homology.two_term_complex(fi_core.random_induced_map(p, 4, 1, 2, 5))
    assert _composes_to_zero(
        monkeypatch, lambda: fi_homology.hyper_homology_table(C, 2)) >= 5 * 3


# homology FI-modules ---------------------------------------------------------


def test_hk_module_dims_examples():
    M = cg.hk_fi_module(1, 2, 6)
    assert M.dims == [0, 1, 4, 9, 16, 25, 36]
    M2 = cg.hk_fi_module(2, 2, 5)
    assert M2.dims == [0, 1, 10, 45, 136, 325]
    M3 = cg.hk_fi_module(2, 3, 4)
    assert M3.dims == [0, 1, 10, 45, 136]
    assert M3.dims[2] == math.comb(4, 2) + 4


def test_hk_module_validates_and_is_induced():
    for (k, p) in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        M = cg.hk_fi_module(k, p, 4)
        assert fi_core.validate(M) == []
        assert fi_homology.is_semi_induced_window(M)


def test_h1_generation_degree_two():
    # diagonal entries appear at level 1, off-diagonal generators only at
    # level 2
    M = cg.hk_fi_module(1, 2, 6)
    t0, t1 = fi_homology.presentation_degrees(M)
    assert t0 == 2


def test_hk_rejects_unsupported():
    with pytest.raises(ValueError):
        cg.hk_fi_module(3, 2, 4)
    with pytest.raises(ValueError):
        cg.hk_fi_module(1, 2, 9)


# equivariant homology --------------------------------------------------------


def _point_complex():
    return sb.SimplicialComplex(["x"], {frozenset([0])})


def test_equivariant_trivial_group_point():
    E = cg.EquivariantInput(np.zeros((1, 1), dtype=np.int64),
                            _point_complex(),
                            np.zeros((1, 1), dtype=np.int64), 2)
    out = cg.equivariant_homology(E, 2)
    assert all(v == 0 for v in out.values())


def test_equivariant_z2_trivial_action():
    X = sb.SimplicialComplex(["a", "b"], {frozenset([0]), frozenset([1])})
    tab = np.array([[0, 1], [1, 0]])
    act = np.array([[0, 1], [0, 1]])
    out = cg.equivariant_homology(cg.EquivariantInput(tab, X, act, 2), 2)
    assert all(out[k] >= 1 for k in range(3))


def test_equivariant_z2_free_swap():
    X = sb.SimplicialComplex(["a", "b"], {frozenset([0]), frozenset([1])})
    tab = np.array([[0, 1], [1, 0]])
    act = np.array([[0, 1], [1, 0]])
    out = cg.equivariant_homology(cg.EquivariantInput(tab, X, act, 2), 1)
    assert out[0] == 1


def test_equivariant_rejects_broken_action():
    X = sb.SimplicialComplex(["a", "b"], {frozenset([0, 1])})
    tab = np.array([[0, 1], [1, 0]])
    act = np.array([[0, 1], [0, 0]])  # not a homomorphism image
    with pytest.raises(ValueError):
        cg.equivariant_homology(cg.EquivariantInput(tab, X, act, 2), 1)


def test_validate_rejects_planted_non_preserving_action():
    # SPB_2(Z/4,(2)) under its kernel, as theoremC_check builds it; the
    # frozenset route confirms that each planted map moves the complex
    G = sb.congruence_group(4, 2, 2)
    X, vid = sb.spb_orbit(G)
    table = G.multiplication_table()
    vmaps = np.zeros((G.order, len(X.vertices)), dtype=np.int64)
    vmaps[:, vid] = vid[table]
    assert cg.EquivariantInput(table, X, vmaps, 2).validate() == []
    a, b = X.maximal_rows[0][0]
    c = X.maximal_rows[0][-1][1]
    for plant in ([a, b], [a, c], [b, c]):
        bad = vmaps.copy()
        bad[5, plant] = bad[5, plant[::-1]]         # swap two images
        collapsed = vmaps.copy()
        collapsed[5, plant[0]] = collapsed[5, plant[1]]
        for act in (bad, collapsed):
            img = {frozenset(int(act[5, v]) for v in mx) for mx in X.maximal}
            assert img != X.maximal
            assert "element 5 does not preserve the complex" \
                in cg.EquivariantInput(table, X, act, 2).validate()


def test_validate_checks_every_pair():
    # Z/9 rotating a 9-cycle; a table wrong at any single one of the 81
    # pairs must be caught
    X = sb.SimplicialComplex(list(range(9)),
                             {frozenset([v, (v + 1) % 9]) for v in range(9)})
    tab = cg._cyclic_table(9)
    act = cg._cyclic_table(9)  # act[g, v] = g + v
    assert cg.EquivariantInput(tab, X, act, 3).validate() == []
    for a, b in itertools.product(range(9), repeat=2):
        bad = tab.copy()
        bad[a, b] = (bad[a, b] + 1) % 9
        errors = cg.EquivariantInput(bad, X, act, 3).validate()
        assert errors == ["vertex action is not a homomorphism"], (a, b)


# hyper FI-homology -----------------------------------------------------------


@pytest.mark.parametrize("m,q,N,jmax", [(4, 2, 3, 1), (9, 3, 2, 2),
                                         (4, 2, 3, 2), (8, 2, 2, 2)])
def test_insertion_indices_match_permutation_route(m, q, N, jmax):
    # oracle: the corner inclusion, then conjugation by the adjacent
    # transpositions of insertion_permutation(lev, t), all on j-tuples
    groups = [sb.congruence_group(m, q, n) for n in range(N + 1)]
    ins = cg.bar_fi_modules(groups, jmax)
    for lev in range(N):
        G, H = groups[lev], groups[lev + 1]
        emb = np.broadcast_to(np.eye(lev + 1, dtype=np.int64),
                              (G.order, lev + 1, lev + 1)).copy()
        emb[:, :lev, :lev] = G.mats
        incl = H.indices_of(emb)
        trans = []
        for i in range(lev):
            sw = list(range(lev + 1))
            sw[i], sw[i + 1] = i + 1, i
            trans.append(H.indices_of(H.mats[:, sw][:, :, sw]))
        for t in range(lev + 1):
            sigma = fi_core.insertion_permutation(lev, t)
            for j in range(jmax + 1):
                ref = cg._diagonal_extension(incl, j, H.order)
                for i in fi_core.adjacent_factorization(sigma):
                    ref = cg._diagonal_extension(trans[i], j, H.order)[ref]
                assert (ins[j][lev][t] == ref).all()


def test_hyper_guard_fires_before_allocating():
    # degree 3 holds the 512^3 bar chains of level 3, far over the cap;
    # the guard must fire before any tuple-level array is built
    tracemalloc.start()
    try:
        with pytest.raises(sb.FeasibilityError):
            cg.hyper_fi_bar_homology(4, 2, 3, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


# the cross-check and the application ----------------------------------------


@pytest.mark.parametrize("p,n,k,val", [
    (2, 0, 0, 1), (2, 1, 1, 1), (3, 0, 0, 1), (3, 1, 1, 1),
    (2, 1, 2, 1), (3, 1, 2, 1), (2, 0, 1, 0), (3, 0, 1, 0), (2, 0, 2, 0),
])
def test_theoremC_hand_values(p, n, k, val):
    out = cg.theoremC_check(p, 2, n, k)
    assert out["equal"]
    assert out["lhs"] == val


@pytest.mark.parametrize("p,n,k", [(2, 2, 1), (2, 2, 2), (3, 2, 1)])
def test_theoremC_runtime_values(p, n, k):
    out = cg.theoremC_check(p, 2, n, k)
    assert out["equal"], out


def test_theoremC_rejects_bad_params():
    with pytest.raises(ValueError):
        cg.theoremC_check(2, 1, 1, 1)
    with pytest.raises(ValueError):
        cg.theoremC_check(2, 2, 4, 1)
    with pytest.raises(ValueError, match="degree k must be nonnegative"):
        cg.theoremC_check(2, 2, 1, -1)
    with pytest.raises(ValueError, match="rank n must be nonnegative"):
        cg.theoremC_check(2, 2, -1, 1)


# full reports of application_b_empirical(k, p, N), measured with every
# check on dense matrices
APPLICATION_B = {
    (1, 2, 7): {
        "module": "H_1(ker GL(Z/4) -> GL(Z/2))",
        "dims": [0, 1, 4, 9, 16, 25, 36, 49], "delta": 2,
        "delta_certified": True, "t0": 2, "t1": -1, "hmax": -1,
        "hmax_certified": True, "fit_coeffs": [0, 1, 2], "fit_onset": 0,
        "bounds": {"delta_le": 2, "hmax_le": 8, "t0_le": 11, "t1_le": 20},
        "delta_ok": True, "t0_ok": True, "onset_ok": True, "all_ok": True},
    (2, 2, 6): {
        "module": "H_2(ker GL(Z/4) -> GL(Z/2))",
        "dims": [0, 1, 10, 45, 136, 325, 666], "delta": 4,
        "delta_certified": True, "t0": 4, "t1": -1, "hmax": -1,
        "hmax_certified": True, "fit_coeffs": [0, 1, 8, 18, 12],
        "fit_onset": 0,
        "bounds": {"delta_le": 4, "hmax_le": 18, "t0_le": 23, "t1_le": 42},
        "delta_ok": True, "t0_ok": True, "onset_ok": True, "all_ok": True},
    (2, 3, 5): {
        "module": "H_2(ker GL(Z/9) -> GL(Z/3))",
        "dims": [0, 1, 10, 45, 136, 325], "delta": 4,
        "delta_certified": False, "t0": 4, "t1": -1, "hmax": -1,
        "hmax_certified": True, "fit_coeffs": [0, 1, 8, 18, 12],
        "fit_onset": 0,
        "bounds": {"delta_le": 4, "hmax_le": 18, "t0_le": 23, "t1_le": 42},
        "delta_ok": True, "t0_ok": True, "onset_ok": True, "all_ok": True},
    (1, 3, 6): {
        "module": "H_1(ker GL(Z/9) -> GL(Z/3))",
        "dims": [0, 1, 4, 9, 16, 25, 36], "delta": 2,
        "delta_certified": True, "t0": 2, "t1": -1, "hmax": -1,
        "hmax_certified": True, "fit_coeffs": [0, 1, 2], "fit_onset": 0,
        "bounds": {"delta_le": 2, "hmax_le": 8, "t0_le": 11, "t1_le": 20},
        "delta_ok": True, "t0_ok": True, "onset_ok": True, "all_ok": True},
}


@pytest.mark.parametrize("args", sorted(APPLICATION_B))
def test_application_b_reports_pinned(args):
    assert cg.application_b_empirical(*args) == APPLICATION_B[args]


def test_application_b_small():
    out = cg.application_b_empirical(1, 2, 5)
    assert out["all_ok"]
    assert out["delta"] == 2
    assert out["fit_coeffs"] == [0, 1, 2]
    out3 = cg.application_b_empirical(1, 3, 5)
    assert out3["delta"] == 2 and out3["delta_ok"]
