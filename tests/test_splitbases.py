import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from fistab import exactlin, splitbases as sb
from snf_scan import snf_scan_oracle


# group enumeration vs a breadth-first closure oracle ---------------------------


def bfs_group_oracle(m, q, n):
    """Closure from elementary congruence generators and mod-q-trivial
    diagonal units; independent of the kernel-filter enumeration."""
    gens = []
    for i in range(n):
        for j in range(n):
            E = np.eye(n, dtype=np.int64)
            E[i, j] = (E[i, j] + q) % m
            gens.append(E)
    for i in range(n):
        for u in range(1, m):
            if math.gcd(u, m) == 1 and u % q == 1 % q and u != 1:
                D = np.eye(n, dtype=np.int64)
                D[i, i] = u
                gens.append(D)
    seen = {tuple(np.eye(n, dtype=np.int64).ravel())}
    frontier = [np.eye(n, dtype=np.int64)]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                w = g @ h % m
                key = tuple(w.ravel())
                if key not in seen:
                    seen.add(key)
                    nxt.append(w)
        frontier = nxt
    return seen


@pytest.mark.parametrize("m,q,n,order", [
    (4, 2, 1, 2), (4, 2, 2, 16), (4, 2, 3, 512), (9, 3, 2, 81), (8, 2, 2, 256),
])
def test_group_order_and_bfs_closure(m, q, n, order):
    G = sb.congruence_group(m, q, n)
    assert G.order == order
    assert {tuple(g.ravel()) for g in G.mats} == bfs_group_oracle(m, q, n)


@pytest.mark.parametrize("m,q,n", [(8, 2, 2), (3, 1, 3), (27, 3, 2)])
def test_group_membership_and_inverses(m, q, n):
    # every element; (3, 1, 3) is all of GL_3(Z/3), order 11232, and
    # (27, 3, 2) has q^2 != 0 mod m, so both take the adjugate route
    G = sb.congruence_group(m, q, n)
    inv = G.inverses()
    prod = G.mats @ G.mats[inv] % m
    assert (prod == np.eye(n, dtype=np.int64)).all()
    with pytest.raises(KeyError):
        G.index_of(np.zeros((n, n), dtype=np.int64))


def test_group_guard():
    with pytest.raises(sb.FeasibilityError):
        sb.congruence_group(4, 2, 6)


def leibniz_det(M):
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b]
                         for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * math.prod(M[i][perm[i]]
                                                for i in range(n))
    return total


@pytest.mark.parametrize("m,q,n,filtered", [
    (4, 2, 1, False), (4, 2, 2, False), (4, 2, 3, False), (8, 2, 2, False),
    (9, 3, 2, False), (6, 2, 2, True), (12, 2, 2, True),
])
def test_group_elements_match_det_filter(m, q, n, filtered):
    # every candidate I + qA whose determinant is a unit mod m, in code
    # order (entry 0 least significant); where 3 divides m but not q some
    # candidate has 3 | det and must be dropped
    eye = np.eye(n, dtype=np.int64).ravel()
    want = []
    for digits in itertools.product(range(m // q), repeat=n * n):
        g = ((eye + q * np.array(digits)) % m).tolist()
        det = leibniz_det([g[i * n:(i + 1) * n] for i in range(n)])
        if math.gcd(det, m) == 1:
            want.append(g)
    assert (len(want) < (m // q) ** (n * n)) == filtered
    want.sort(key=lambda g: g[::-1])
    G = sb.congruence_group(m, q, n)
    assert np.array_equal(G.mats, np.array(want).reshape(-1, n, n))


def test_batch_det_matches_sympy():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4, 5):
        mats = rng.integers(-9, 9, size=(20, n, n))
        dets = sb._batch_det(mats)
        for M, d in zip(mats, dets):
            assert int(sympy.Matrix(M.tolist()).det()) == d


def test_batch_inv_mod():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        A = rng.integers(0, 9, size=(60, n, n))
        A = A[[math.gcd(int(d), 9) == 1 for d in sb._batch_det(A)]]
        Ainv = sb._batch_inv_mod(A, 9)
        assert (A @ Ainv % 9 == np.eye(n, dtype=np.int64)).all()


# f-vectors vs the orbit-stabilizer oracle --------------------------------------


def orbit_stabilizer_fvector(m, q, n):
    """Faces of each dimension counted as sums of orbit sizes of the
    standard sub-simplices; vertex types are rigid, so distinct type
    sets give disjoint orbits."""
    G = sb.congruence_group(m, q, n)
    inv = G.inverse_mats()
    cols = G.mats.transpose(0, 2, 1)
    out = []
    for k in range(n):
        total = 0
        for S in itertools.combinations(range(n), k + 1):
            stab = 0
            for gi in range(G.order):
                ok = all((cols[gi, i] == np.eye(n, dtype=np.int64)[i]).all()
                         and (inv[gi, i] == np.eye(n, dtype=np.int64)[i]).all()
                         for i in S)
                stab += ok
            total += G.order // stab
        out.append(total)
    return out


@pytest.mark.parametrize("m,q,n,fvec", [
    (4, 2, 1, [2]),
    (4, 2, 2, [16, 16]),
    (4, 2, 3, [96, 768, 512]),
    (9, 3, 2, [54, 81]),
])
def test_spb_fvector(m, q, n, fvec):
    X = sb.spb_complex(m, q, n, "spb_modI")
    assert X.f_vector() == fvec
    assert orbit_stabilizer_fvector(m, q, n) == fvec


def test_spb_vertices_in_two_edges():
    X = sb.spb_complex(4, 2, 2, "spb_modI")
    deg = {v: 0 for v in range(len(X.vertices))}
    for e in X.faces(1):
        for v in e:
            deg[v] += 1
    assert set(deg.values()) == {2}


def test_group_acts_simplicially():
    m, q, n = 4, 2, 3
    G = sb.congruence_group(m, q, n)
    X = sb.spb_complex(m, q, n, "spb_modI")
    index = {lab: i for i, lab in enumerate(X.vertices)}
    inv = G.inverse_mats()
    rng = np.random.default_rng(0)
    for gi in rng.integers(0, G.order, size=8):
        g, gi_inv = G.mats[gi], inv[gi]
        moved = set()
        for mx in list(X.maximal)[:40]:
            imgs = []
            for v in mx:
                vv, ff = X.vertices[v]
                nv = tuple(int(x) for x in g @ np.array(vv) % m)
                nf = tuple(int(x) for x in np.array(ff) @ gi_inv % m)
                imgs.append(index[(nv, nf)])
            moved.add(frozenset(imgs))
        assert moved <= X.maximal


def test_modI_needs_proper_ideal():
    with pytest.raises(ValueError):
        sb.verify_theoremD(2, 1, 1)
    with pytest.raises(ValueError):
        sb.coset_spb_isomorphism(4, 1, 2)


def test_su_contains_spb_and_clique_property():
    SU = sb.spb_complex(4, 2, 2, "su_modI")
    SPB = sb.spb_complex(4, 2, 2, "spb_modI")
    su_edges = {frozenset(SU.vertices[v] for v in f) for f in SU.faces(1)}
    spb_edges = {frozenset(SPB.vertices[v] for v in f) for f in SPB.faces(1)}
    assert spb_edges <= su_edges
    # every SU simplex satisfies the pairwise duality predicate
    for f in SU.faces(1):
        a, b = (SU.vertices[v] for v in f)
        assert sb._compatible(a, b, 4)


def test_full_ring_variant_closes_under_permutation():
    X = sb.spb_complex(2, 1, 2, "spb")
    labs = {frozenset(X.vertices[v] for v in mx) for mx in X.maximal}
    for mx in labs:
        flipped = frozenset((v[::-1], g[::-1]) for (v, g) in mx)
        assert flipped in labs
    assert X.f_vector()[0] == len(X.vertices)


def brute_gl2(m):
    """GL_2(Z/m) by brute force, each element with its adjugate inverse."""
    out = []
    for a, b, c, d in itertools.product(range(m), repeat=4):
        det = (a * d - b * c) % m
        if math.gcd(det, m) == 1:
            u = pow(det, -1, m)
            out.append((((a, b), (c, d)),
                        ((u * d % m, -u * b % m), (-u * c % m, u * a % m))))
    return out


def reference_cliques(verts, adjacent):
    """Maximal cliques, grown one vertex at a time from every vertex."""
    out, layer = set(), {frozenset([v]) for v in verts}
    while layer:
        nxt = set()
        for c in layer:
            ext = [w for w in verts
                   if w not in c and all(adjacent(w, u) for u in c)]
            if not ext:
                out.add(c)
            nxt |= {c | {w} for w in ext}
        layer = nxt
    return out


@pytest.mark.parametrize("m", [2, 3, 4])
def test_full_variants_match_reference(m):
    spb = set()
    for g, ginv in brute_gl2(m):
        spb.add(frozenset(((g[0][i], g[1][i]), ginv[i]) for i in range(2)))
    verts = set().union(*spb)

    def adjacent(a, b):
        return (sum(x * y for x, y in zip(a[1], b[0])) % m == 0
                and sum(x * y for x, y in zip(b[1], a[0])) % m == 0)

    su = reference_cliques(verts, adjacent)
    for variant, want in (("spb", spb), ("su", su)):
        X = sb.spb_complex(m, 1, 2, variant)
        assert set(X.vertices) == verts
        assert {frozenset(X.vertices[v] for v in mx)
                for mx in X.maximal} == want


@pytest.mark.parametrize("m,q,n", [(4, 2, 2), (4, 2, 3), (9, 3, 2)])
def test_spb_orbit_vertex_action(m, q, n):
    G = sb.congruence_group(m, q, n)
    X, vid = sb.spb_orbit(G)
    inv = G.inverse_mats()
    ident = np.eye(n, dtype=np.int64)
    assert (G.mats @ inv % m == ident).all()
    for h in range(G.order):
        for i in range(n):
            assert X.vertices[vid[h, i]] == (tuple(G.mats[h][:, i].tolist()),
                                             tuple(inv[h][i].tolist()))
    index = {lab: j for j, lab in enumerate(X.vertices)}
    V = np.array([v for v, _ in X.vertices])
    F = np.array([f for _, f in X.vertices])
    table = G.multiplication_table()
    for g in range(G.order):
        moved = np.array([index[(tuple(v), tuple(f))] for v, f in
                          zip((V @ G.mats[g].T % m).tolist(),
                              (F @ inv[g] % m).tolist())])
        assert (vid[table[g]] == moved[vid]).all()


def oracle_rows(maximal):
    """The maximal simplices, given as a set of frozensets, in the stored
    form: sorted rows grouped by size, sizes ascending, rows in order."""
    by_size = {}
    for mx in maximal:
        by_size.setdefault(len(mx), []).append(sorted(mx))
    return [sorted(rows) for _, rows in sorted(by_size.items())]


def assert_rows_match(X, maximal):
    assert all(a.dtype == np.int64 and a.ndim == 2 for a in X.maximal_rows)
    assert [a.tolist() for a in X.maximal_rows] == oracle_rows(maximal)
    assert X.maximal == maximal
    assert X.dimension() == max(map(len, maximal), default=0) - 1
    assert X.encode()["maximal"] == sorted(sorted(mx) for mx in maximal)
    Y = sb.SimplicialComplex.decode(json.loads(json.dumps(X.encode())))
    Y.name = X.name
    assert Y == X


def first_appearance_orbit(G):
    """Orbit labels one element at a time, numbered by a dict in order of
    first appearance."""
    cols, rows = G.mats.transpose(0, 2, 1), G.inverse_mats()
    index, maximal = {}, set()
    vid = np.empty((G.order, G.n), dtype=np.int64)
    for h in range(G.order):
        c, r = cols[h].tolist(), rows[h].tolist()
        vid[h] = [index.setdefault((tuple(c[i]), tuple(r[i])), len(index))
                  for i in range(G.n)]
        maximal.add(frozenset(vid[h].tolist()))
    return list(index), vid, maximal


@pytest.mark.parametrize("m,q,n", [(4, 2, 2), (4, 2, 3), (9, 3, 2), (3, 1, 2),
                                   (2 ** 30, 2 ** 29, 2)])
def test_spb_orbit_matches_first_appearance_oracle(m, q, n):
    # (3, 1, 2) is the full-ring `spb` complex, whose orbit lists each
    # basis twice; the last modulus has m^(2n) = 2^120, far past int64
    G = sb.congruence_group(m, q, n)
    X, vid = sb.spb_orbit(G)
    vertices, want_vid, maximal = first_appearance_orbit(G)
    assert X.vertices == vertices
    assert (vid == want_vid).all()
    assert_rows_match(X, maximal)
    if q == 1:
        assert sb.spb_complex(m, q, n, "spb").maximal == maximal


# the stored rows vs the frozenset route, kept as the oracle -----------------------


def coset_oracle(G, n):
    """The coset complex one element at a time: vertex (t, smallest index
    in gamma H_t), numbered by a dict in order of first appearance."""
    m = G.ring.m
    corners = [G.corner_indices(tuple(x for x in range(n) if x != t))
               for t in range(n)]
    index, maximal = {}, set()
    for h in range(G.order):
        simplex = []
        for t in range(n):
            key = int(G.indices_of(G.mats[h] @ G.mats[corners[t]] % m).min())
            simplex.append(index.setdefault((t, key), len(index)))
        maximal.add(frozenset(simplex))
    return list(index), maximal


@pytest.mark.parametrize("m,q,n", [(4, 2, 2), (9, 3, 2), (3, 1, 2)])
def test_clique_rows_match_frozenset_route(m, q, n):
    X = sb.spb_complex(m, q, n, "su_modI")
    verts = range(len(X.vertices))
    maximal = reference_cliques(verts, lambda a, b: sb._compatible(
        X.vertices[a], X.vertices[b], m))
    assert_rows_match(X, maximal)


@pytest.mark.parametrize("n", [2, 3])
def test_coset_rows_match_frozenset_route(n):
    G = sb.congruence_group(4, 2, n)
    Y = sb.coset_complex(G, n)
    vertices, maximal = coset_oracle(G, n)
    assert Y.vertices == vertices
    assert_rows_match(Y, maximal)
    T = sb.coset_complex(sb.TrivialGroupTower(n), n)
    assert_rows_match(T, {frozenset(range(n))})


def test_decoded_repeats_and_empty_complex_rows():
    doc = {"kind": "simplicial", "vertices": ["a", "b", "c", "d"],
           "maximal": [[1, 0], [2], [0, 1], [3, 2, 0], [1, 1, 0]]}
    X = sb.SimplicialComplex.decode(doc)
    maximal = {frozenset([0, 1]), frozenset([2]), frozenset([0, 2, 3])}
    assert_rows_match(X, maximal)
    assert X.f_vector() == [4, 4, 1]
    E = sb.SimplicialComplex([], set())
    assert_rows_match(E, set())
    assert E.maximal_rows == [] and E.dimension() == -1 and E.f_vector() == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_maps_onto_is_set_equality_of_images(data):
    # a vertex map preserves a complex exactly when it carries the set of
    # maximal simplices onto itself, as the frozenset route reads it
    X = data.draw(complexes())
    nv = len(X.vertices)
    vmap = np.array(data.draw(st.one_of(
        st.permutations(range(nv)),
        st.lists(st.integers(0, max(nv - 1, 0)), min_size=nv,
                 max_size=nv))), dtype=np.int64)
    img = {frozenset(int(vmap[v]) for v in mx) for mx in X.maximal}
    assert X.maps_onto(vmap, X) == (img == X.maximal)
    assert X.maps_onto(np.arange(nv), X)


# coset complexes ----------------------------------------------------------------


def test_trivial_tower_gives_full_simplex():
    Y, iso, sat = sb.y_gamma_complex(sb.TrivialGroupTower(4), 4)
    assert sat
    assert Y.maximal == {frozenset(range(4))}
    assert sb.reduced_betti(Y, 2, [0, 1, 2]) == {0: 0, 1: 0, 2: 0}


@pytest.mark.parametrize("n", [2, 3])
def test_coset_iso_and_saturation(n):
    rep = sb.coset_spb_isomorphism(4, 2, n)
    assert rep["vertex_bijection"]
    assert rep["maximal_simplices_match"]
    assert rep["saturated"]
    assert rep["coset_f_vector"] == rep["spb_f_vector"]


def test_coset_orbit_counts_are_binomial():
    # the group acts transitively on each type set, so the orbit count of
    # (k-1)-simplices is C(n, k)
    n = 3
    G = sb.congruence_group(4, 2, n)
    Y = sb.coset_complex(G, n)
    for k in range(1, n + 1):
        faces = Y.faces(k - 1)
        types = {tuple(sorted(Y.vertices[v][0] for v in f)) for f in faces}
        assert len(types) == math.comb(n, k)


# reduced homology ----------------------------------------------------------------


def triangle_boundary():
    return sb.SimplicialComplex(
        ["a", "b", "c"],
        {frozenset([0, 1]), frozenset([1, 2]), frozenset([0, 2])})


def test_homology_triangle():
    X = triangle_boundary()
    assert sb.reduced_betti(X, 2, [0, 1]) == {0: 0, 1: 1}
    assert sb.reduced_betti(X, 5, [0, 1]) == {0: 0, 1: 1}
    hz = sb.integral_reduced_homology(X, [0, 1])
    assert hz[0] == (0, ()) and hz[1] == (1, ())


def test_homology_full_simplex_and_empty():
    X = sb.SimplicialComplex(list("abcd"), {frozenset(range(4))})
    assert sb.reduced_betti(X, 3, [0, 1, 2, 3]) == {0: 0, 1: 0, 2: 0, 3: 0}
    E = sb.SimplicialComplex([], set())
    assert sb.reduced_betti(E, 2, [-1, 0]) == {-1: 1, 0: 0}


def test_negative_degrees_agree_on_both_routes():
    # () is the one face of the empty complex, so H~_{-1} = 1 there and 0
    # on any complex with a vertex; no degree below -1 carries homology
    E = sb.SimplicialComplex([], set())
    ks = [-3, -2, -1, 0]
    want = {-3: 0, -2: 0, -1: 1, 0: 0}
    for p in (2, 3):
        assert sb.reduced_betti(E, p, ks) == want
        assert sb.reduced_betti(triangle_boundary(), p, ks) \
            == {k: 0 for k in ks}
    assert sb.integral_reduced_homology(E, ks) \
        == {k: (v, ()) for k, v in want.items()}
    assert [E.faces(k).shape for k in ks] == [(0, 0), (0, 0), (1, 0), (0, 1)]


def test_su_modI_unit_ideal_lists_each_pair_once():
    # mod the unit ideal every unimodular pair is a vertex, listed once
    m, n = 3, 2
    vecs = [np.array(v) for v in itertools.product(range(m), repeat=n)]
    pairs = [(tuple(v), tuple(g)) for v in vecs for g in vecs
             if int(g @ v) % m == 1]
    edges = sum(sb._compatible(a, b, m)
                for a, b in itertools.combinations(pairs, 2))
    X = sb.spb_complex(m, 1, n, "su_modI")
    assert len(set(X.vertices)) == len(X.vertices) == len(pairs) == 24
    assert sorted(X.vertices) == sorted(pairs)
    assert X.f_vector() == [24, edges]


def test_homology_disjoint_points():
    X = sb.SimplicialComplex(list("abc"),
                             {frozenset([0]), frozenset([1]), frozenset([2])})
    assert sb.reduced_betti(X, 2, [0]) == {0: 2}


def rp2():
    # minimal 6-vertex triangulation of the real projective plane
    tris = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]
    return sb.SimplicialComplex(
        list(range(1, 7)), {frozenset(t - 1 for t in tri) for tri in tris})


def test_faces_cap_and_memoised_roundtrip(monkeypatch):
    X = rp2()
    edges = X.faces(1)
    assert len(edges) == 15 and X.faces(1) is edges
    assert not edges.flags.writeable
    assert X == sb.SimplicialComplex.decode(X.encode())
    # rp2 has 6 vertices and 15 edges
    monkeypatch.setattr(sb, "FACE_CAP", 10)
    Y = rp2()
    assert len(Y.faces(0)) == 6
    with pytest.raises(sb.FeasibilityError):
        Y.faces(1)


def test_spb4_stage_peaks_stay_small():
    # orbit, f-vector and H~_0 of SPB_4(Z/4,(2)), each stage under 32 MB
    peaks = []
    tracemalloc.start()
    try:
        X = sb.spb_complex(4, 2, 4, "spb_modI")
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        fvec = X.f_vector()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        betti = sb.reduced_betti(X, 2, [0])
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert fvec == [512, 24576, 131072, 65536] and betti == {0: 0}
    assert max(peaks) < 32 << 20, [round(x / 2 ** 20, 1) for x in peaks]


def test_integral_dense_boundary_guard(monkeypatch):
    # rp2: d_1 has 6 x 15 = 90 cells, d_2 has 15 x 10 = 150
    monkeypatch.setattr(sb, "FACE_CAP", 100)
    with pytest.raises(sb.FeasibilityError):
        sb.integral_reduced_homology(rp2(), [0, 1])


def test_homology_projective_plane_torsion():
    X = rp2()
    hz = sb.integral_reduced_homology(X, [0, 1, 2])
    assert hz[0] == (0, ())
    assert hz[1] == (0, (2,))
    assert hz[2] == (0, ())
    # universal coefficients: the 2-torsion shows up twice mod 2
    assert sb.reduced_betti(X, 2, [0, 1, 2]) == {0: 0, 1: 1, 2: 1}
    assert sb.reduced_betti(X, 3, [0, 1, 2]) == {0: 0, 1: 0, 2: 0}


def test_spb_integral_homology_pinned():
    # the integral case of the spb_homology benchmark, and H~_0 of
    # SPB_3(Z/9,(3)), whose d_1 (729 x 19683) is the largest Smith form
    # the tests run
    assert sb.integral_reduced_homology(sb.spb_complex(4, 2, 3), [0, 1, 2]) \
        == {0: (0, ()), 1: (225, ()), 2: (64, ())}
    assert sb.integral_reduced_homology(sb.spb_complex(9, 3, 3), [0]) \
        == {0: (0, ())}


def test_universal_coefficient_rank_relation():
    for X in (triangle_boundary(), rp2(), sb.spb_complex(4, 2, 2, "spb_modI")):
        hz = sb.integral_reduced_homology(X, [0, 1])
        for p in (2, 3):
            bp = sb.reduced_betti(X, p, [0, 1])
            for k in (0, 1):
                tk = sum(1 for d in hz[k][1] if d % p == 0)
                tk1 = sum(1 for d in hz.get(k - 1, (0, ()))[1] if d % p == 0)
                assert bp[k] == hz[k][0] + tk + tk1


def test_euler_characteristic_consistency():
    for X in (triangle_boundary(), rp2(), sb.spb_complex(4, 2, 3, "spb_modI")):
        f = X.f_vector()
        chi_faces = sum((-1) ** k * c for k, c in enumerate(f)) - 1
        betti = sb.reduced_betti(X, 2, list(range(len(f))))
        chi_homology = sum((-1) ** k * betti[k] for k in range(len(f)))
        assert chi_faces == chi_homology


# the set-and-dict route for faces, boundaries and homology, kept as the oracle


def oracle_faces(X, k):
    if k < 0:
        return [()] if k == -1 else []
    out = set()
    for mx in X.maximal:
        out.update(itertools.combinations(sorted(mx), k + 1))
    return sorted(out)


def oracle_boundary(faces_k, faces_km1):
    index = {f: i for i, f in enumerate(faces_km1)}
    return [{index[f[:j] + f[j + 1:]]: -1 if j % 2 else 1
             for j in range(len(f))} for f in faces_k]


def oracle_components(nverts, edges):
    parent = list(range(nverts))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(x) for x in range(nverts)})


def oracle_betti(X, p, ks):
    nv = len(X.vertices)

    def rank(k):
        if k == 0:
            return 1 if oracle_faces(X, 0) else 0
        if k == 1:
            return nv - oracle_components(nv, oracle_faces(X, 1))
        lower = oracle_faces(X, k - 1)
        cols = oracle_boundary(oracle_faces(X, k), lower)
        return exactlin.sparse_rank_modp(cols, len(lower), p)

    # H~_{-1} is 1 only when () is the one face; nothing lies below it
    return {k: 0 if k < -1
            else int(bool(oracle_faces(X, -1)) and not oracle_faces(X, 0))
            if k == -1
            else len(oracle_faces(X, k)) - rank(k) - rank(k + 1) for k in ks}


def oracle_integral(X, ks):
    faces = {k: oracle_faces(X, k) for k in range(-1, X.dimension() + 2)}
    snf = {}
    for d in sorted({d for k in ks for d in (k, k + 1)}):
        fd, fd1 = faces.get(d, []), faces.get(d - 1, [])
        D = np.zeros((len(fd1), len(fd)), dtype=np.int64)
        for c, col in enumerate(oracle_boundary(fd, fd1)):
            for r, v in col.items():
                D[r, c] = v
        snf[d] = snf_scan_oracle(D) if D.size else ()
    return {k: (len(faces.get(k, [])) - len(snf[k]) - len(snf[k + 1]),
                tuple(d for d in snf[k + 1] if d > 1)) for k in ks}


@st.composite
def complexes(draw):
    """Random complexes: mixed maximal sizes, vertex-only ones, vertices
    in no simplex, the empty complex, and ones of large simplices only,
    in which d_1 and d_2 are often both wide, so that clearing runs."""
    nv = draw(st.integers(0, 7))
    size = draw(st.sampled_from([1, 5]))
    least = min(draw(st.sampled_from([1, size])), nv)
    simplices = draw(st.lists(
        st.sets(st.integers(0, nv - 1), min_size=least, max_size=size),
        min_size=2 * (least > 1), max_size=8)) if nv else []
    return sb.SimplicialComplex(list(range(nv)),
                                {frozenset(s) for s in simplices})


@settings(max_examples=300, deadline=None)
@given(complexes(), st.data())
def test_face_arrays_match_set_route(X, data):
    top = X.dimension()
    ks = list(range(-2, top + 2))
    for k in ks:
        F = X.faces(k)
        assert F.dtype == np.int64 and F.shape[1] == max(k + 1, 0)
        assert [tuple(f) for f in F.tolist()] == oracle_faces(X, k)
    for k in ks:
        rows, cols, vals, nrows, ncols = sb.boundary_entries(X, k)
        lower, upper = oracle_faces(X, k - 1), oracle_faces(X, k)
        assert (nrows, ncols) == (len(lower), len(upper))
        assert cols.ravel().tolist() == list(range(ncols))
        assert [dict(zip(f, vals.tolist())) for f in rows.tolist()] \
            == oracle_boundary(upper, lower)
    # also a drawn subset of the degrees, reversed and its first one
    # repeated: unsorted, with gaps between the runs of degrees ranked
    sub = sorted(data.draw(st.sets(st.sampled_from(ks))), reverse=True)
    for degrees in (ks, sub + sub[:1]):
        for p in (2, 3):
            assert sb.reduced_betti(X, p, degrees) \
                == oracle_betti(X, p, degrees)
        assert sb.integral_reduced_homology(X, degrees) \
            == oracle_integral(X, degrees)


# verification entry points --------------------------------------------------------


def test_theoremD_small():
    out = sb.verify_theoremD(2, 2, 1)
    assert out["nonvanishing"] and out["betti"] == 3
    out = sb.verify_theoremD(3, 2, 1)
    assert out["nonvanishing"] and out["betti"] == 8


def test_charney_small():
    assert sb.verify_charney(4, 2, 3)["all_vanish"]
    assert sb.verify_charney(4, 2, 2)["checked_degrees"] == []


def test_spb_in_su_small():
    assert sb.verify_spb_in_su(4, 2, 2)["all_contained"]
    assert sb.verify_spb_in_su(9, 3, 2)["all_contained"]


def test_simplicial_roundtrip():
    X = sb.spb_complex(4, 2, 2, "spb_modI")
    doc = json.loads(json.dumps(X.encode()))
    Y = sb.SimplicialComplex.decode(doc)
    assert Y.f_vector() == X.f_vector()
    assert {frozenset(map(tuple, (X.vertices[v] for v in mx)))
            for mx in X.maximal} \
        == {frozenset(map(tuple, (Y.vertices[v] for v in mx)))
            for mx in Y.maximal}
