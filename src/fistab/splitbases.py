"""Split-basis simplicial complexes over finite quotient rings.

The main objects are the complex of unimodular split vectors congruent
to a standard basis vector modulo an ideal, its subcomplex of simplices
extending to a full split basis, and the coset complex of a tower of
groups; for congruence kernels the two are isomorphic and that
isomorphism is checked explicitly.

Every split-basis complex is built by one orbit builder, `spb_orbit`:
the orbit of the standard split basis under a congruence kernel, which
at the unit ideal is all of GL_n(Z/m).  Every chain complex on these
complexes takes its boundary from `boundary_columns`.

Everything is enumerated exactly and guarded: group orders are capped at
2^26, face counts at 2^24, and the dense integral boundary matrices at
2^24 cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import exactlin

GROUP_CAP = 1 << 26
FACE_CAP = 1 << 24


class FeasibilityError(Exception):
    """The requested computation exceeds the configured size guards."""


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteModRing:
    """Z/m with the principal ideal (q); q must divide m."""

    m: int
    q: int

    def __post_init__(self):
        if not (2 <= self.m < 1 << 31):
            raise ValueError("modulus out of range")
        if not (1 <= self.q <= self.m) or self.m % self.q:
            raise ValueError(f"ideal generator {self.q} must divide {self.m}")

    @property
    def dimension(self) -> int:
        # quotients of the integers have dimension zero in the stable
        # range sense used by the acyclicity bound
        return 0


# ---------------------------------------------------------------------------
# exact small determinants and inverses mod m
# ---------------------------------------------------------------------------


def _batch_det(mats: np.ndarray) -> np.ndarray:
    """Exact integer determinants of a (K, n, n) stack, by cofactor
    expansion (intended for n <= 5)."""
    n = mats.shape[1]
    if n == 0:
        return np.ones(mats.shape[0], dtype=np.int64)
    if n == 1:
        return mats[:, 0, 0].copy()
    if n == 2:
        return mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    total = np.zeros(mats.shape[0], dtype=np.int64)
    rest = list(range(1, n))
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        minor = mats[:, rest][:, :, cols]
        term = mats[:, 0, j] * _batch_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _batch_inv_mod(mats: np.ndarray, m: int) -> np.ndarray:
    """Inverses mod m of a (K, n, n) stack of matrices invertible mod m,
    via the adjugate: one determinant stack per minor, times a table of
    the inverses of the determinants that occur."""
    n = mats.shape[1]
    dets, where = np.unique(_batch_det(mats) % m, return_inverse=True)
    dinv = np.array([pow(int(d), -1, m) for d in dets], dtype=np.int64)
    adj = np.empty_like(mats)
    for i in range(n):
        rows = [r for r in range(n) if r != i]
        for j in range(n):
            cols = [c for c in range(n) if c != j]
            cof = _batch_det(mats[:, rows][:, :, cols])
            adj[:, j, i] = (-cof if (i + j) % 2 else cof) % m
    return adj * dinv[where, None, None] % m


# ---------------------------------------------------------------------------
# congruence kernels
# ---------------------------------------------------------------------------


class CongruenceGroup:
    """Kernel of reduction GL_n(Z/m) -> GL_n(Z/(q)), enumerated exactly.

    Elements are all matrices congruent to the identity mod q whose
    determinant is a unit mod m; this is the kernel by definition.
    """

    def __init__(self, ring: FiniteModRing, n: int):
        m, q = ring.m, ring.q
        self.ring = ring
        self.n = n
        if n == 0:
            self.mats = np.eye(0, dtype=np.int64)[None]
            self._finish()
            return
        r = m // q
        count = r ** (n * n)
        if count > GROUP_CAP:
            raise FeasibilityError(
                f"kernel candidate count {count} exceeds the cap {GROUP_CAP}")
        grids = np.indices((r,) * (n * n)).reshape(n * n, -1).T
        cands = (np.eye(n, dtype=np.int64).ravel()[None, :]
                 + q * grids.astype(np.int64)) % m
        cands = cands.reshape(-1, n, n)
        dets = _batch_det(cands) % m
        unit = np.array([math.gcd(int(d), m) == 1 for d in dets])
        self.mats = cands[unit]
        self._finish()

    def _finish(self):
        m, n = self.ring.m, self.n
        self.order = self.mats.shape[0]
        self._pows = (m ** np.arange(n * n)).astype(object) \
            if m ** max(1, n * n) > 1 << 62 else (m ** np.arange(n * n)).astype(np.int64)
        self.codes = self._encode(self.mats)
        order = np.argsort(self.codes, kind="stable")
        self.mats = self.mats[order]
        self.codes = self.codes[order]
        self.identity = self.index_of(np.eye(n, dtype=np.int64))
        self._inv_cache = None

    def _encode(self, mats: np.ndarray) -> np.ndarray:
        flat = mats.reshape(mats.shape[0], -1)
        if self._pows.dtype == object:
            return np.array([int(np.dot(row.astype(object), self._pows))
                             for row in flat], dtype=object)
        return flat @ self._pows

    def index_of(self, mat: np.ndarray) -> int:
        code = self._encode(np.asarray(mat, dtype=np.int64)[None] % self.ring.m)[0]
        i = int(np.searchsorted(self.codes, code))
        if i >= self.order or self.codes[i] != code:
            raise KeyError("matrix not in the group")
        return i

    def indices_of(self, mats: np.ndarray) -> np.ndarray:
        codes = self._encode(mats % self.ring.m)
        idx = np.searchsorted(self.codes, codes)
        if (idx >= self.order).any() or (self.codes[idx] != codes).any():
            raise KeyError("some matrix not in the group")
        return idx

    def inverses(self) -> np.ndarray:
        """Index array: inverses()[i] is the index of the inverse."""
        if self._inv_cache is not None:
            return self._inv_cache
        m, q = self.ring.m, self.ring.q
        if self.n == 0:
            self._inv_cache = np.zeros(1, dtype=np.int64)
            return self._inv_cache
        if (q * q) % m == 0:
            # (I + qA)(2I - (I + qA)) = I - q^2 A^2 = I
            inv_mats = (2 * np.eye(self.n, dtype=np.int64)[None]
                        - self.mats) % m
        else:
            inv_mats = _batch_inv_mod(self.mats, m)
        self._inv_cache = self.indices_of(inv_mats)
        return self._inv_cache

    def inverse_mats(self) -> np.ndarray:
        return self.mats[self.inverses()]

    def corner_indices(self, S: tuple[int, ...]) -> np.ndarray:
        """Indices of elements equal to the identity outside S x S."""
        n = self.n
        mask = np.zeros((n, n), dtype=bool)
        for i in S:
            for j in S:
                mask[i, j] = True
        ident = np.eye(n, dtype=np.int64)
        ok = np.ones(self.order, dtype=bool)
        for i in range(n):
            for j in range(n):
                if not mask[i, j]:
                    ok &= self.mats[:, i, j] == ident[i, j]
        return np.nonzero(ok)[0]

    def multiplication_table(self) -> np.ndarray:
        if self.order ** 2 > 1 << 24:
            raise FeasibilityError("multiplication table too large")
        m = self.ring.m
        tab = np.zeros((self.order, self.order), dtype=np.int64)
        for j in range(self.order):
            prod = self.mats @ self.mats[j] % m
            tab[:, j] = self.indices_of(prod)
        return tab


def congruence_group(m: int, q: int, n: int) -> CongruenceGroup:
    return CongruenceGroup(FiniteModRing(m, q), n)


class TrivialGroupTower:
    """Tower of trivial groups, for coset-complex edge cases."""

    def __init__(self, n: int):
        self.n = n
        self.order = 1
        self.identity = 0

    def corner_indices(self, S):
        return np.zeros(1, dtype=np.int64)


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------


@dataclass
class SimplicialComplex:
    vertices: list          # hashable labels
    maximal: set            # frozensets of vertex indices
    name: str = ""

    def faces(self, k: int) -> list[tuple[int, ...]]:
        """All k-dimensional faces, as sorted index tuples."""
        if k < 0:
            return [()] if self.maximal or self.vertices else []
        out = set()
        budget = FACE_CAP
        for mx in self.maximal:
            if len(mx) < k + 1:
                continue
            for f in itertools.combinations(sorted(mx), k + 1):
                out.add(f)
                if len(out) > budget:
                    raise FeasibilityError(
                        f"more than {FACE_CAP} faces in dimension {k}")
        return sorted(out)

    def f_vector(self, upto: int | None = None) -> list[int]:
        top = max((len(mx) for mx in self.maximal), default=0) - 1
        if upto is not None:
            top = min(top, upto)
        return [len(self.faces(k)) for k in range(top + 1)]

    def dimension(self) -> int:
        return max((len(mx) for mx in self.maximal), default=0) - 1

    def encode(self) -> dict:
        return {
            "kind": "simplicial",
            "vertices": [list(v) if isinstance(v, tuple) else v
                         for v in self.vertices],
            "maximal": sorted(sorted(mx) for mx in self.maximal),
        }

    @staticmethod
    def decode(doc: dict) -> "SimplicialComplex":
        if doc.get("kind") != "simplicial":
            raise ValueError("expected kind 'simplicial'")
        def detuple(x):
            return tuple(detuple(y) for y in x) if isinstance(x, list) else x

        verts = [detuple(v) for v in doc["vertices"]]
        maximal = {frozenset(mx) for mx in doc["maximal"]}
        return SimplicialComplex(verts, maximal)


def _labelled_complex(simplices, shape: tuple[int, int], name: str
                      ) -> tuple[SimplicialComplex, np.ndarray]:
    """The complex whose maximal simplices are the given label lists, its
    vertices numbered by first appearance; ids[s, i] is the vertex of the
    i-th label of simplex s."""
    index: dict = {}
    maximal: set[frozenset] = set()
    ids = np.empty(shape, dtype=np.int64)
    for s, labels in enumerate(simplices):
        row = [index.setdefault(lab, len(index)) for lab in labels]
        ids[s] = row
        maximal.add(frozenset(row))
    return SimplicialComplex(list(index), maximal, name=name), ids


def spb_orbit(G: CongruenceGroup) -> tuple[SimplicialComplex, np.ndarray]:
    """Orbit of the standard split basis under G, and the vertex table
    vid: vid[h, i] is the vertex h . x_i = (column i of h, row i of h^-1),
    so that g . vid[h, i] = vid[gh, i]."""
    n = G.n
    if G.order * max(n, 1) > FACE_CAP:
        raise FeasibilityError("too many maximal simplices")
    cols = G.mats.transpose(0, 2, 1)  # cols[h][i] = i-th column of h
    rows = G.inverse_mats()            # rows[h][i] = i-th row of h^{-1}

    def simplices():
        # one element at a time: the labels of the whole stack at once
        # would double the peak memory of the largest complexes
        for h in range(G.order):
            c, r = cols[h].tolist(), rows[h].tolist()
            yield [(tuple(c[i]), tuple(r[i])) for i in range(n)]

    return _labelled_complex(simplices(), (G.order, n),
                             f"SPB_{n}(Z/{G.ring.m},{G.ring.q})")


def spb_complex(m: int, q: int, n: int, variant: str = "spb_modI"
                ) -> SimplicialComplex:
    """Split-basis complexes over Z/m with ideal (q).

    Vertices are pairs (column vector v, row functional g) with g v = 1;
    a set of vertices spans a simplex when the functionals are dual to
    the vectors.  The `*_modI` variants restrict to pairs congruent to a
    standard basis vector and coordinate functional mod q, and the `spb`
    variants keep only simplices extending to a full split basis of
    rank n.  The `spb` and `su` variants ignore q: they are the same
    complexes at the unit ideal, whose kernel is all of GL_n(Z/m).
    """
    ring = FiniteModRing(m, q)
    if variant == "spb_modI":
        return spb_orbit(CongruenceGroup(ring, n))[0]
    if variant == "su_modI":
        return _clique_complex(_unimodular_pairs_modI(ring, n), m,
                               f"SU_{n}(Z/{m},{q})")
    if variant in ("spb", "su"):
        if m ** (n * n) > 1 << 22:
            raise FeasibilityError("full linear group too large to enumerate")
        X = spb_orbit(CongruenceGroup(FiniteModRing(m, 1), n))[0]
        if variant == "su":
            return _clique_complex(X.vertices, m, f"SU_{n}(Z/{m})")
        X.name = f"SPB_{n}(Z/{m})"
        return X
    raise ValueError(f"unknown variant {variant!r}")


def _unimodular_pairs_modI(ring: FiniteModRing, n: int) -> list[tuple]:
    m, q = ring.m, ring.q
    r = m // q
    out = []
    for i in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[i] = 1
        for w in itertools.product(range(r), repeat=n):
            v = (e + q * np.array(w, dtype=np.int64)) % m
            for h in itertools.product(range(r), repeat=n):
                g = (e + q * np.array(h, dtype=np.int64)) % m
                if int(g @ v) % m == 1:
                    out.append((tuple(v.tolist()), tuple(g.tolist())))
        if len(out) > FACE_CAP:
            raise FeasibilityError("too many vertices")
    return out


def _compatible(a: tuple, b: tuple, m: int) -> bool:
    va, ga = np.array(a[0]), np.array(a[1])
    vb, gb = np.array(b[0]), np.array(b[1])
    return int(ga @ vb) % m == 0 and int(gb @ va) % m == 0


def _clique_complex(vertices: list[tuple], m: int, name: str
                    ) -> SimplicialComplex:
    """All pairwise-dual collections: the clique complex of compatibility."""
    k = len(vertices)
    adj = [set() for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            if _compatible(vertices[a], vertices[b], m):
                adj[a].add(b)
                adj[b].add(a)
    return SimplicialComplex(vertices, _maximal_cliques(adj), name=name)


def _maximal_cliques(adj: list[set]) -> set[frozenset]:
    out: set[frozenset] = set()
    n = len(adj)

    def extend(R: set, P: set, X: set):
        if not P and not X:
            out.add(frozenset(R))
            if len(out) > FACE_CAP:
                raise FeasibilityError("too many maximal cliques")
            return
        pivot = max(P | X, key=lambda u: len(adj[u] & P), default=None)
        for v in list(P - (adj[pivot] if pivot is not None else set())):
            extend(R | {v}, P & adj[v], X & adj[v])
            P.remove(v)
            X.add(v)

    extend(set(), set(range(n)), set())
    return out


# ---------------------------------------------------------------------------
# coset complexes
# ---------------------------------------------------------------------------


def coset_complex(G: CongruenceGroup | TrivialGroupTower,
                  n: int) -> SimplicialComplex:
    """Vertices are (point t, coset of the subgroup supported away from t);
    each group element contributes the maximal simplex of its cosets."""
    if isinstance(G, TrivialGroupTower):
        vertices = [(t, 0) for t in range(n)]
        return SimplicialComplex(vertices, {frozenset(range(n))},
                                 name="coset(trivial)")
    m = G.ring.m
    coset_of = np.empty((G.order, n), dtype=np.int64)
    for t in range(n):
        S = tuple(x for x in range(n) if x != t)
        H = G.corner_indices(S)
        # coset key of gamma: minimal element index of gamma H
        best = np.full(G.order, np.iinfo(np.int64).max, dtype=np.int64)
        for h in H:
            prod = G.mats @ G.mats[h] % m
            idx = G.indices_of(prod)
            np.minimum(best, idx, out=best)
        coset_of[:, t] = best
    simplices = (list(enumerate(row.tolist())) for row in coset_of)
    return _labelled_complex(simplices, coset_of.shape,
                             f"coset(GL_{n}(Z/{m},{G.ring.q}))")[0]


def y_gamma_complex(G: CongruenceGroup | TrivialGroupTower, n: int
                    ) -> tuple[SimplicialComplex, bool, bool]:
    """The coset complex together with flags: does it identify with the
    split-basis complex, and is the tower of corner subgroups saturated."""
    Y = coset_complex(G, n)
    if isinstance(G, TrivialGroupTower):
        return Y, False, True
    report = coset_spb_isomorphism(G.ring.m, G.ring.q, n)
    iso = report["vertex_bijection"] and report["maximal_simplices_match"]
    return Y, iso, report["saturated"]


def is_saturated(G: CongruenceGroup, n: int) -> bool:
    """Corner subgroups intersect the way their supports do."""
    subs = {}
    for r in range(n + 1):
        for S in itertools.combinations(range(n), r):
            subs[S] = set(int(x) for x in G.corner_indices(S))
    for S1 in subs:
        for S2 in subs:
            inter = tuple(sorted(set(S1) & set(S2)))
            if subs[S1] & subs[S2] != subs[inter]:
                return False
    return True


def coset_spb_isomorphism(m: int, q: int, n: int) -> dict:
    """Check the vertex map (t, [gamma]) -> gamma . x_t is a simplicial
    isomorphism from the coset complex onto the split-basis complex."""
    if q == 1 or q == m:
        raise ValueError("the comparison needs a proper nonzero ideal")
    G = congruence_group(m, q, n)
    Y = coset_complex(G, n)
    X, vid = spb_orbit(G)
    # representative gamma = the stored minimal coset element
    vmap = [int(vid[rep, t]) for t, rep in Y.vertices]
    injective = len(set(vmap)) == len(vmap)
    surjective = len(set(vmap)) == len(X.vertices)
    y_simp = {frozenset(vmap[v] for v in mx) for mx in Y.maximal}
    return {
        "vertex_bijection": injective and surjective,
        "maximal_simplices_match": y_simp == X.maximal,
        "saturated": is_saturated(G, n),
        "coset_f_vector": Y.f_vector(),
        "spb_f_vector": X.f_vector(),
    }


# ---------------------------------------------------------------------------
# reduced homology
# ---------------------------------------------------------------------------


def _components(nverts: int, edges: list[tuple[int, ...]]) -> int:
    parent = list(range(nverts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(x) for x in range(nverts)})


def boundary_columns(faces_k: list[tuple[int, ...]],
                     faces_km1: list[tuple[int, ...]]):
    """The simplicial boundary of each face in `faces_k`, as a sparse
    column of +-1 over `faces_km1`; vertices bound the augmentation cell
    ()."""
    index = {f: i for i, f in enumerate(faces_km1)}
    for f in faces_k:
        yield {index[f[:j] + f[j + 1:]]: -1 if j % 2 else 1
               for j in range(len(f))}


def reduced_betti(X: SimplicialComplex, p: int,
                  ks: list[int]) -> dict[int, int]:
    """Reduced Betti numbers over F_p in the requested dimensions.

    Dimension 0 uses the component count (exact over any field); higher
    dimensions use exact boundary ranks.
    """
    exactlin._check_p(p)
    out = {}
    nv = len(X.vertices)
    faces: dict[int, list] = {}

    def get_faces(k: int) -> list:
        if k not in faces:
            faces[k] = X.faces(k)
        return faces[k]

    rank_cache: dict[int, int] = {}

    def get_rank(k: int) -> int:
        # rank of the boundary from k-faces to (k-1)-faces
        if k in rank_cache:
            return rank_cache[k]
        if k == 0:
            r = 1 if get_faces(0) else 0  # augmentation
        elif k == 1:
            r = nv - _components(nv, get_faces(1))
        else:
            cols = list(boundary_columns(get_faces(k), get_faces(k - 1)))
            r = exactlin.sparse_rank_modp(cols, len(get_faces(k - 1)), p)
        rank_cache[k] = r
        return r

    for k in ks:
        if k < 0:
            out[k] = 0 if get_faces(0) else 1
            continue
        ck = len(get_faces(k))
        out[k] = ck - get_rank(k) - get_rank(k + 1)
    return out


def integral_reduced_homology(X: SimplicialComplex,
                              ks: list[int]) -> dict[int, tuple[int, tuple]]:
    """(free rank, torsion invariant factors) over the integers.

    The boundaries are dense integer matrices, so each is guarded: one
    with more than FACE_CAP cells raises FeasibilityError.
    """
    faces: dict[int, list] = {k: X.faces(k) for k in
                              range(-1, X.dimension() + 2)}
    # each boundary is guarded before any is built, and reduced once
    needed = sorted({d for k in ks for d in (k, k + 1)})
    for d in needed:
        rows, cols = len(faces.get(d - 1, [])), len(faces.get(d, []))
        if rows * cols > FACE_CAP:
            raise FeasibilityError(
                f"boundary matrix {rows} x {cols} in dimension {d} "
                f"exceeds the cap {FACE_CAP}")
    snf = {}
    for d in needed:
        fd, fd1 = faces.get(d, []), faces.get(d - 1, [])
        D = np.zeros((len(fd1), len(fd)), dtype=np.int64)
        for c, col in enumerate(boundary_columns(fd, fd1)):
            for r, v in col.items():
                D[r, c] = v
        snf[d] = exactlin.smith_normal_form(D) if D.size else ()
    return {k: (len(faces.get(k, [])) - len(snf[k]) - len(snf[k + 1]),
                tuple(d for d in snf[k + 1] if d > 1)) for k in ks}


# ---------------------------------------------------------------------------
# verification entry points
# ---------------------------------------------------------------------------


def verify_theoremD(p: int, ell: int, k: int) -> dict:
    """Nonvanishing of the reduced homology in degree k-1 of the rank-2k
    split-basis complex mod p, for the ring Z/p^ell.

    Restricted to ell >= 2: with ell = 1 the ideal is the whole ring and
    the mod-ideal complexes degenerate.
    """
    exactlin._check_p(p)
    if ell < 2:
        raise ValueError("exponent must be at least 2 for a proper ideal")
    if k < 1:
        raise ValueError("degree parameter k must be positive")
    n = 2 * k
    X = spb_complex(p ** ell, p, n, "spb_modI")
    betti = reduced_betti(X, p, [k - 1])
    return {
        "complex": X.name,
        "f_vector": X.f_vector(),
        "degree": k - 1,
        "betti": betti[k - 1],
        "nonvanishing": betti[k - 1] > 0,
    }


def verify_charney(m: int, q: int, n: int, d: int | None = None) -> dict:
    """Acyclicity in the stable range: reduced homology vanishes in every
    degree j with n >= 2j + d + 3 (d the stable range parameter of the
    ring, zero for these finite quotients unless overridden)."""
    ring = FiniteModRing(m, q)
    d = ring.dimension if d is None else d
    jmax = (n - d - 3) // 2
    if jmax < 0:
        return {"complex": f"SPB_{n}(Z/{m},{q})", "checked_degrees": [],
                "all_vanish": True}
    X = spb_complex(m, q, n, "spb_modI")
    p = min(f for f in _prime_factors(m))
    betti = reduced_betti(X, p, list(range(jmax + 1)))
    return {
        "complex": X.name,
        "checked_degrees": list(range(jmax + 1)),
        "betti": betti,
        "all_vanish": all(v == 0 for v in betti.values()),
    }


def verify_spb_in_su(m: int, q: int, n: int, d: int | None = None) -> dict:
    """Low simplices of the pairwise-dual complex already extend to split
    bases: every l-simplex with l <= n - d - 2 lies in the subcomplex."""
    ring = FiniteModRing(m, q)
    d = ring.dimension if d is None else d
    lmax = n - d - 2
    SU = spb_complex(m, q, n, "su_modI")
    SPB = spb_complex(m, q, n, "spb_modI")
    spb_index = {lab: i for i, lab in enumerate(SPB.vertices)}
    ok = True
    detail = {}
    for l in range(min(lmax, SU.dimension()) + 1):
        su_faces = {frozenset(SU.vertices[v] for v in f)
                    for f in SU.faces(l)}
        spb_faces = {frozenset(SPB.vertices[v] for v in f)
                     for f in SPB.faces(l)}
        contained = su_faces <= spb_faces
        detail[l] = {"su": len(su_faces), "spb": len(spb_faces),
                     "contained": contained}
        ok = ok and contained
    return {"lmax": lmax, "detail": detail, "all_contained": ok}


def _prime_factors(m: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out
