"""Split-basis simplicial complexes over finite quotient rings.

The main objects are the complex of unimodular split vectors congruent
to a standard basis vector modulo an ideal, its subcomplex of simplices
extending to a full split basis, and the coset complex of a tower of
groups; for congruence kernels the two are isomorphic and that
isomorphism is checked explicitly.

Every split-basis complex is built by one orbit builder, `spb_orbit`:
the orbit of the standard split basis under a congruence kernel, which
at the unit ideal is all of GL_n(Z/m); it labels the orbit with one int
code per vertex and numbers the vertices by first appearance.

A complex stores its maximal simplices once, as sorted int64 rows, one
array per simplex size, rows distinct and in lexicographic order, and
hands out its faces as memoised int arrays of the same form.  The orbit
builder sorts and dedupes its id rows with one sort of row codes, and
vertex maps are checked on those rows.  Every simplicial boundary, of
the Betti numbers, the integral homology and the equivariant homology of
`congruence`, comes from one builder, `boundary_entries`: the augmented
boundary as entry arrays, each facet of a face found by `face_index`, a
binary search on prefix-index codes.

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
from .errors import FeasibilityError

GROUP_CAP = 1 << 26
FACE_CAP = 1 << 24


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
        minor = mats[:, np.array(rest)[:, None], cols]
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
        if n < 0:
            raise ValueError(f"rank n must be nonnegative, got {n}")
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
        # candidate g has the digits g // r^(n*n-1-j) % r, entry j, built
        # in place in one array of the final size
        pw = r ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
        cands = np.arange(count, dtype=np.int64)[:, None] // pw
        cands %= r
        cands *= q
        cands += np.eye(n, dtype=np.int64).ravel()
        cands %= m
        cands = cands.reshape(-1, n, n)
        # det(I + qA) = 1 mod q, so it is already a unit mod m when every
        # prime factor of m divides q; the filter runs only when one does not
        rest = m
        while (g := math.gcd(rest, q)) > 1:
            rest //= g
        if rest > 1:
            cands = cands[np.gcd(_batch_det(cands), m) == 1]
        self.mats = cands
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
        """Codes of a stack of matrices, their entries reduced mod m one
        entry position at a time, so that no reduced copy of the stack is
        made."""
        m = self.ring.m
        flat = mats.reshape(mats.shape[0], -1)
        if self._pows.dtype == object:
            return np.array([int(np.dot((row % m).astype(object), self._pows))
                             for row in flat], dtype=object)
        codes = np.zeros(len(flat), dtype=np.int64)
        for j, pw in enumerate(self._pows.tolist()):
            codes += flat[:, j] % m * pw
        return codes

    def index_of(self, mat: np.ndarray) -> int:
        code = self._encode(np.asarray(mat, dtype=np.int64)[None])[0]
        i = int(np.searchsorted(self.codes, code))
        if i >= self.order or self.codes[i] != code:
            raise KeyError("matrix not in the group")
        return i

    def indices_of(self, mats: np.ndarray) -> np.ndarray:
        codes = self._encode(mats)
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
            inv_mats = -self.mats
            inv_mats += 2 * np.eye(self.n, dtype=np.int64)
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


class SimplicialComplex:
    """A finite simplicial complex on the vertex labels `vertices`.

    Its maximal simplices are stored once, as `maximal_rows`: one int64
    array per simplex size, sizes ascending, each row a simplex's sorted
    vertex indices, rows distinct and in lexicographic order.  The
    constructor takes them as collections of vertex indices, and
    `maximal` gives them back as a set of frozensets, built on request.
    """

    def __init__(self, vertices: list, maximal, name: str = ""):
        by_size: dict[int, list] = {}
        for mx in maximal:
            row = sorted(set(mx))
            by_size.setdefault(len(row), []).append(row)
        self.vertices = vertices        # hashable labels
        self.maximal_rows = [
            _lex_distinct(np.array(rows, dtype=np.int64).reshape(len(rows), size))
            for size, rows in sorted(by_size.items())]
        self.name = name
        self.cache: dict = {}

    @property
    def maximal(self) -> set[frozenset]:
        return {frozenset(row) for rows in self.maximal_rows
                for row in rows.tolist()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.vertices == other.vertices and self.name == other.name
                and len(self.maximal_rows) == len(other.maximal_rows)
                and all(map(np.array_equal, self.maximal_rows,
                            other.maximal_rows)))

    def faces(self, k: int) -> np.ndarray:
        """All k-dimensional faces, as a read-only (F, k + 1) int64 array
        of sorted vertex indices, rows in lexicographic order.  k = -1
        gives the augmentation cell (), which every complex has, the
        empty one too, and any k < -1 no face."""
        if k not in self.cache:
            self.cache[k] = self._enumerate(k)
        return self.cache[k]

    def _enumerate(self, k: int) -> np.ndarray:
        nv = len(self.vertices)
        if not 0 <= k <= self.dimension():
            out = np.zeros((int(k == -1), max(k + 1, 0)), dtype=np.int64)
            out.flags.writeable = False
            return out
        # each k-face is keyed by the code index(f[:-1]) * nv + f[-1],
        # below 2^48 under the caps; codes sort as the faces do
        codes = np.zeros(0, dtype=np.int64)
        for mx in self.maximal_rows:
            for pos in itertools.combinations(range(mx.shape[1]), k + 1):
                rows = mx[:, pos]
                new = rows[:, -1] if k == 0 else \
                    face_index(self.faces(k - 1), rows[:, :-1]) * nv + rows[:, -1]
                codes = _distinct(np.concatenate([codes, new]))
                if len(codes) > FACE_CAP:
                    raise FeasibilityError(
                        f"more than {FACE_CAP} faces in dimension {k}")
        if k == 0:
            out = codes[:, None]
        else:
            out = np.column_stack([self.faces(k - 1)[codes // nv], codes % nv])
        out.flags.writeable = False
        return out

    def f_vector(self, upto: int | None = None) -> list[int]:
        top = self.dimension()
        if upto is not None:
            top = min(top, upto)
        return [len(self.faces(k)) for k in range(top + 1)]

    def dimension(self) -> int:
        return self.maximal_rows[-1].shape[1] - 1 if self.maximal_rows else -1

    def maps_onto(self, vmap: np.ndarray, other: "SimplicialComplex") -> bool:
        """Does the vertex map `vmap` carry the maximal simplices of this
        complex one to one onto those of `other`, each onto one of its own
        size?  With other = self this is the equality of the set of images
        with the set of simplices: a map that shrank one simplex there
        would have to enlarge another."""
        if [a.shape for a in self.maximal_rows] \
                != [b.shape for b in other.maximal_rows]:
            return False
        for a, b in zip(self.maximal_rows, other.maximal_rows):
            img = np.sort(vmap[a], axis=1)
            at = np.minimum(face_index(b, img), len(b) - 1)
            hit = np.zeros(len(b), dtype=bool)
            hit[at] = True
            if not ((b[at] == img).all() and hit.all()):
                return False
        return True

    def encode(self) -> dict:
        return {
            "kind": "simplicial",
            "vertices": [list(v) if isinstance(v, tuple) else v
                         for v in self.vertices],
            "maximal": sorted(itertools.chain.from_iterable(
                rows.tolist() for rows in self.maximal_rows)),
        }

    @staticmethod
    def decode(doc: dict) -> "SimplicialComplex":
        if doc.get("kind") != "simplicial":
            raise ValueError("expected kind 'simplicial'")
        def detuple(x):
            return tuple(detuple(y) for y in x) if isinstance(x, list) else x

        if not isinstance(doc["vertices"], list) \
                or not isinstance(doc["maximal"], list):
            raise ValueError("vertices and maximal must be lists")
        verts = [detuple(v) for v in doc["vertices"]]
        for mx in doc["maximal"]:
            if not isinstance(mx, list) or not mx:
                raise ValueError(
                    f"maximal simplex {mx!r} is not a non-empty list")
            for v in mx:
                if type(v) is not int or not 0 <= v < len(verts):
                    raise ValueError(f"vertex index {v!r} is not an int in "
                                     f"range({len(verts)})")
        return SimplicialComplex(verts, doc["maximal"])


def _lex_distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of `rows`, each row sorted already, in
    lexicographic order.  A row is coded in base nv, its largest entry
    plus one, so that one sort of the codes orders and dedupes the rows;
    np.unique(axis=0) takes over where nv^width leaves int64."""
    nv = int(rows.max(initial=0)) + 1
    width = rows.shape[1]
    if nv ** width >= 1 << 63:
        return np.unique(rows, axis=0)
    pw = nv ** np.arange(width - 1, -1, -1, dtype=np.int64)
    codes = _distinct(rows @ pw)
    return codes[:, None] // pw % nv


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The sorted distinct values; np.unique takes about 15 times longer on
    these arrays."""
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def face_index(faces: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index in the face array `faces` (distinct rows in lexicographic
    order) of each row of `rows`; every row must occur in `faces`.

    Column by column, each prefix is keyed by index(prefix[:-1]) * nv +
    prefix[-1], index() being its rank among the distinct shorter
    prefixes of `faces`; the keys sort as the prefixes do, so one binary
    search per column finds every row.
    """
    if faces.shape[1] == 0:
        return np.zeros(len(rows), dtype=np.int64)
    nv = int(max(faces.max(initial=0), rows.max(initial=0))) + 1
    keys, query = faces[:, 0], rows[:, 0]
    for j in range(1, faces.shape[1]):
        fresh = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        query = np.searchsorted(keys[fresh], query) * nv + rows[:, j]
        keys = (np.cumsum(fresh) - 1) * nv + faces[:, j]
    return np.searchsorted(keys, query)


def _labelled_complex(codes: np.ndarray, label, name: str
                      ) -> tuple[SimplicialComplex, np.ndarray]:
    """The complex whose maximal simplices are the rows of `codes`, one
    int code per vertex label, its vertices numbered by first appearance
    in row-major order; label(s, i) is the label coded by codes[s, i].

    `codes` is overwritten in place by the vertex ids, ids[s, i] the
    vertex of codes[s, i], and returned as ids: the orbits are the
    largest arrays here, and one copy fewer keeps their peak down.  The
    stored rows are the ids rows sorted, once each: the full-ring orbit
    lists every basis once per ordering of it.
    """
    _, first, inverse = np.unique(codes.ravel(), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    renumber = np.empty(len(first), dtype=np.int64)
    renumber[order] = np.arange(len(first))
    vertices = [label(*divmod(int(f), codes.shape[1])) for f in first[order]]
    ids = codes
    np.take(renumber, inverse.ravel(), out=ids.reshape(-1))
    del inverse
    X = SimplicialComplex(vertices, (), name)
    X.maximal_rows = [_lex_distinct(np.sort(ids, axis=1))]
    return X, ids


def spb_orbit(G: CongruenceGroup) -> tuple[SimplicialComplex, np.ndarray]:
    """Orbit of the standard split basis under G, and the vertex table
    vid: vid[h, i] is the vertex h . x_i = (column i of h, row i of h^-1),
    so that g . vid[h, i] = vid[gh, i]."""
    n = G.n
    if G.order * max(n, 1) > FACE_CAP:
        raise FeasibilityError("too many maximal simplices")
    m, q = G.ring.m, G.ring.q
    r = m // q
    inv = G.inverses()
    # an entry x of a kernel element is q * (x // q) + (delta mod q), so a
    # label is its digits x // q, base r, and its type i, which the label
    # fixes when q > 1 and which is void when q = 1; the codes stay below
    # n * r^(2n) <= 2^52 under GROUP_CAP and FACE_CAP
    pw = r ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = np.empty((G.order, n), dtype=np.int64)
    for i in range(n):
        col = G.mats[:, :, i] // q @ pw
        row = G.mats[inv, i, :] // q @ pw
        codes[:, i] = ((i if q > 1 else 0) * r ** n + col) * r ** n + row

    def label(h: int, i: int) -> tuple:
        return (tuple(G.mats[h, :, i].tolist()),
                tuple(G.mats[inv[h], i].tolist()))

    return _labelled_complex(codes, label, f"SPB_{n}(Z/{m},{q})")


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
    # mod the unit ideal every e_i is 0, so i = 0 already lifts every pair
    for i in range(n if q > 1 else 1):
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
    return _labelled_complex(coset_of * n + np.arange(n),
                             lambda h, t: (t, int(coset_of[h, t])),
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
    t, rep = np.array(Y.vertices, dtype=np.int64).reshape(-1, 2).T
    vmap = vid[rep, t]
    images = len(np.unique(vmap))
    return {
        "vertex_bijection": images == len(vmap) == len(X.vertices),
        "maximal_simplices_match": Y.maps_onto(vmap, X),
        "saturated": is_saturated(G, n),
        "coset_f_vector": Y.f_vector(),
        "spb_f_vector": X.f_vector(),
    }


# ---------------------------------------------------------------------------
# reduced homology
# ---------------------------------------------------------------------------


def boundary_entries(X: SimplicialComplex, k: int):
    """The augmented boundary d_k from the k-faces to the (k-1)-faces of
    X, as the entry arrays (rows, cols, vals, nrows, ncols) that
    `exactlin.complex_ranks` takes: rows[c, j] is the index of face c
    without its j-th vertex, whose coefficient is vals[j] = (-1)^j, and
    cols[c] = c.  Vertices bound the augmentation cell () of
    `faces(-1)`; in a degree with no k-face the boundary is empty, of
    shape len(faces(k - 1)) x 0."""
    upper, lower = X.faces(k), X.faces(k - 1)
    F, w = upper.shape
    rows = np.zeros((F, w), dtype=np.int64)
    if F and w:
        facets = np.stack([np.delete(upper, j, axis=1) for j in range(w)],
                          axis=1)
        rows = face_index(lower, facets.reshape(F * w, w - 1)).reshape(F, w)
    return (rows, np.arange(F)[:, None], np.where(np.arange(w) % 2, -1, 1),
            len(lower), F)


def reduced_betti(X: SimplicialComplex, p: int,
                  ks: list[int]) -> dict[int, int]:
    """Reduced Betti numbers over F_p in the requested dimensions:
    dim H~_k = #k-faces - rank d_k - rank d_{k+1}, the boundaries taken
    from `boundary_entries`.  The boundaries needed are ranked in one
    `exactlin.complex_ranks` pass per run of consecutive degrees, which
    clears each by the pivots of the one below it where both are wide;
    no other boundary is built.
    """
    exactlin._check_p(p)
    runs: list[list[int]] = []
    for d in sorted({d for k in ks for d in (k, k + 1)}):
        if runs and runs[-1][-1] == d - 1:
            runs[-1].append(d)
        else:
            runs.append([d])
    rank = {}
    for run in runs:
        rank.update(zip(run, exactlin.complex_ranks(
            (boundary_entries(X, d) for d in run), p)))
    return {k: len(X.faces(k)) - rank[k] - rank[k + 1] for k in ks}


def integral_reduced_homology(X: SimplicialComplex,
                              ks: list[int]) -> dict[int, tuple[int, tuple]]:
    """(free rank, torsion invariant factors) over the integers.

    The boundaries of `boundary_entries` are scattered into dense integer
    matrices, so each is guarded: one with more than FACE_CAP cells
    raises FeasibilityError.
    """
    # each boundary is guarded before any is built, and reduced once
    needed = sorted({d for k in ks for d in (k, k + 1)})
    for d in needed:
        rows, cols = len(X.faces(d - 1)), len(X.faces(d))
        if rows * cols > FACE_CAP:
            raise FeasibilityError(
                f"boundary matrix {rows} x {cols} in dimension {d} "
                f"exceeds the cap {FACE_CAP}")
    snf = {}
    for d in needed:
        rows, cols, vals, nrows, ncols = boundary_entries(X, d)
        D = np.zeros((nrows, ncols), dtype=np.int64)
        D[rows, cols] = vals
        snf[d] = exactlin.smith_normal_form(D) if D.size else ()
    return {k: (len(X.faces(k)) - len(snf[k]) - len(snf[k + 1]),
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
    if n < 0:
        raise ValueError(f"rank n must be nonnegative, got {n}")
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
    # SU vertices renumbered by label: SPB's numbers first, then new ones
    label_id = {lab: i for i, lab in enumerate(SPB.vertices)}
    su_id = np.array([label_id.setdefault(lab, len(label_id))
                      for lab in SU.vertices], dtype=np.int64)
    ok = True
    detail = {}
    for l in range(min(lmax, SU.dimension()) + 1):
        su_faces = _lex_distinct(np.sort(su_id[SU.faces(l)], axis=1))
        spb_faces = SPB.faces(l)
        contained = _rows_occur(spb_faces, su_faces)
        detail[l] = {"su": len(su_faces), "spb": len(spb_faces),
                     "contained": contained}
        ok = ok and contained
    return {"lmax": lmax, "detail": detail, "all_contained": ok}


def _rows_occur(faces: np.ndarray, rows: np.ndarray) -> bool:
    """Is every row of `rows` a row of the face array `faces`?"""
    if not len(faces):
        return not len(rows)
    at = np.minimum(face_index(faces, rows), len(faces) - 1)
    return bool((faces[at] == rows).all())


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
