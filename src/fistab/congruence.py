"""Group homology of matrix congruence kernels at finite level.

Structure identification, a bar-resolution homology oracle, explicit
truncated FI-module models for the first two homology functors of
n -> GL_n(Z/p^2, p), equivariant homology of a group action on a
simplicial complex via the augmented chain complex, and the numerical
cross-check equating hyper FI-homology of the bar complexes with the
equivariant homology of the split-basis complex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import exactlin, fi_core, fi_homology, splitbases
from .fi_homology import InternalConsistencyError
from .splitbases import FeasibilityError, FiniteModRing, SimplicialComplex

BAR_CAP = 1 << 20
BAR_CAP_ODD = 1 << 16
EQ_BLOCK_CAP_GF2 = 1 << 20
EQ_BLOCK_CAP_ODD = 1 << 17


# ---------------------------------------------------------------------------
# structure identification
# ---------------------------------------------------------------------------


def identify_structure(m: int, q: int, n: int) -> dict:
    """Order, abelianity, exponent, and elementary-abelian rank of the
    congruence kernel in GL_n(Z/m) at the ideal (q)."""
    G = splitbases.congruence_group(m, q, n)
    order = G.order
    mats = G.mats
    if n == 0 or order == 1:
        return {"order": order, "abelian": True, "exponent": 1,
                "elementary_abelian_rank": 0 if order == 1 else None}
    if (q * q) % m == 0:
        # (I+qA)(I+qB) = I + q(A+B) once q^2 = 0, so the kernel is the
        # additive group of matrices over Z/(m/q); still verify exponent
        # on the actual elements
        abelian = True
        exponent = m // q
    else:
        if order > 4096:
            raise FeasibilityError("pairwise commutation check too large")
        abelian = True
        for j in range(order):
            if not (mats @ mats[j] % m == mats[j] @ mats % m).all():
                abelian = False
                break
        exponent = 1
        ident = np.eye(n, dtype=np.int64)
        for g in mats:
            e, acc = 1, g
            while not (acc == ident).all():
                acc = acc @ g % m
                e += 1
                if e > order:
                    raise InternalConsistencyError("element order overflow")
            exponent = exponent * e // math.gcd(exponent, e)
    # confirm the exponent annihilates every element
    acc = np.broadcast_to(np.eye(n, dtype=np.int64), mats.shape).copy()
    for _ in range(exponent):
        acc = acc @ mats % m  # acc walks g^0 .. g^exponent elementwise
    if not (acc == np.eye(n, dtype=np.int64)[None]).all():
        raise InternalConsistencyError("claimed exponent does not annihilate")
    rank = None
    if abelian and _is_prime(exponent):
        r = round(math.log(order, exponent)) if order > 1 else 0
        if exponent ** r == order:
            rank = r
    return {"order": order, "abelian": abelian, "exponent": exponent,
            "elementary_abelian_rank": rank}


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    for d in range(2, int(x ** 0.5) + 1):
        if x % d == 0:
            return False
    return True


def cohom_dim_formula(r: int, k: int) -> int:
    """Dimension of degree-k (co)homology of a rank-r elementary abelian
    group with prime-field coefficients: coefficient of t^k in
    (1 + t + t^2 + ...)^r."""
    if r < 0 or k < 0:
        raise ValueError("rank and degree must be nonnegative")
    if r == 0:
        return 1 if k == 0 else 0
    return math.comb(r + k - 1, k)


# ---------------------------------------------------------------------------
# bar-resolution homology oracle
# ---------------------------------------------------------------------------


def _cyclic_table(q: int) -> np.ndarray:
    a = np.arange(q)
    return (a[:, None] + a[None, :]) % q


def _bar_column(tup: tuple[int, ...], table: np.ndarray,
                order: int) -> dict[int, int]:
    """Boundary of one bar chain (g_1, ..., g_j) with trivial
    coefficients, as a sparse column indexed base `order`."""
    j = len(tup)
    col: dict[int, int] = {}

    def add(t: tuple[int, ...], sgn: int):
        idx = 0
        for g in t:
            idx = idx * order + g
        col[idx] = col.get(idx, 0) + sgn

    add(tup[1:], 1)
    for i in range(1, j):
        merged = tup[:i - 1] + (int(table[tup[i - 1], tup[i]]),) + tup[i + 1:]
        add(merged, -1 if i % 2 else 1)
    add(tup[:-1], -1 if j % 2 else 1)
    return col


def _bar_rank(table: np.ndarray, j: int, p: int) -> int:
    """Rank over F_p of the bar boundary from degree j to j - 1."""
    if j <= 0:
        return 0
    order = table.shape[0]
    nrows = order ** (j - 1)
    cols = []
    for tup in itertools.product(range(order), repeat=j):
        col = _bar_column(tup, table, order)
        col = {r: v % p for r, v in col.items() if v % p}
        cols.append(col)
    return exactlin.sparse_rank_modp(cols, nrows, p)


def _bar_cap(p: int) -> int:
    # odd-prime columns reduce as python dicts, far slower than the
    # GF(2) int-bitset reduction, so they get a smaller direct-bar budget
    return BAR_CAP if p == 2 else BAR_CAP_ODD


def bar_homology_from_table(table: np.ndarray, k: int, p: int) -> int:
    order = table.shape[0]
    if order ** (k + 1) > _bar_cap(p):
        raise FeasibilityError(
            f"bar chain space {order}^{k + 1} exceeds the cap {_bar_cap(p)}")
    return order ** k - _bar_rank(table, k, p) - _bar_rank(table, k + 1, p)


def homology_dims_product(orders: list[int], p: int, k_max: int) -> list[int]:
    """H_k dims of a product of cyclic groups, by honest bar computation
    on the factors assembled with the field Kuenneth formula."""
    dims = [1] + [0] * k_max
    for q in orders:
        h = [bar_homology_from_table(_cyclic_table(q), k, p)
             for k in range(k_max + 1)]
        dims = [sum(dims[i] * h[k - i] for i in range(k + 1))
                for k in range(k_max + 1)]
    return dims


def bar_homology_oracle(G, k: int, p: int) -> int:
    """dim H_k(G; F_p) via the truncated bar complex.

    `G` may be a CongruenceGroup, a multiplication table, or a list of
    cyclic factor orders.  When the direct bar complex is too large the
    cyclic-factor route is used (factors computed by bar, assembled by
    the Kuenneth formula over the field); a congruence kernel too large
    for bar must identify as elementary abelian to take that route.
    """
    exactlin._check_p(p)
    if isinstance(G, (list, tuple)):
        order = math.prod(G)
        if order ** (k + 1) <= _bar_cap(p):
            table = _cyclic_table(G[0]) if len(G) == 1 else None
            if table is None:
                table = _product_table([_cyclic_table(q) for q in G])
            return bar_homology_from_table(table, k, p)
        return homology_dims_product(list(G), p, k)[k]
    if isinstance(G, np.ndarray):
        return bar_homology_from_table(G, k, p)
    # congruence kernel
    if G.order ** (k + 1) <= _bar_cap(p):
        return bar_homology_from_table(G.multiplication_table(), k, p)
    info = identify_structure(G.ring.m, G.ring.q, G.n)
    r = info["elementary_abelian_rank"]
    if r is None:
        raise FeasibilityError("group too large and not elementary abelian")
    return bar_homology_oracle([info["exponent"]] * r, k, p)


def _product_table(tables: list[np.ndarray]) -> np.ndarray:
    tab = tables[0]
    for t in tables[1:]:
        a, b = tab.shape[0], t.shape[0]
        if (a * b) ** 2 > 1 << 24:
            raise FeasibilityError("product multiplication table too large")
        big = (tab[:, None, :, None] * b + t[None, :, None, :])
        tab = big.reshape(a * b, a * b)
    return tab


# ---------------------------------------------------------------------------
# homology FI-modules of n -> GL_n(Z/p^2, p)
# ---------------------------------------------------------------------------


def _entry_basis(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n)]


def _perm_on_entries(n: int, s: int) -> dict:
    """Conjugation by the adjacent transposition (s, s+1) permutes the
    matrix-entry basis by acting on both coordinates."""
    def sw(x):
        return s + 1 if x == s else s if x == s + 1 else x
    return {(i, j): (sw(i), sw(j)) for i, j in _entry_basis(n)}


def _permutation_matrix(basis: list, images: dict, signs: dict | None,
                        p: int) -> np.ndarray:
    index = {b: i for i, b in enumerate(basis)}
    A = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for b in basis:
        sgn = 1 if signs is None else signs[b]
        A[index[images[b]], index[b]] = sgn % p
    return A


def hk_fi_module(k: int, p: int, N: int) -> fi_core.FIModuleWindow:
    """The degree-k homology of the congruence kernels at Z/p^2 as a
    truncated FI-module, for k in {1, 2}.

    k=1 is the matrix-entry permutation module (the abelianization);
    k=2 is its divided square for p=2 and its exterior square plus a
    linear part for odd p.  The models are gated against the bar oracle
    at the first two levels before being returned.
    """
    exactlin._check_p(p)
    if k not in (1, 2):
        raise ValueError("only k in {1, 2} is modelled")
    if N > 8:
        raise ValueError("window too large")
    bases: list[list] = []
    for n in range(N + 1):
        ent = _entry_basis(n)
        if k == 1:
            bases.append(ent)
        elif p == 2:
            bases.append([(a, b) for a in ent for b in ent if a <= b])
        else:
            bases.append([("w", a, b) for a in ent for b in ent if a < b]
                         + [("l", a) for a in ent])
    dims = [len(b) for b in bases]
    act, phi = [], [None]
    for n in range(N + 1):
        mats = []
        for s in range(n - 1):
            pe = _perm_on_entries(n, s)
            if k == 1:
                img = {a: pe[a] for a in bases[n]}
                sg = None
            elif p == 2:
                img = {(a, b): tuple(sorted((pe[a], pe[b])))
                       for a, b in bases[n]}
                sg = None
            else:
                img, sg = {}, {}
                for b in bases[n]:
                    if b[0] == "l":
                        img[b] = ("l", pe[b[1]])
                        sg[b] = 1
                    else:
                        x, y = pe[b[1]], pe[b[2]]
                        img[b] = ("w", x, y) if x < y else ("w", y, x)
                        sg[b] = 1 if x < y else -1
            mats.append(_permutation_matrix(bases[n], img, sg, p))
        act.append(mats)
        if n >= 1:
            index = {b: i for i, b in enumerate(bases[n])}
            F = np.zeros((dims[n], dims[n - 1]), dtype=np.int64)
            for c, b in enumerate(bases[n - 1]):
                F[index[b], c] = 1
            phi.append(F)
    M = fi_core.FIModuleWindow(p=p, N=N, dims=dims, act=act, phi=phi,
                               name=f"H_{k}(ker GL(Z/{p * p}) -> GL(Z/{p}))")
    fi_core.assert_valid(M)
    for n in range(min(N, 2) + 1):
        G = splitbases.congruence_group(p * p, p, n)
        want = bar_homology_oracle(G, k, p)
        if dims[n] != want:
            raise InternalConsistencyError(
                f"model dim {dims[n]} at level {n} disagrees with the bar "
                f"oracle {want}")
    return M


# ---------------------------------------------------------------------------
# equivariant homology of a simplicial action
# ---------------------------------------------------------------------------


@dataclass
class EquivariantInput:
    table: np.ndarray            # group multiplication, indices 0..|G|-1
    complex: SimplicialComplex
    vertex_action: np.ndarray    # (|G|, nverts) images of vertices
    p: int

    def validate(self) -> list[str]:
        errors = []
        order = self.table.shape[0]
        if self.table.shape != (order, order):
            errors.append("multiplication table not square")
        if self.vertex_action.shape[0] != order:
            errors.append("one vertex map per group element required")
        maximal = self.complex.maximal
        for g in range(order):
            img = {frozenset(int(self.vertex_action[g, v]) for v in mx)
                   for mx in maximal}
            if img != maximal:
                errors.append(f"element {g} does not preserve the complex")
                break
        rng = np.random.default_rng(0)
        for _ in range(min(order * order, 64)):
            a, b = rng.integers(order, size=2)
            lhs = self.vertex_action[self.table[a, b]]
            rhs = self.vertex_action[a][self.vertex_action[b]]
            if not (lhs == rhs).all():
                errors.append("vertex action is not a homomorphism")
                break
        return errors


def _face_action(faces: list[tuple[int, ...]], vmap: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Images and orientation signs of the faces under one vertex map."""
    index = {f: i for i, f in enumerate(faces)}
    img = np.zeros(len(faces), dtype=np.int64)
    sgn = np.zeros(len(faces), dtype=np.int64)
    for i, f in enumerate(faces):
        mapped = [int(vmap[v]) for v in f]
        order = sorted(range(len(mapped)), key=lambda t: mapped[t])
        img[i] = index[tuple(mapped[t] for t in order)]
        inversions = sum(1 for a in range(len(order))
                         for b in range(a + 1, len(order))
                         if order[a] > order[b])
        sgn[i] = -1 if inversions % 2 else 1
    return img, sgn


def equivariant_homology(E: EquivariantInput, k_max: int,
                         depth: int | None = None,
                         _slack_check: bool = True) -> dict[int, int]:
    """Reduced equivariant homology dims for degrees -1 .. k_max.

    Defined as homology of the total complex of (truncated bar
    resolution) tensor (augmented simplicial chains) over the group; the
    augmentation lives in chain degree -1.  The default resolution depth
    carries one degree of slack, and the truncated and slack answers are
    compared; a mismatch raises.
    """
    errors = E.validate()
    if errors:
        raise ValueError("; ".join(errors))
    p = E.p
    exactlin._check_p(p)
    if depth is None:
        depth = k_max + 2
    if depth < k_max + 1:
        raise ValueError("resolution depth below the truncation minimum")
    order = E.table.shape[0]
    X = E.complex
    top = X.dimension()
    faces = {b: X.faces(b) for b in range(-1, top + 1)}
    # group action on each face list, and the inverse permutation of G
    facts = {b: [_face_action(faces[b], E.vertex_action[g])
                 for g in range(order)] for b in range(0, top + 1)}
    cdims = {b: len(faces[b]) for b in range(-1, top + 1)}
    # simplicial boundary of each face as a sparse column
    bdry: dict[int, list[dict[int, int]]] = {}
    for b in range(0, top + 1):
        cols = []
        if b == 0:
            cols = [{0: 1} for _ in faces[0]]
        else:
            index = {f: i for i, f in enumerate(faces[b - 1])}
            for f in faces[b]:
                col = {}
                for j in range(b + 1):
                    col[index[f[:j] + f[j + 1:]]] = 1 if j % 2 == 0 else -1
                cols.append(col)
        bdry[b] = cols

    def blocks(t: int) -> list[tuple[int, int, int]]:
        # (a, b, offset) with a + b = t
        out, off = [], 0
        for a in range(0, depth + 1):
            b = t - a
            if -1 <= b <= top:
                out.append((a, b, off))
                off += order ** a * cdims[b]
        return out

    def total_dim(t: int) -> int:
        return sum(order ** a * cdims[b] for a, b, _ in blocks(t))

    for t in range(-1, k_max + 2):
        cap = EQ_BLOCK_CAP_GF2 if p == 2 else EQ_BLOCK_CAP_ODD
        if total_dim(t) > cap:
            raise FeasibilityError(
                f"total complex dimension {total_dim(t)} in degree {t} "
                f"exceeds the cap {cap}")

    def boundary_columns(t: int) -> tuple[list[dict[int, int]], int]:
        """Sparse columns of the total differential degree t -> t-1."""
        src, dst = blocks(t), blocks(t - 1)
        dst_off = {(a, b): off for a, b, off in dst}
        cols: list[dict[int, int]] = []
        for a, b, _ in src:
            nb = cdims[b]
            for tup in itertools.product(range(order), repeat=a):
                for c in range(nb):
                    col: dict[int, int] = {}
                    # horizontal bar part: lands in (a-1, b)
                    if a >= 1 and (a - 1, b) in dst_off:
                        base = dst_off[(a - 1, b)]
                        terms: dict[int, int] = {}

                        def put(t2: tuple[int, ...], face: int, sgn: int):
                            idx = 0
                            for g in t2:
                                idx = idx * order + g
                            idx = idx * nb + face
                            terms[idx] = terms.get(idx, 0) + sgn

                        put(tup[1:], c, 1)
                        for i in range(1, a):
                            merged = tup[:i - 1] + (
                                int(E.table[tup[i - 1], tup[i]]),) + tup[i + 1:]
                            put(merged, c, -1 if i % 2 else 1)
                        if b >= 0:
                            img, sg = facts[b][tup[-1]]
                            put(tup[:-1], int(img[c]),
                                (-1 if a % 2 else 1) * int(sg[c]))
                        else:
                            put(tup[:-1], c, -1 if a % 2 else 1)
                        for idx, v in terms.items():
                            if v % p:
                                col[base + idx] = (col.get(base + idx, 0) + v) % p
                    # vertical simplicial part: lands in (a, b-1), sign (-1)^a
                    if b >= 0 and (a, b - 1) in dst_off:
                        base = dst_off[(a, b - 1)]
                        pre = 0
                        for g in tup:
                            pre = pre * order + g
                        s = -1 if a % 2 else 1
                        for r, v in bdry[b][c].items():
                            idx = base + pre * cdims[b - 1] + r
                            col[idx] = (col.get(idx, 0) + s * v) % p
                    cols.append({r: v for r, v in col.items() if v})
        return cols, total_dim(t - 1)

    rank_cache: dict[int, int] = {}

    def rank_at(t: int) -> int:
        if t not in rank_cache:
            cols, nrows = boundary_columns(t)
            rank_cache[t] = exactlin.sparse_rank_modp(cols, nrows, p)
        return rank_cache[t]

    out = {}
    for t in range(-1, k_max + 1):
        out[t] = total_dim(t) - rank_at(t) - rank_at(t + 1)
    if _slack_check and depth >= k_max + 2:
        lean = equivariant_homology(E, k_max, depth=k_max + 1,
                                    _slack_check=False)
        if lean != out:
            raise InternalConsistencyError(
                f"resolution truncation is unstable: {lean} vs {out}")
    return out


# ---------------------------------------------------------------------------
# hyper FI-homology of the bar complexes of a congruence tower
# ---------------------------------------------------------------------------


class BasedFIModule:
    """An FI-module window whose every structure matrix is a signed basis
    permutation or inclusion, stored as index maps.  Used for the bar
    chain FI-modules, whose levels are far too large for dense matrices.
    """

    def __init__(self, N: int, dims: list[int],
                 trans: list[list[np.ndarray]], incl: list[np.ndarray | None]):
        self.N = N
        self.dims = dims
        self.trans = trans   # trans[n][i]: image indices of s_i at level n
        self.incl = incl     # incl[n]: image indices of level n-1 in level n

    def perm_indices(self, n: int, sigma: list[int]) -> np.ndarray:
        """Index map of an arbitrary permutation at level n."""
        out = np.arange(self.dims[n], dtype=np.int64)
        for i in fi_core.adjacent_factorization(sigma):
            out = self.trans[n][i][out]
        return out

    def insertion_indices(self, m: int, t: int) -> np.ndarray:
        """Index map of the order embedding [m] -> [m+1] missing slot t."""
        sigma = fi_core.insertion_permutation(m, t)
        return self.perm_indices(m + 1, sigma)[self.incl[m + 1]]


def bar_fi_modules(m: int, q: int, N: int, jmax: int) -> list[BasedFIModule]:
    """The bar chain groups of the congruence kernels as based
    FI-modules B_j, j = 0 .. jmax; symmetric groups act by conjugation
    through permutation matrices, inclusions come from the group corner
    inclusions."""
    groups = [splitbases.congruence_group(m, q, n) for n in range(N + 1)]
    out = []
    orders = [G.order for G in groups]
    # per level: index maps of s_i and of the corner inclusion on GROUP
    # elements, then extended diagonally to bar tuples
    g_trans: list[list[np.ndarray]] = []
    g_incl: list[np.ndarray | None] = [None]
    for n, G in enumerate(groups):
        maps = []
        for i in range(n - 1):
            P = _transposition_matrix(n, i)
            conj = P @ G.mats @ P.T % m
            maps.append(G.indices_of(conj))
        g_trans.append(maps)
        if n >= 1:
            prev = groups[n - 1]
            emb = np.broadcast_to(np.eye(n, dtype=np.int64),
                                  (prev.order, n, n)).copy()
            emb[:, :n - 1, :n - 1] = prev.mats
            g_incl.append(G.indices_of(emb % m))
    for j in range(jmax + 1):
        dims = [o ** j for o in orders]
        trans, incl = [], [None]
        for n in range(N + 1):
            maps = [_diagonal_extension(g_trans[n][i], j, orders[n])
                    for i in range(n - 1)]
            trans.append(maps)
            if n >= 1:
                incl.append(_diagonal_extension(g_incl[n], j, orders[n],
                                                src_order=orders[n - 1]))
        out.append(BasedFIModule(N, dims, trans, incl))
    return out


def _transposition_matrix(n: int, i: int) -> np.ndarray:
    P = np.eye(n, dtype=np.int64)
    P[[i, i + 1]] = P[[i + 1, i]]
    return P


def _diagonal_extension(gmap: np.ndarray, j: int, order: int,
                        src_order: int | None = None) -> np.ndarray:
    """Extend an index map on group elements to j-tuples, base `order`
    encoding (source encoded base `src_order` when it differs)."""
    so = order if src_order is None else src_order
    if j == 0:
        return np.zeros(1, dtype=np.int64)
    out = np.zeros(so ** j, dtype=np.int64)
    for tup in itertools.product(range(so), repeat=j):
        src = 0
        for g in tup:
            src = src * so + g
        dst = 0
        for g in tup:
            dst = dst * order + int(gmap[g])
        out[src] = dst
    return out


def _bar_diff_columns(order: int, j: int, table: np.ndarray,
                      p: int) -> list[dict[int, int]]:
    cols = []
    for tup in itertools.product(range(order), repeat=j):
        col = _bar_column(tup, table, order)
        cols.append({r: v % p for r, v in col.items() if v % p})
    return cols


def hyper_fi_bar_homology(m: int, q: int, n: int, k: int, p: int) -> int:
    """Level-n dimension of the degree-k hyper FI-homology of the bar
    chain complex of the congruence kernels.

    Totalizes the subset-indexed Koszul construction over the bar
    complexes, truncated one degree beyond what the answer needs; the
    extra degree only enlarges matrices whose ranks are computed anyway.
    """
    exactlin._check_p(p)
    jmax = k + 2
    mods = bar_fi_modules(m, q, n, jmax)
    groups_orders = [splitbases.congruence_group(m, q, t).order
                     for t in range(n + 1)]
    tables = {t: splitbases.congruence_group(m, q, t).multiplication_table()
              for t in range(n + 1)}
    cap = EQ_BLOCK_CAP_GF2 if p == 2 else EQ_BLOCK_CAP_ODD

    def blocks(t: int) -> list[tuple[int, int, int]]:
        # (j, r, offset) with j + r = t, r counts removed points
        out, off = [], 0
        for j in range(0, min(t, jmax) + 1):
            r = t - j
            if 0 <= r <= n:
                out.append((j, r, off))
                off += math.comb(n, r) * mods[j].dims[n - r]
        return out

    def total_dim(t: int) -> int:
        return sum(math.comb(n, r) * mods[j].dims[n - r]
                   for j, r, _ in blocks(t))

    for t in range(max(0, k - 1), k + 2):
        if total_dim(t) > cap:
            raise FeasibilityError(
                f"hyper chain dimension {total_dim(t)} exceeds the cap")

    subsets = {r: list(itertools.combinations(range(n), r))
               for r in range(n + 1)}
    subset_index = {r: {R: i for i, R in enumerate(subs)}
                    for r, subs in subsets.items()}

    def boundary_columns(t: int) -> tuple[list[dict[int, int]], int]:
        src, dst = blocks(t), blocks(t - 1)
        dst_off = {(j, r): off for j, r, off in dst}
        cols: list[dict[int, int]] = []
        for j, r, _ in src:
            lev = n - r
            dim = mods[j].dims[lev]
            bar_cols = None
            if j >= 1 and (j - 1, r) in dst_off:
                bar_cols = _bar_diff_columns(groups_orders[lev], j,
                                             tables[lev], p)
            ins_maps = {}
            if r >= 1 and (j, r - 1) in dst_off:
                for t_ins in range(lev + 1):
                    ins_maps[t_ins] = mods[j].insertion_indices(lev, t_ins)
            for Ri, R in enumerate(subsets[r]):
                for c in range(dim):
                    col: dict[int, int] = {}
                    # Koszul part: remove the jj-th smallest element of R
                    if ins_maps:
                        base_r = dst_off[(j, r - 1)]
                        for jj, elem in enumerate(R):
                            R2 = R[:jj] + R[jj + 1:]
                            R2i = subset_index[r - 1][R2]
                            tpos = elem - jj
                            dst_c = int(ins_maps[tpos][c])
                            idx = base_r + (R2i * mods[j].dims[lev + 1]
                                            + dst_c)
                            s = -1 if jj % 2 else 1
                            col[idx] = (col.get(idx, 0) + s) % p
                    # complex (bar) part, with the totalization sign (-1)^r
                    if bar_cols is not None:
                        base_b = dst_off[(j - 1, r)]
                        s = -1 if r % 2 else 1
                        d2 = mods[j - 1].dims[lev]
                        for rr, v in bar_cols[c].items():
                            idx = base_b + Ri * d2 + rr
                            col[idx] = (col.get(idx, 0) + s * v) % p
                    cols.append({a: v for a, v in col.items() if v})
        return cols, total_dim(t - 1)

    def rank_at(t: int) -> int:
        cols, nrows = boundary_columns(t)
        return exactlin.sparse_rank_modp(cols, nrows, p)

    return total_dim(k) - rank_at(k) - rank_at(k + 1)


# ---------------------------------------------------------------------------
# the cross-check and the empirical application
# ---------------------------------------------------------------------------


def theoremC_check(p: int, ell: int, n: int, k: int) -> dict:
    """Compare the level-n degree-k hyper FI-homology of the bar
    complexes of the congruence kernels at Z/p^ell with the reduced
    equivariant homology of the split-basis complex in degree k - 1."""
    exactlin._check_p(p)
    if ell < 2:
        raise ValueError("exponent must be at least 2 for a proper ideal")
    if n > 3 or k > 2:
        raise ValueError("only n <= 3, k <= 2 supported")
    m, q = p ** ell, p
    lhs = hyper_fi_bar_homology(m, q, n, k, p)
    G = splitbases.congruence_group(m, q, n)
    X = splitbases.spb_complex(m, q, n, "spb_modI")
    vmaps = np.zeros((G.order, len(X.vertices)), dtype=np.int64)
    v_index = {lab: i for i, lab in enumerate(X.vertices)}
    inv = G.inverse_mats()
    for gi in range(G.order):
        g = G.mats[gi]
        gi_inv = inv[gi]
        for vi, (v, f) in enumerate(X.vertices):
            nv = tuple(int(x) for x in (g @ np.array(v)) % m)
            nf = tuple(int(x) for x in (np.array(f) @ gi_inv) % m)
            vmaps[gi, vi] = v_index[(nv, nf)]
    E = EquivariantInput(G.multiplication_table(), X, vmaps, p)
    rhs = equivariant_homology(E, max(k - 1, -1))[k - 1]
    return {"p": p, "ell": ell, "n": n, "k": k,
            "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


def application_b_empirical(k: int, p: int, N: int) -> dict:
    """Build the homology FI-module, measure its invariants, and score
    them against the closed-form congruence bounds at ring dimension 0."""
    from . import bounds
    M = hk_fi_module(k, p, N)
    inv = fi_homology.invariants(M)
    bb = bounds.congruence_bounds(0, k)
    fit = fi_homology.polynomial_fit(M, inv.delta, inv.hmax)
    report = {
        "module": M.name,
        "dims": M.dims,
        "delta": inv.delta,
        "delta_certified": inv.delta_certified,
        "t0": inv.t0,
        "t1": inv.t1,
        "hmax": inv.hmax,
        "hmax_certified": inv.hmax_certified,
        "fit_coeffs": list(fit.coeffs),
        "fit_onset": fit.onset,
        "bounds": bb,
        "delta_ok": inv.delta <= bb["delta_le"],
        "t0_ok": inv.t0 <= bb["t0_le"],
        "onset_ok": fit.onset <= bb["hmax_le"] + 1,
    }
    report["all_ok"] = (report["delta_ok"] and report["t0_ok"]
                       and report["onset_ok"])
    return report
