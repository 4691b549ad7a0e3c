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
from .errors import FeasibilityError, InternalConsistencyError
from .splitbases import SimplicialComplex

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
    if abelian and exactlin.is_prime(exponent):
        r = round(math.log(order, exponent)) if order > 1 else 0
        if exponent ** r == order:
            rank = r
    return {"order": order, "abelian": abelian, "exponent": exponent,
            "elementary_abelian_rank": rank}


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


def _bar_faces(table: np.ndarray, j: int, action=None, nb: int = 1
               ) -> tuple[np.ndarray, np.ndarray]:
    """The bar boundary from degree j >= 1 as (faces, signs): row
    n * nb + c is the cell (g_1, ..., g_j) x c, c < nb, its tuple encoded
    base |G| (g_1 most significant) as n, and faces[n * nb + c, i] is the
    cell of its i-th face, with coefficient signs[n * nb + c, i].

    Coefficients are trivial when `action` is None; otherwise they form
    the signed permutation module given by action = (images, signs), two
    |G| x nb arrays: g sends coefficient cell c to sign * cell images[g, c].
    The last face carries g_j acting on c.  Coincident faces are listed
    separately; `exactlin.complex_ranks` sums them.
    """
    order = len(table)
    if action is None:
        action = (np.broadcast_to(np.arange(nb), (order, nb)),
                  np.ones((order, nb), dtype=np.int64))
    pw = [order ** e for e in range(j + 1)]
    n = np.arange(pw[j], dtype=np.int64)
    digit = [n // pw[j - i] % order for i in range(1, j + 1)]   # g_1 .. g_j
    codes = [n % pw[j - 1]]
    for i in range(1, j):
        merged = n // pw[j - i + 1] * order + table[digit[i - 1], digit[i]]
        codes.append(merged * pw[j - i - 1] + n % pw[j - i - 1])
    inner = np.stack(codes, axis=1)[:, None, :] * nb + np.arange(nb)[:, None]
    images, twist = action
    tail = (n // order * nb)[:, None] + images[digit[-1]]
    tail_sign = (-1 if j % 2 else 1) * twist[digit[-1]]
    faces = np.concatenate([inner, tail[:, :, None]], axis=2)
    signs = np.broadcast_to(np.where(np.arange(j) % 2, -1, 1), inner.shape)
    signs = np.concatenate([signs, tail_sign[:, :, None]], axis=2)
    return faces.reshape(-1, j + 1), signs.reshape(-1, j + 1)


def _bar_entries(table: np.ndarray, j: int):
    """Entry arrays (rows, cols, vals, nrows, ncols) of the bar boundary
    from degree j >= 0 to j - 1; the one from degree 0 is zero."""
    order = table.shape[0]
    if j == 0:
        return (np.zeros(0, dtype=np.int64),) * 3 + (0, 1)
    return exactlin.index_entries(*_bar_faces(table, j)) + (
        order ** (j - 1), order ** j)


def _bar_rank(table: np.ndarray, j: int, p: int) -> int:
    """Rank over F_p of the bar boundary from degree j >= 0 to j - 1."""
    return exactlin.entry_rank(*_bar_entries(table, j), p)


def _bar_cap(p: int) -> int:
    # the rows of a wide boundary at p = 3 are packed ints of 3-bit fields,
    # still slower per column than the GF(2) bitsets: on a 2-core Xeon,
    # with clearing, 0.039 s for the 19,683 columns of d_3 of (Z/3)^3
    # against 0.110 s for the 65,536 of d_4 of (Z/2)^4 (0.088 s and
    # 0.160 s without; as dicts d_3 took 0.136 s, 0.411 s without), and
    # other odd p reduce dicts.  So odd p keep a smaller direct-bar
    # budget; raising it would reroute cases and change what is refused.
    return BAR_CAP if p == 2 else BAR_CAP_ODD


def _block_cap(p: int) -> int:
    return EQ_BLOCK_CAP_GF2 if p == 2 else EQ_BLOCK_CAP_ODD


def bar_homology_from_table(table: np.ndarray, k: int, p: int) -> int:
    """dim H_k(G; F_p) of the group with multiplication table `table`,
    from its bar boundaries d_k and d_{k+1}, ranked in one pass."""
    if k < 0:
        raise ValueError(f"degree {k} must be nonnegative")
    order = table.shape[0]
    if order ** (k + 1) > _bar_cap(p):
        raise FeasibilityError(
            f"bar chain space {order}^{k + 1} exceeds the cap {_bar_cap(p)}")
    return order ** k - sum(exactlin.complex_ranks(
        (_bar_entries(table, j) for j in (k, k + 1)), p))


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
    if k < 0:
        raise ValueError(f"degree {k} must be nonnegative")
    if isinstance(G, (list, tuple)):
        if not G or min(G) < 1:
            raise ValueError(f"expected one or more positive cyclic orders, "
                             f"got {list(G)}")
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


def hk_fi_module(k: int, p: int, N: int) -> fi_core.FIModuleWindow:
    """The degree-k homology of the congruence kernels at Z/p^2 as a
    truncated FI-module, for k in {1, 2}.

    k=1 is the matrix-entry permutation module (the abelianization);
    k=2 is its divided square for p=2 and its exterior square plus a
    linear part for odd p.  The models are gated against the bar oracle
    at the first two levels before being returned.
    """
    if k not in (1, 2):
        raise ValueError("only k in {1, 2} is modelled")
    if N > 8:
        raise ValueError("window too large")
    bases: list[list] = []
    for n in range(N + 1):
        ent = [(i, j) for i in range(n) for j in range(n)]
        if k == 1:
            bases.append(ent)
        elif p == 2:
            bases.append([(a, b) for a in ent for b in ent if a <= b])
        else:
            bases.append([("w", a, b) for a in ent for b in ent if a < b]
                         + [("l", a) for a in ent])

    def act(n: int, i: int, b):
        # conjugation by s_i acts on both coordinates of a matrix entry
        if k == 1:
            return fi_core.transpose(i, b), 1
        if p == 2:
            return tuple(sorted(fi_core.transpose(i, e) for e in b)), 1
        if b[0] == "l":
            return ("l", fi_core.transpose(i, b[1])), 1
        x, y = fi_core.transpose(i, b[1]), fi_core.transpose(i, b[2])
        return (("w", x, y), 1) if x < y else (("w", y, x), -1)

    M = fi_core.signed_permutation_window(
        p, N, bases, act, name=f"H_{k}(ker GL(Z/{p * p}) -> GL(Z/{p}))")
    fi_core.assert_valid(M)
    for n in range(min(N, 2) + 1):
        G = splitbases.congruence_group(p * p, p, n)
        want = bar_homology_oracle(G, k, p)
        if M.dims[n] != want:
            raise InternalConsistencyError(
                f"model dim {M.dims[n]} at level {n} disagrees with the bar "
                f"oracle {want}")
    return M


# ---------------------------------------------------------------------------
# total complexes of bar double complexes
# ---------------------------------------------------------------------------


def _total_dims(blocks, degrees, p: int) -> dict[int, int]:
    """Dimension of the total complex in each degree, against the cap.

    blocks(t) lists the (x, y, size) blocks with x + y = t, in the order
    in which their cells are numbered.
    """
    cap = _block_cap(p)
    dims = {}
    for t in degrees:
        dims[t] = sum(size for _, _, size in blocks(t))
        if dims[t] > cap:
            raise FeasibilityError(
                f"total complex dimension {dims[t]} in degree {t} exceeds "
                f"the cap {cap}")
    return dims


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
        X = self.complex
        for g in range(order):
            if not X.maps_onto(self.vertex_action[g], X):
                errors.append(f"element {g} does not preserve the complex")
                break
        # every pair (a, b), one first element at a time
        act = self.vertex_action
        for a in range(order):
            if not (act[self.table[a]] == act[a][act]).all():
                errors.append("vertex action is not a homomorphism")
                break
        return errors


def _face_action(faces: np.ndarray, vmaps: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Images and orientation signs of the faces under each vertex map,
    one row per map: the sign is the parity of the sort that puts each
    image in order."""
    mapped = vmaps[:, faces]
    order = np.argsort(mapped, axis=2, kind="stable")
    inversions = np.zeros(mapped.shape[:2], dtype=np.int64)
    for a, b in itertools.combinations(range(faces.shape[1]), 2):
        inversions += order[..., a] > order[..., b]
    img = splitbases.face_index(
        faces, np.take_along_axis(mapped, order, axis=2).reshape(
            -1, faces.shape[1]))
    return img.reshape(mapped.shape[:2]), 1 - 2 * (inversions % 2)


def equivariant_homology(E: EquivariantInput, k_max: int) -> dict[int, int]:
    """Reduced equivariant homology dims for degrees -1 .. k_max.

    Defined as homology of the total complex of (truncated bar
    resolution) tensor (augmented simplicial chains) over the group; the
    augmentation lives in chain degree -1.  The resolution runs to depth
    k_max + 2, one degree of slack: truncating it at k_max + 1 changes
    only the boundary out of degree k_max + 1, which loses the block
    (k_max + 2, -1).  When X has a vertex, that boundary's rank is
    computed both ways, and a mismatch raises.  For X = {()} nothing
    maps onto the block (k_max + 1, -1), so depth k_max + 1 really is too
    short there and the comparison is skipped; depth k_max + 2 holds
    every block of total degree <= k_max + 1, so the answer stands.
    """
    errors = E.validate()
    if errors:
        raise ValueError("; ".join(errors))
    p = E.p
    exactlin._check_p(p)
    order = E.table.shape[0]
    X = E.complex
    top = X.dimension()
    faces = {b: X.faces(b) for b in range(-1, top + 1)}
    cdims = {b: len(faces[b]) for b in range(-1, top + 1)}
    # group action on each face list
    facts = {b: _face_action(faces[b], E.vertex_action)
             for b in range(0, top + 1)}
    bdry = {b: splitbases.boundary_entries(X, b) for b in range(0, top + 1)}

    def blocks(t: int) -> list[tuple[int, int, int]]:
        # x = bar degree a, y = simplicial degree b
        return [(a, t - a, order ** a * cdims[t - a])
                for a in range(t + 2) if t - a <= top]

    def bar(a: int, b: int):
        return exactlin.index_entries(
            *_bar_faces(E.table, a, facts.get(b), cdims[b]))

    def simplicial(a: int, b: int):
        *entries, nrows, ncols = bdry[b]
        return fi_homology.tensor_identity(order ** a, entries, nrows, ncols)

    degrees = range(-1, k_max + 2)
    dims = _total_dims(blocks, degrees, p)
    ranks = dict(zip(degrees, exactlin.complex_ranks(
        (fi_homology.total_entries(blocks, bar, simplicial, t)
         for t in degrees), p)))

    def lean(t: int) -> list[tuple[int, int, int]]:
        return [blk for blk in blocks(t) if blk[0] <= k_max + 1]

    if top >= 0:
        full = ranks[k_max + 1]
        lean_rank = exactlin.entry_rank(
            *fi_homology.total_entries(lean, bar, simplicial, k_max + 1), p)
        if lean_rank != full:
            raise InternalConsistencyError(
                f"resolution truncation is unstable: the degree-{k_max + 1} "
                f"boundary has rank {lean_rank} at depth {k_max + 1} and "
                f"{full} at depth {k_max + 2}")
    return {t: dims[t] - ranks[t] - ranks[t + 1] for t in range(-1, k_max + 1)}


# ---------------------------------------------------------------------------
# hyper FI-homology of the bar complexes of a congruence tower
# ---------------------------------------------------------------------------


def bar_fi_modules(groups: list, jmax: int) -> list[list[list[np.ndarray]]]:
    """Insertion index maps of the bar chain FI-modules B_0 .. B_jmax of a
    tower of congruence kernels, groups[n] at level n.

    ins[j][m][t] sends each j-tuple of level m to its image under the
    order embedding [m] -> [m+1] missing t, which puts g in the rows and
    columns other than t and the identity's 1 at (t, t); it acts on tuples
    entrywise, encoded base |groups[m]| and base |groups[m+1]|.
    """
    g_ins = []
    for m, (G, H) in enumerate(zip(groups, groups[1:])):
        maps = []
        for t in range(m + 1):
            keep = np.delete(np.arange(m + 1), t)
            emb = np.zeros((G.order, m + 1, m + 1), dtype=np.int64)
            emb[:, t, t] = 1
            emb[:, keep[:, None], keep] = G.mats
            maps.append(H.indices_of(emb))
        g_ins.append(maps)
    return [[[_diagonal_extension(g, j, H.order) for g in maps]
             for maps, H in zip(g_ins, groups[1:])]
            for j in range(jmax + 1)]


def _diagonal_extension(gmap: np.ndarray, j: int, order: int) -> np.ndarray:
    """Extend an index map on group elements to j-tuples, tuples encoded
    base len(gmap) in the source and base `order` in the target."""
    out = np.zeros(1, dtype=np.int64)
    for _ in range(j):
        out = (out[:, None] * order + gmap).ravel()
    return out


def hyper_fi_bar_homology(m: int, q: int, n: int, k: int, p: int) -> int:
    """Level-n dimension of the degree-k hyper FI-homology of the bar
    chain complex of the congruence kernels.

    Totalizes the subset-indexed Koszul construction over the bar
    complexes.  Degrees k - 1 .. k + 1 of the total complex reach bar
    degree k + 1 at most, so B_0 .. B_{k+1} are built and nothing beyond.
    """
    exactlin._check_p(p)
    groups = [splitbases.congruence_group(m, q, t) for t in range(n + 1)]
    orders = [G.order for G in groups]

    def blocks(t: int) -> list[tuple[int, int, int]]:
        # x = number of removed points r, y = bar degree j
        return [(t - j, j, math.comb(n, t - j) * orders[n - t + j] ** j)
                for j in range(t + 1) if t - j <= n]

    dims = _total_dims(blocks, range(max(0, k - 1), k + 2), p)
    ins = bar_fi_modules(groups, k + 1)
    tables = [G.multiplication_table() for G in groups]

    def koszul(r: int, j: int):
        lev = n - r
        cols = [[{i: 1} for i in g.tolist()] for g in ins[j][lev]]
        return exactlin.column_entries(fi_homology.koszul_columns(
            cols, n, r, orders[lev + 1] ** j))

    def bar(r: int, j: int):
        lev = n - r
        entries = exactlin.index_entries(*_bar_faces(tables[lev], j))
        return fi_homology.tensor_identity(math.comb(n, r), entries,
                                           orders[lev] ** (j - 1),
                                           orders[lev] ** j)

    return dims[k] - sum(exactlin.complex_ranks(
        (fi_homology.total_entries(blocks, koszul, bar, t)
         for t in (k, k + 1)), p))


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
    if k < 0:
        raise ValueError(f"degree k must be nonnegative, got {k}")
    if n > 3 or k > 2:
        raise ValueError("only n <= 3, k <= 2 supported")
    m, q = p ** ell, p
    lhs = hyper_fi_bar_homology(m, q, n, k, p)
    G = splitbases.congruence_group(m, q, n)
    X, vid = splitbases.spb_orbit(G)
    table = G.multiplication_table()
    # g . vid[h, i] = vid[gh, i]
    vmaps = np.zeros((G.order, len(X.vertices)), dtype=np.int64)
    vmaps[:, vid] = vid[table]
    E = EquivariantInput(table, X, vmaps, p)
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
