"""Truncated consistent sequences of symmetric-group representations.

A window stores, for 0 <= n <= N over F_p: the dimension of level n, the
matrices of the adjacent transpositions s_i = (i, i+1) acting on level n,
and the structure map from level n-1 into level n induced by the standard
inclusion.  All consistency identities (involution, braid, commutation,
equivariance of the structure maps, and the two-step symmetry of composed
structure maps) are checked by `validate`.

Every closed-form window (constant, torsion point, induced, free, and
the congruence homology modules) is a signed permutation module and is
built by the one constructor `signed_permutation_window`, from basis
labels and the signed action of each s_i on them.

Matrices are stored dense.  A window whose every matrix has at most one
nonzero entry mod p in each column (a monomial window: all of the
constructor's output, and their direct sums, shifts and derivatives) is
also read, by the one reader `read_labels`, into label maps: per matrix
the target row of each column and its value.  `validate` (reading them
afresh) and `observed_torsion` compose label maps, O(dim) per product,
and `derivative` keeps the rows outside the image of the structure map,
all without a dense elimination; `label_maps` keeps them in the window's
cache.  `shift` stays one dense product per level.  Other windows take the
dense route, which the reader selects by failing on their first matrix
with a fuller column.

Points of [n] = {0, ..., n-1} are 0-indexed throughout; s_i swaps points
i and i+1 for 0 <= i <= n-2.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import exactlin
from .errors import ValidationError, WindowError


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def adjacent_factorization(sigma: tuple[int, ...]) -> list[int]:
    """Write sigma as s_{i_k} .. s_{i_1} (apply i_1 first).

    Returned list is [i_1, ..., i_k]; sorting the one-line form by
    adjacent swaps records the factorization.
    """
    lst = list(sigma)
    swaps: list[int] = []
    done = False
    while not done:
        done = True
        for i in range(len(lst) - 1):
            if lst[i] > lst[i + 1]:
                lst[i], lst[i + 1] = lst[i + 1], lst[i]
                swaps.append(i)
                done = False
    return swaps


def matrix_of_permutation(trans_mats: list[np.ndarray], sigma, p: int,
                          dim: int) -> np.ndarray:
    """Action matrix of an arbitrary permutation from the adjacent ones.

    trans_mats[i] must represent s_i; representation property gives
    rho(sigma) as the product over an adjacent factorization.
    """
    out = np.eye(dim, dtype=np.int64)
    for i in adjacent_factorization(tuple(sigma)):
        out = exactlin.matmul_modp(trans_mats[i], out, p)
    return out


def transpose(i: int, points) -> tuple[int, ...]:
    """The points with i and i+1 exchanged: s_i applied to each."""
    return tuple([i + 1 if x == i else i if x == i + 1 else x for x in points])


def insertion_permutation(m: int, t: int) -> tuple[int, ...]:
    """Permutation of [m+1] sending i -> i for i < t, i -> i+1 for t <= i <= m-1
    and m -> t.  Composed with the standard inclusion it realizes the
    order-preserving injection [m] -> [m+1] whose image misses t."""
    out = list(range(m + 1))
    for i in range(t, m):
        out[i] = i + 1
    out[m] = t
    return tuple(out)


# ---------------------------------------------------------------------------
# finite sequences of S_m representations (no structure maps)
# ---------------------------------------------------------------------------


@dataclass
class FBWindow:
    """Levelwise S_m-representations for 0 <= m <= top degree."""

    p: int
    dims: list[int]
    trans: list[list[np.ndarray]]  # trans[m][i] = matrix of s_i on level m


def fb_zero(p: int, top: int) -> FBWindow:
    return FBWindow(p, [0] * (top + 1),
                    [[np.zeros((0, 0), dtype=np.int64)] * max(0, m - 1)
                     for m in range(top + 1)])


def _fb_holding(p: int, deg: int, top: int | None) -> FBWindow:
    """The zero window up to top (default deg), to hold level deg >= 0."""
    if deg < 0:
        raise ValueError(f"degree {deg} must be >= 0")
    top = deg if top is None else top
    if top < deg:
        raise ValueError(f"window top {top} is below the degree {deg}")
    return fb_zero(p, top)


def fb_trivial(p: int, deg: int, top: int | None = None) -> FBWindow:
    V = _fb_holding(p, deg, top)
    V.dims[deg] = 1
    V.trans[deg] = [np.eye(1, dtype=np.int64)] * max(0, deg - 1)
    return V


def fb_regular(p: int, deg: int, top: int | None = None) -> FBWindow:
    """The group algebra of S_deg as a left module over itself."""
    V = _fb_holding(p, deg, top)
    perms = list(itertools.permutations(range(deg)))
    index = {s: k for k, s in enumerate(perms)}
    V.dims[deg] = len(perms)
    # s_i sends the basis vector s to s_i o s, which is transpose(i, s)
    V.trans[deg] = [np.eye(len(perms), dtype=np.int64)[
        :, [index[transpose(i, s)] for s in perms]] for i in range(deg - 1)]
    return V


def fb_direct_sum(*parts: FBWindow) -> FBWindow:
    p = parts[0].p
    top = max(len(V.dims) for V in parts) - 1
    out = fb_zero(p, top)
    for m in range(top + 1):
        dims = [V.dims[m] if m < len(V.dims) else 0 for V in parts]
        out.dims[m] = sum(dims)
        mats = []
        for i in range(max(0, m - 1)):
            blocks = []
            for V, d in zip(parts, dims):
                blocks.append(V.trans[m][i] if d else
                              np.zeros((0, 0), dtype=np.int64))
            mats.append(_block_diag(blocks, out.dims[m]))
        out.trans[m] = mats
    return out


def _block_diag(blocks: list[np.ndarray], dim: int) -> np.ndarray:
    A = np.zeros((dim, dim), dtype=np.int64)
    off = 0
    for B in blocks:
        d = B.shape[0]
        A[off:off + d, off:off + d] = B
        off += d
    return A


# ---------------------------------------------------------------------------
# the windowed modules
# ---------------------------------------------------------------------------


@dataclass
class FIModuleWindow:
    p: int
    N: int
    dims: list[int]
    act: list[list[np.ndarray]]      # act[n][i]: s_i on level n, i <= n-2
    phi: list[np.ndarray | None]     # phi[n]: level n-1 -> level n; phi[0] None
    name: str = ""
    # derived data (the Koszul columns of the insertion maps, label maps,
    # Koszul ranks, torsion, the invariants report) computed once per
    # window; valid because a window's matrices are not mutated after
    # construction, so a window may be shared by every caller that builds
    # the same one (see `random_induced_map`)
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    def insertion_map(self, m: int, t: int) -> np.ndarray:
        """Matrix of the order-preserving injection [m] -> [m+1] missing t.

        insertion_permutation(m, t) = s_t o insertion_permutation(m, t+1),
        so the map missing t is s_t times the map missing t + 1, and the
        map missing m is the structure map.  Asked for from t = m down to
        t = 0, as the Koszul route does, the m + 1 maps of level m cost m
        products: until t = 0 is reached the window holds the last map
        built, read-only, under "ins", and then no dense map at all.
        """
        if m + 1 > self.N:
            raise WindowError(f"insertion into level {m+1} beyond window {self.N}")
        if not 0 <= t <= m:
            raise ValueError(f"an injection [{m}] -> [{m + 1}] misses a point "
                             f"in [0, {m}], not {t}")
        last = self.cache.pop("ins", None)
        if last is not None and last[:2] == (m, t + 1):
            A = exactlin.matmul_modp(self.act[m + 1][t], last[2], self.p)
        else:
            A = self.phi[m + 1] % self.p
            for s in range(m - 1, t - 1, -1):
                A = exactlin.matmul_modp(self.act[m + 1][s], A, self.p)
        A.flags.writeable = False
        if t:
            self.cache["ins"] = (m, t, A)
        return A

    def composite_phi(self, a: int, b: int) -> np.ndarray:
        """Structure map composite: level a -> level b along standard inclusions."""
        out = np.eye(self.dims[a], dtype=np.int64)
        for n in range(a + 1, b + 1):
            out = exactlin.matmul_modp(self.phi[n], out, self.p)
        return out


# ---------------------------------------------------------------------------
# label maps of monomial windows
# ---------------------------------------------------------------------------

# A matrix with at most one nonzero entry mod p in each column is kept as
# its label map: two int64 arrays, one entry per column plus one more.
# rows[j] is the row of the nonzero entry of column j and vals[j] its value
# mod p; a zero column has rows[j] = -1 and vals[j] = 0, and so does the
# extra last entry.  Indexing by -1 thus reads a zero column, so the
# composite A @ B of two label maps is (rows_A[rows_B],
# vals_A[rows_B] * vals_B % p), a zero column wherever either factor has
# one; a product of two values below 2**31 fits in int64.


def column_labels(A, p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The label map of A mod p, or None when some column of A has two
    nonzero entries mod p."""
    A = exactlin.asmod(A, p)
    ncols = A.shape[1]
    nonzero = A != 0
    if np.count_nonzero(nonzero) > ncols:
        return None
    r, c = np.divmod(np.flatnonzero(nonzero), ncols)
    if c.size and np.bincount(c).max() > 1:
        return None
    rows = np.full(ncols + 1, -1, dtype=np.int64)
    vals = np.zeros(ncols + 1, dtype=np.int64)
    rows[c] = r
    vals[c] = A[r, c]
    return rows, vals


def read_labels(M: FIModuleWindow):
    """(act, phi) of M as label maps, act[n][i] that of s_i on level n
    and phi[n] that of the structure map into level n (phi[0] None).

    None unless every matrix has the shape its level asks for and at most
    one nonzero entry mod p in each column; the scan stops at the first
    matrix that fails.  Reads the matrices afresh; `label_maps` keeps the
    result in M's cache.
    """
    if len(M.dims) != M.N + 1 or len(M.act) != M.N + 1 \
            or len(M.phi) != M.N + 1:
        return None

    def read(A, shape):
        if A is None or A.shape != shape:
            return None
        return column_labels(A, M.p)

    act: list[list] = []
    phi: list = [None]
    for n, d in enumerate(M.dims):
        if n:
            phi.append(read(M.phi[n], (d, M.dims[n - 1])))
            if phi[n] is None:
                return None
        if len(M.act[n]) != max(0, n - 1):
            return None
        act.append([])
        for A in M.act[n]:
            act[n].append(read(A, (d, d)))
            if act[n][-1] is None:
                return None
    return act, phi


def label_maps(M: FIModuleWindow):
    """read_labels(M), kept in M's cache."""
    if "labels" not in M.cache:
        M.cache["labels"] = read_labels(M)
    return M.cache["labels"]


class _DenseAlgebra:
    """Products, identities and ranks of dense matrices mod p."""

    def __init__(self, p: int):
        self.p = p

    def mul(self, A, B):
        return exactlin.matmul_modp(A, B, self.p)

    @staticmethod
    def one(d: int) -> np.ndarray:
        return np.eye(d, dtype=np.int64)

    @staticmethod
    def same(X, Y) -> bool:
        return bool((X == Y).all())

    def rank(self, X) -> int:
        return exactlin.rank_modp(X, self.p)


class _LabelAlgebra:
    """The same operations on label maps, each O(columns)."""

    def __init__(self, p: int):
        self.p = p

    def mul(self, A, B):
        rows_b, vals_b = B
        return A[0][rows_b], A[1][rows_b] * vals_b % self.p

    @staticmethod
    def one(d: int):
        return (np.append(np.arange(d, dtype=np.int64), -1),
                np.append(np.ones(d, dtype=np.int64), 0))

    @staticmethod
    def same(X, Y) -> bool:
        return np.array_equal(X[0], Y[0]) and np.array_equal(X[1], Y[1])

    @staticmethod
    def rank(X) -> int:
        # the nonzero columns are multiples of the basis vectors they hit;
        # bincount, as np.unique would import numpy.ma on first use
        return int(np.count_nonzero(np.bincount(X[0] + 1)[1:]))


def validate(M: FIModuleWindow) -> list[str]:
    """All consistency identities; returns a list of violation messages.

    A window whose matrices all have at most one nonzero entry mod p in
    each column is checked on its label maps, read afresh; any other
    window on its dense matrices, with the same messages.
    """
    labels = read_labels(M)
    if labels is None:
        return _validate_dense(M)
    return _identities(M, _LabelAlgebra(M.p), *labels)


def _validate_dense(M: FIModuleWindow) -> list[str]:
    return _identities(M, _DenseAlgebra(M.p), M.act, M.phi)


def _identities(M: FIModuleWindow, alg, act, phi) -> list[str]:
    """The checks of `validate`: shapes on M's matrices, identities on
    act and phi, which hold M's matrices in the form alg multiplies.  An
    identity that would multiply a matrix of the wrong shape is skipped:
    the shape message already reports it."""
    bad: list[str] = []
    mul, same = alg.mul, alg.same
    if len(M.dims) != M.N + 1:
        return [f"dims has length {len(M.dims)}, expected N+1={M.N+1}"]

    def square(n: int, *ii: int) -> bool:
        return all(i < len(M.act[n])
                   and M.act[n][i].shape == (M.dims[n], M.dims[n]) for i in ii)

    def mapping(n: int) -> bool:
        P = M.phi[n]
        return P is not None and P.shape == (M.dims[n], M.dims[n - 1])

    for n in range(M.N + 1):
        d = M.dims[n]
        if len(M.act[n]) != max(0, n - 1):
            bad.append(f"level {n}: expected {max(0, n-1)} transposition matrices")
            continue
        for i, A in enumerate(M.act[n]):
            if not square(n, i):
                bad.append(f"level {n}: s_{i} matrix has shape {A.shape}, want {(d, d)}")
                continue
            if not same(mul(act[n][i], act[n][i]), alg.one(d)):
                bad.append(f"level {n}: involution fails for s_{i}")
        for i in range(n - 2):
            if not square(n, i, i + 1):
                continue
            A, B = act[n][i], act[n][i + 1]
            AB = mul(A, B)
            if not same(mul(AB, A), mul(B, AB)):
                bad.append(f"level {n}: braid relation fails at s_{i}, s_{i+1}")
        for i in range(n - 1):
            for j in range(i + 2, n - 1):
                if not square(n, i, j):
                    continue
                A, B = act[n][i], act[n][j]
                if not same(mul(A, B), mul(B, A)):
                    bad.append(f"level {n}: s_{i} and s_{j} do not commute")
        if n >= 1:
            if not mapping(n):
                bad.append(f"level {n}: structure map has wrong shape")
                continue
            for i in range(n - 2):
                if square(n - 1, i) and square(n, i) and not same(
                        mul(phi[n], act[n - 1][i]), mul(act[n][i], phi[n])):
                    bad.append(f"level {n}: structure map not equivariant at s_{i}")
        if n >= 2 and square(n, n - 2) and mapping(n - 1):
            PP = mul(phi[n], phi[n - 1])
            if not same(mul(act[n][n - 2], PP), PP):
                bad.append(f"level {n}: two-step symmetry fails")
    return bad


def assert_valid(M: FIModuleWindow) -> None:
    bad = validate(M)
    if bad:
        raise ValidationError("; ".join(bad))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def signed_permutation_window(p: int, N: int, bases, act,
                              name: str = "") -> FIModuleWindow:
    """The window whose level n has the hashable basis labels bases[n].

    act(n, i, label) returns (label', sign) with sign = +1 or -1: s_i
    sends the basis vector `label` of level n to sign * label'.  The
    structure map into level n sends each label of level n-1 to the same
    label, or to 0 where level n lacks it.  Each matrix is scattered in
    one indexed assignment; `validate` checks the identities.
    """
    exactlin._check_p(p)
    if N < 0:
        raise ValueError(f"window size N = {N} must be >= 0")
    index = [{b: r for r, b in enumerate(bases[n])} for n in range(N + 1)]
    dims = [len(ix) for ix in index]

    def s_matrix(n: int, i: int) -> np.ndarray:
        images = [act(n, i, b) for b in bases[n]]
        try:
            rows = [index[n][b] for b, _ in images]
        except KeyError as exc:
            raise ValueError(f"level {n}: s_{i} sends a label to "
                             f"{exc.args[0]!r}, not a label of the level"
                             ) from None
        A = np.zeros((dims[n], dims[n]), dtype=np.int64)
        A[rows, np.arange(dims[n])] = [sign % p for _, sign in images]
        return A

    def inclusion(n: int) -> np.ndarray:
        cols = [c for c, b in enumerate(bases[n - 1]) if b in index[n]]
        P = np.zeros((dims[n], dims[n - 1]), dtype=np.int64)
        P[[index[n][bases[n - 1][c]] for c in cols], cols] = 1
        return P

    act_mats = [[s_matrix(n, i) for i in range(n - 1)] for n in range(N + 1)]
    phi: list[np.ndarray | None] = [None] + [inclusion(n)
                                             for n in range(1, N + 1)]
    return FIModuleWindow(p, N, dims, act_mats, phi, name=name)


def _fixed(n: int, i: int, label):
    """The trivial action: every s_i fixes every label."""
    return label, 1


def constant_module(p: int, N: int) -> FIModuleWindow:
    return signed_permutation_window(p, N, [[0]] * (N + 1), _fixed,
                                     name="constant")


def torsion_point_module(p: int, m: int, N: int) -> FIModuleWindow:
    """One-dimensional trivial representation at level m, zero elsewhere."""
    bases = [[0] if n == m else [] for n in range(N + 1)]
    return signed_permutation_window(p, N, bases, _fixed,
                                     name=f"torsion_point({m})")


def induced_basis(V: FBWindow, n: int) -> list[tuple[tuple[int, ...], int]]:
    """Basis of the level-n piece of the induced module on V.

    Entries are (subset of [n] as a sorted tuple, index into the level-|subset|
    basis of V); ordered by subset size, then subset, then index.
    """
    basis = []
    for j in range(min(n, len(V.dims) - 1) + 1):
        if V.dims[j] == 0:
            continue
        for A in itertools.combinations(range(n), j):
            for v in range(V.dims[j]):
                basis.append((A, v))
    return basis


def induced_module(V: FBWindow, N: int) -> FIModuleWindow:
    """Left adjoint of the forgetful functor, evaluated on the window.

    Level n has one basis vector per (j-subset A of [n], basis vector of
    level j of V); s_i acts by moving the subset and straightening the
    injection back to order-preserving form, which twists by an adjacent
    transposition of V exactly when i and i+1 both lie in A.  Only
    monomial V is taken: every column of every block of V must have one
    nonzero entry, +1 or -1 mod p, or ValueError is raised.
    """
    exactlin._check_p(V.p)  # before the blocks are read mod p

    def signed_columns(A: np.ndarray) -> list[tuple[int, int]]:
        # (row, +1 or -1) of the one nonzero entry of each column of A
        L = column_labels(A, V.p)
        if L is None or not np.isin(L[1][:-1], (1, V.p - 1)).all():
            raise ValueError("induced_module takes only FB blocks with one "
                             "entry +1 or -1 in each column")
        return [(r, 1 if v == 1 else -1)
                for r, v in zip(L[0][:-1].tolist(), L[1][:-1].tolist())]

    twist = [[signed_columns(A) for A in mats] for mats in V.trans]

    def act(n: int, i: int, label):
        sub, v = label
        if i in sub and i + 1 in sub:
            w, sign = twist[len(sub)][sub.index(i)][v]
            return (sub, w), sign
        # at most one of i, i+1 lies in sub, so the moved subset stays sorted
        return (transpose(i, sub), v), 1

    return signed_permutation_window(
        V.p, N, [induced_basis(V, n) for n in range(N + 1)], act,
        name="induced")


def free_module(p: int, m: int, N: int) -> FIModuleWindow:
    """Induced on the group algebra at level m; dimension n!/(n-m)! at level n."""
    M = induced_module(fb_regular(p, m), N)
    M.name = f"free({m})"
    return M


def direct_sum(M1: FIModuleWindow, M2: FIModuleWindow) -> FIModuleWindow:
    if (M1.p, M1.N) != (M2.p, M2.N):
        raise ValueError("direct sum requires matching modulus and window")
    p, N = M1.p, M1.N
    dims = [M1.dims[n] + M2.dims[n] for n in range(N + 1)]
    act = []
    phi: list[np.ndarray | None] = [None]
    for n in range(N + 1):
        mats = []
        for i in range(n - 1):
            mats.append(_block_diag([M1.act[n][i], M2.act[n][i]], dims[n]))
        act.append(mats)
        if n >= 1:
            P = np.zeros((dims[n], dims[n - 1]), dtype=np.int64)
            P[:M1.dims[n], :M1.dims[n - 1]] = M1.phi[n]
            P[M1.dims[n]:, M1.dims[n - 1]:] = M2.phi[n]
            phi.append(P)
    return FIModuleWindow(p, N, dims, act, phi,
                          name=f"({M1.name})+({M2.name})")


# ---------------------------------------------------------------------------
# maps, submodules, quotients
# ---------------------------------------------------------------------------


@dataclass
class FIMapWindow:
    """A levelwise map commuting with the group action and structure maps."""

    source: FIModuleWindow
    target: FIModuleWindow
    mats: list[np.ndarray]

    def validate(self) -> list[str]:
        bad = []
        S, T = self.source, self.target
        p = S.p
        for n in range(S.N + 1):
            F = self.mats[n]
            if F.shape != (T.dims[n], S.dims[n]):
                bad.append(f"level {n}: map has wrong shape")
                continue
            for i in range(n - 1):
                if not (exactlin.matmul_modp(F, S.act[n][i], p)
                        == exactlin.matmul_modp(T.act[n][i], F, p)).all():
                    bad.append(f"level {n}: map not equivariant at s_{i}")
            if n >= 1:
                lhs = exactlin.matmul_modp(F, S.phi[n], p)
                rhs = exactlin.matmul_modp(T.phi[n], self.mats[n - 1], p)
                if not (lhs == rhs).all():
                    bad.append(f"level {n}: map does not commute with structure maps")
        return bad


def quotient_by_images(M: FIModuleWindow, images: list[np.ndarray],
                       name: str = "") -> FIModuleWindow:
    """Quotient of M by the levelwise column spans (assumed invariant).

    The basis vectors at the rows `free` of each level map onto a basis
    of the quotient, so a matrix X on M reads proj @ X[:, free] on it.
    """
    p = M.p
    projs, frees = zip(*(exactlin.colspace_complement_projection(images[n], p)
                         for n in range(M.N + 1)))
    dims = [pr.shape[0] for pr in projs]
    act = [[exactlin.matmul_modp(projs[n], A[:, frees[n]], p)
            for A in M.act[n]] for n in range(M.N + 1)]
    phi: list[np.ndarray | None] = [None] + [
        exactlin.matmul_modp(projs[n], M.phi[n][:, frees[n - 1]], p)
        for n in range(1, M.N + 1)]
    return FIModuleWindow(p, M.N, dims, act, phi, name=name or f"quot({M.name})")


def submodule_from_kernels(f: FIMapWindow, name: str = "") -> FIModuleWindow:
    """The levelwise kernel of an equivariant map, as a module window.

    Each kernel basis K is the identity on its rows `free`, so B = K @ X
    forces X = B[free]; one product checks that B lies in the span of K,
    and raises ValueError when it does not.
    """
    M = f.source
    p = M.p
    kers = [exactlin.kernel_basis_modp(f.mats[n], p) for n in range(M.N + 1)]

    def coords(n: int, B: np.ndarray) -> np.ndarray:
        K, free = kers[n]
        X = B[free]
        if not (exactlin.matmul_modp(K, X, p) == B).all():
            raise ValueError("inconsistent linear system mod p")
        return X

    act = [[coords(n, exactlin.matmul_modp(A, kers[n][0], p))
            for A in M.act[n]] for n in range(M.N + 1)]
    phi: list[np.ndarray | None] = [None] + [
        coords(n, exactlin.matmul_modp(M.phi[n], kers[n - 1][0], p))
        for n in range(1, M.N + 1)]
    return FIModuleWindow(p, M.N, [K.shape[1] for K, _ in kers], act, phi,
                          name=name or "ker")


def cokernel_module(f: FIMapWindow, name: str = "") -> FIModuleWindow:
    return quotient_by_images(f.target, f.mats, name=name or "coker")


# ---------------------------------------------------------------------------
# shift and derivative
# ---------------------------------------------------------------------------


def shift(M: FIModuleWindow, a: int = 1) -> FIModuleWindow:
    """Add a points at the top; the window shrinks by a.

    Level n of the result is level n+a of M; the structure map at level n
    is the action of the transposition of the two top points composed
    with the original structure map, which realizes the injection sending
    the added point to the new top element.
    """
    if a < 0 or a > M.N:
        raise WindowError(f"cannot shift by {a} inside window {M.N}")
    out = M
    for _ in range(a):
        out = _shift_once(out)
    out.name = f"shift({M.name},{a})" if a else M.name
    return out


def _shift_once(M: FIModuleWindow) -> FIModuleWindow:
    p = M.p
    N = M.N - 1
    dims = [M.dims[n + 1] for n in range(N + 1)]
    act = [[M.act[n + 1][i] for i in range(n - 1)] for n in range(N + 1)]
    phi: list[np.ndarray | None] = [None]
    for n in range(1, N + 1):
        top = M.act[n + 1][n - 1]  # transposition of points n-1, n at level n+1
        phi.append(exactlin.matmul_modp(top, M.phi[n + 1], p))
    return FIModuleWindow(p, N, dims, act, phi)


def derivative(M: FIModuleWindow, a: int = 1) -> FIModuleWindow:
    """Iterated cokernel of the canonical map into the shift."""
    if a < 0 or a > M.N:
        raise WindowError(f"cannot take {a} derivatives inside window {M.N}")
    if a == 0:
        return M
    out = M
    for _ in range(a):
        out = _derivative_once(out)
    out.name = f"derivative({M.name},{a})"
    return out


def _derivative_once(M: FIModuleWindow) -> FIModuleWindow:
    """The cokernel of the canonical map into the shift.

    For a monomial window the image of each level is spanned by the basis
    vectors its structure map hits, so the quotient keeps the other
    labels, the rows `free`: `quotient_by_images` reads
    proj @ X[:, free] = X[free][:, free] there, without an elimination.
    """
    labels = label_maps(M)
    if labels is None:
        return _derivative_dense(M)
    S = _shift_once(M)
    frees = []
    for n in range(S.N + 1):
        hit = np.zeros(S.dims[n] + 1, dtype=bool)
        hit[labels[1][n + 1][0]] = True
        frees.append(np.flatnonzero(~hit[:-1]))

    def keep(X, n: int, m: int) -> np.ndarray:
        return X[np.ix_(frees[n], frees[m])] % M.p

    return FIModuleWindow(
        M.p, S.N, [free.size for free in frees],
        [[keep(A, n, n) for A in S.act[n]] for n in range(S.N + 1)],
        [None] + [keep(S.phi[n], n, n - 1) for n in range(1, S.N + 1)],
        name=f"quot({S.name})")


def _derivative_dense(M: FIModuleWindow) -> FIModuleWindow:
    """One derivative through dense products and eliminations."""
    S = _shift_once(M)
    # canonical map at level n is the structure map of M into level n+1
    return quotient_by_images(S, [M.phi[n + 1] for n in range(S.N + 1)])


def observed_torsion(M: FIModuleWindow) -> tuple[bool, int]:
    """(is the whole window torsion, largest level with torsion elements).

    An element of level n counts as torsion when it dies under the
    composite structure map to the top of the window; the second entry is
    -1 when no level has any.  A monomial window composes its label maps,
    whose rank is the number of rows the composite hits.  The answer is
    kept in M's cache.
    """
    if "torsion" in M.cache:
        return M.cache["torsion"]
    labels = label_maps(M)
    if labels is None:
        alg, phi = _DenseAlgebra(M.p), M.phi
    else:
        alg, phi = _LabelAlgebra(M.p), labels[1]
    h0 = -1
    all_torsion = True
    # composite_phi(n, N), built from the top: one product per level
    comp = alg.one(M.dims[M.N])
    for n in range(M.N, -1, -1):
        if n < M.N:
            comp = alg.mul(comp, phi[n + 1])
        if M.dims[n] == 0:
            continue
        nul = M.dims[n] - alg.rank(comp)
        if nul:
            h0 = max(h0, n)
        if nul < M.dims[n]:
            all_torsion = False
    M.cache["torsion"] = (all_torsion, h0)
    return all_torsion, h0


# ---------------------------------------------------------------------------
# seeded random presented modules
# ---------------------------------------------------------------------------


def _induced(windows: dict | None, key: tuple, V: FBWindow,
             N: int) -> FIModuleWindow:
    """induced_module(V, N), taken from or added to `windows` under key."""
    if windows is None:
        return induced_module(V, N)
    if key not in windows:
        windows[key] = induced_module(V, N)
    return windows[key]


def random_induced_map(p: int, N: int, gen_deg: int, rel_deg: int,
                       seed: int, windows: dict | None = None) -> FIMapWindow:
    """Seeded map between induced windows, free by adjunction.

    The target is induced on trivial representations in degrees <= gen_deg,
    the source on the group algebra at rel_deg, so the map is determined by
    one freely chosen vector: the image of the identity basis element.

    `windows`, when given, holds the induced windows built so far: sources
    keyed by ("source", p, N, rel_deg), targets by ("target", p, N,
    gen_deg, js), js the degrees of the trivial summands drawn.  A map
    whose key is there takes that window object, and a new window is
    added.  Without it both windows are built afresh.  The draws, and so
    every matrix, are the same either way.
    """
    rng = np.random.default_rng(seed)
    js = tuple(j for j in range(gen_deg) if rng.integers(0, 2))
    V = fb_direct_sum(fb_trivial(p, gen_deg), *(fb_trivial(p, j) for j in js))
    W = fb_regular(p, rel_deg)
    tgt = _induced(windows, ("target", p, N, gen_deg, js), V, N)
    src = _induced(windows, ("source", p, N, rel_deg), W, N)
    gens = induced_basis(V, rel_deg)
    img = rng.integers(0, p, size=len(gens))
    # the target is induced from trivial representations, so sigma only
    # relabels: the basis vector (sub, sigma) of the source sends the
    # entry (B, v) of img to (sub o sigma)(B), v.  A subset of [n] is read
    # as its bit mask, and (A, v) as the code mask(A) * width + v, which
    # is found among the codes of the target basis.
    terms = [(B, v, int(c)) for (B, v), c in zip(gens, img) if c]
    perms = np.array(list(itertools.permutations(range(rel_deg))),
                     dtype=np.int64)
    member = np.zeros((rel_deg, len(terms)), dtype=np.int64)
    for t, (B, _, _) in enumerate(terms):
        member[list(B), t] = 1
    width = max(V.dims)
    shift = np.array([v for _, v, _ in terms], dtype=np.int64)
    coef = np.array([c for _, _, c in terms], dtype=np.int64)
    mats = []
    for n in range(N + 1):
        # Python ints once a code may pass int64
        kind = np.int64 if n + width.bit_length() < 63 else object
        codes = np.array([sum(1 << a for a in A) * width + v
                          for A, v in induced_basis(V, n)], dtype=kind)
        order = np.argsort(codes)
        subs = list(itertools.combinations(range(n), rel_deg))
        subs = np.array(subs, dtype=kind).reshape(len(subs), rel_deg)
        # image[c, k, t]: the code of term t under the source basis
        # vector (subs[c], perms[k]), column c * len(perms) + k
        image = (1 << subs[:, perms]) @ member * width + shift
        rows = order[np.searchsorted(codes, image, sorter=order)]
        cols = np.arange(src.dims[n]).reshape(len(subs), len(perms), 1)
        F = np.zeros((tgt.dims[n], src.dims[n]), dtype=np.int64)
        F[rows, cols] = coef
        mats.append(F)
    return FIMapWindow(src, tgt, mats)


def random_presented(p: int, N: int, gen_deg: int, rel_deg: int,
                     seed: int, windows: dict | None = None) -> FIModuleWindow:
    """Cokernel of a seeded map of induced windows.

    Generated in degrees <= gen_deg with relations in degree rel_deg, so
    the presentation degrees of the result are bounded by (gen_deg, rel_deg).
    `windows` is passed to `random_induced_map`.
    """
    f = random_induced_map(p, N, gen_deg, rel_deg, seed, windows)
    return cokernel_module(f, name=f"random_presented(seed={seed})")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def encode(M: FIModuleWindow) -> dict:
    levels = []
    for n in range(M.N + 1):
        levels.append({
            "n": n,
            "dim": M.dims[n],
            "transpositions": [A.tolist() for A in M.act[n]],
            "inclusion": None if n == 0 else M.phi[n].tolist(),
        })
    return {"kind": "fi_module", "p": M.p, "N": M.N, "levels": levels}


def decode(doc: dict) -> FIModuleWindow:
    if doc.get("kind") != "fi_module":
        raise ValueError(f"expected kind 'fi_module', got {doc.get('kind')!r}")
    p = int(doc["p"])
    exactlin._check_p(p)
    N = int(doc["N"])
    if N < 0:
        raise ValueError(f"window size N = {N} must be >= 0")
    levels = doc["levels"]
    if [lv["n"] for lv in levels] != list(range(N + 1)):
        raise ValueError("levels must be 0..N in order")
    dims, act, phi = [], [], [None]
    for lv in levels:
        n, d = lv["n"], int(lv["dim"])
        dims.append(d)
        mats = [np.asarray(A, dtype=np.int64).reshape(d, d) % p
                for A in lv["transpositions"]]
        if len(mats) != max(0, n - 1):
            raise ValueError(f"level {n}: expected {max(0, n-1)} transpositions")
        act.append(mats)
        if n >= 1:
            if lv["inclusion"] is None:
                raise ValueError(f"level {n}: missing inclusion matrix")
            P = np.asarray(lv["inclusion"], dtype=np.int64)
            try:
                P = P.reshape(d, dims[n - 1]) % p
            except ValueError:
                raise ValueError(
                    f"level {n}: inclusion matrix shape {P.shape}") from None
            phi.append(P)
        elif lv["inclusion"] is not None:
            raise ValueError("level 0 must have null inclusion")
    return FIModuleWindow(p, N, dims, act, phi)


def save(M: FIModuleWindow, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(encode(M), fh)


def load(path: str) -> FIModuleWindow:
    with open(path) as fh:
        return decode(json.load(fh))
