"""Homology functors, stability invariants and polynomial fitting.

`koszul_columns` is the one generator of the subset-indexed Koszul
boundary, as sparse columns; `koszul_rank` ranks them with
`exactlin.sparse_prefix_ranks`, and `koszul_boundary` is their dense view.
`total_entries` totalizes a double complex given by its blocks and two
block maps, with sign (-1)^x on the vertical map: each block map hands
over entry arrays (rows, cols, vals), which are offset and concatenated
into those of the total differential.  The consecutive total
differentials of one complex are ranked in one pass by
`exactlin.complex_ranks`.  It serves the hyper homology of complexes of
windows here, where a Koszul block is its sparse columns flattened once
and a differential block the nonzeros of its dense matrix, and both bar
double complexes in `congruence`.

FI-homology comes from the one Koszul route: the subset-indexed complex
(`koszul_boundary`, `homology_table`), exact at every evaluation level
using only levels below it, whose ranks are computed once per window.
`presentation_profiles` reads H_0 apart from it, as the codimension of
the S_n-span of the image of the level below (closed under the s_i,
without insertion maps or Koszul signs), and H_1 from the rank table.
For a monomial window (one with `fi_core.label_maps`) that span is the
orbit closure, under the s_i, of the labels the structure map hits;
other windows close the span by dense elimination.
`presentation_degrees` raises when the two H_0 profiles differ.

The shifts Sigma^s M that the stable and local degrees are defined by
are read off M's own reductions, without building a shifted window.
Sigma^s M adds s points at the top, so its insertion maps are M's one
level up: the map of level m missing t is M's map of level m + s missing
t, for t <= m (`fi_core.shift` builds exactly these matrices).  So the
evaluation-n Koszul complex of Sigma^s M is the part of M's
evaluation-(n + s) complex on the subsets of [n]: a face of a subset of
[n] is one, and its insertion map and sign are the same in both.
Subsets are ordered colex, in which the subsets of [n] come first, so
that part is a leading block: the first comb(n, k) * dims[n + s - k]
columns of d_k, with support in its first comb(n, k - 1) *
dims[n + s - k + 1] rows.  Its rank is the rank of those leading columns,
and one left-to-right reduction of d_k (`exactlin.sparse_prefix_ranks`)
gives it for every s at once.

The hyper homology of a shifted complex Sigma^s C is read off C in the
same way (`hyper_homology_table(C, k, s)`): its Koszul blocks are those
leading blocks of C's modules, and its differentials are C's s levels up.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from . import exactlin
from .errors import FitError, InternalConsistencyError, WindowError
from .fi_core import (FIModuleWindow, FIMapWindow, derivative,
                      observed_torsion, label_maps,
                      validate as validate_module)


# ---------------------------------------------------------------------------
# Koszul route
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _colex(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The k-subsets of [n], as increasing tuples, in colex order: by
    largest element, then by the next largest, and so on.  Those of [n-1]
    come first, then those containing n - 1."""
    if k > n:
        return ()
    if k == 0:
        return ((),)
    return _colex(n - 1, k) + tuple(R + (n - 1,) for R in _colex(n - 1, k - 1))


@functools.lru_cache(maxsize=None)
def _colex_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {R: i for i, R in enumerate(_colex(n, k))}


def koszul_columns(ins: list, n: int, k: int, stride: int):
    """Sparse columns of the boundary C_k -> C_{k-1} at evaluation n.

    C_k is one copy of level n-k per k-subset R of [n]; cells are ordered
    by R in colex order, then by basis vector c.  Moving the j-th smallest
    element r out of R applies the insertion map missing r - j (its rank
    within the complement) and carries sign (-1)^j.  ins[t][c] is column c
    of the level-(n-k) insertion map missing t, as a row -> value dict;
    stride is the dimension of level n-k+1.

    In colex order the subsets of [n'] for n' < n come first, so the
    columns of the subsets of [n'] form a leading block, and their faces
    lie in the leading rows, those of the (k-1)-subsets of [n'].
    """
    tgt_index = _colex_index(n, k - 1)
    for R in _colex(n, k):
        faces = [(tgt_index[R[:j] + R[j + 1:]] * stride, ins[r - j],
                  -1 if j % 2 else 1) for j, r in enumerate(R)]
        for c in range(len(ins[0])):
            yield {off + i: s * v
                   for off, blk, s in faces for i, v in blk[c].items()}


def _window_columns(M: FIModuleWindow, n: int, k: int):
    """koszul_columns of the window M, 1 <= k <= n.  The column form of
    the m + 1 insertion maps of level m = n - k is kept in M's cache, for
    every (n, k) with n - k = m; the dense maps are not.  They are asked
    for from t = m down, so each is one product (`insertion_map`)."""
    m = n - k
    ins = M.cache.get(("cols", m))
    if ins is None:
        ins = M.cache[("cols", m)] = [
            exactlin.dense_to_columns(M.insertion_map(m, t))
            for t in range(m, -1, -1)][::-1]
    return koszul_columns(ins, n, k, M.dims[m + 1])


def koszul_boundary(M: FIModuleWindow, n: int, k: int) -> np.ndarray:
    """Boundary C_k -> C_{k-1} of the evaluation-n complex, dense mod p."""
    rows = comb(n, k - 1) * M.dims[n - k + 1] if 1 <= k <= n + 1 else 0
    cols = list(_window_columns(M, n, k)) if 1 <= k <= n else []
    return exactlin.entries_to_dense(*exactlin.column_entries(cols), rows,
                                     len(cols), M.p)


def koszul_dims(M: FIModuleWindow, n: int, s: int = 0) -> list[int]:
    """dim C_k at evaluation n of the shift Sigma^s M, for 0 <= k <= n."""
    return [comb(n, k) * M.dims[n + s - k] for k in range(n + 1)]


def koszul_rank(M: FIModuleWindow, n: int, k: int, s: int = 0) -> int:
    """Rank of the boundary C_k -> C_{k-1} at evaluation n of the shift
    Sigma^s M: that of the columns of the subsets of [n] in M's boundary
    at evaluation n + s (see the module docstring).  One reduction gives
    it for every n and s of the same sum, kept in M's cache per
    (n + s, k)."""
    if k < 1 or k > n:
        return 0
    m = n + s
    key = ("ranks", m, k)
    ranks = M.cache.get(key)
    if ranks is None:
        ranks = M.cache[key] = exactlin.sparse_prefix_ranks(
            _window_columns(M, m, k), comb(m, k - 1) * M.dims[m - k + 1],
            M.p, [comb(j, k) * M.dims[m - k] for j in range(m + 1)])
    return ranks[n]


def homology_at(M: FIModuleWindow, n: int, i_max: int,
                s: int = 0) -> list[int]:
    """dim H_i at evaluation n of the shift Sigma^s M, for 0 <= i <= i_max."""
    if not 0 <= s <= M.N - n:
        raise WindowError(f"evaluation {n} of shift {s} is beyond window {M.N}")
    dims = koszul_dims(M, n, s)
    return [dims[i] - koszul_rank(M, n, i, s) - koszul_rank(M, n, i + 1, s)
            if i <= n else 0 for i in range(i_max + 1)]


def homology_table(M: FIModuleWindow, i_max: int,
                   s: int = 0) -> list[list[int]]:
    """table[i][n] = dim H_i at evaluation n of the shift Sigma^s M, exact
    for every n <= N - s."""
    table = [[0] * (M.N - s + 1) for _ in range(i_max + 1)]
    for n in range(M.N - s + 1):
        col = homology_at(M, n, i_max, s)
        for i in range(i_max + 1):
            table[i][n] = col[i]
    return table


def degree_of_profile(profile: list[int]) -> int:
    deg = -1
    for n, v in enumerate(profile):
        if v:
            deg = n
    return deg


# ---------------------------------------------------------------------------
# presentation degrees, with H_0 checked on a route apart from the Koszul one
# ---------------------------------------------------------------------------


def _generated_rank(M: FIModuleWindow, n: int) -> int:
    """Dimension of the S_n-span of im phi_n, for n >= 1.

    In a monomial window (`fi_core.label_maps`) im phi_n is spanned by the
    basis vectors phi_n hits, and each s_i sends a basis vector to a
    multiple of one basis vector or to 0, so the S_n-span is spanned by
    the orbit closure of the hit labels under the s_i.  Other windows take
    the dense route, `_span_rank`.  Either reads only M.phi and M.act.
    """
    labels = label_maps(M)
    if labels is None:
        return _span_rank(M, n)
    act, phi = labels
    seen = np.zeros(M.dims[n] + 1, dtype=bool)
    seen[-1] = True  # the label -1 of a zero column
    new = phi[n][0]
    while new.size:
        fresh = np.zeros_like(seen)
        fresh[new] = True
        new = np.flatnonzero(fresh & ~seen)
        seen[new] = True
        if not act[n]:
            break
        new = np.concatenate([rows[new] for rows, _ in act[n]])
    return int(seen[:-1].sum())


def _span_rank(M: FIModuleWindow, n: int) -> int:
    """`_generated_rank` on dense matrices.

    The row space of phi_n^T is closed under the s_i of level n: each
    round applies them to the rows the previous round added, reduces the
    results against the basis so far, and adds the echelon rows of what
    is left, until nothing is left.  The basis is kept reduced (the
    identity on its pivot columns), so no round re-reduces the span
    found before it.
    """
    p = M.p
    R, piv = exactlin.rref_modp(M.phi[n].T, p)
    basis = added = R[:len(piv)]
    while len(added) and M.act[n]:
        cand = np.concatenate([exactlin.matmul_modp(added, s.T, p)
                               for s in M.act[n]])
        cand = (cand - exactlin.matmul_modp(cand[:, piv], basis, p)) % p
        R, new = exactlin.rref_modp(cand, p)
        added = R[:len(new)]
        basis = np.concatenate([
            (basis - exactlin.matmul_modp(basis[:, new], added, p)) % p,
            added])
        piv = piv + new
    return len(piv)


def presentation_profiles(M: FIModuleWindow) -> tuple[list[int], list[int]]:
    """(dim H_0, dim H_1) at each level.

    H_0 is dims[n] minus the dimension of the S_n-span of the image of
    level n-1, which uses no insertion map and no Koszul sign; H_1 is read
    from the Koszul rank table.
    """
    h0 = [M.dims[0]] + [M.dims[n] - _generated_rank(M, n)
                        for n in range(1, M.N + 1)]
    return h0, homology_table(M, 1)[1]


def presentation_degrees(M: FIModuleWindow) -> tuple[int, int]:
    """(t0, t1) within the window; H_0 is cross-checked against the Koszul
    route."""
    h0, h1 = presentation_profiles(M)
    koszul_h0 = homology_table(M, 0)[0]
    if koszul_h0 != h0:
        raise InternalConsistencyError(
            "the S_n-span of the structure maps disagrees with the Koszul "
            f"complex: H0 {koszul_h0} vs {h0}")
    return degree_of_profile(h0), degree_of_profile(h1)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def is_semi_induced_window(M: FIModuleWindow, s: int = 0) -> bool:
    """True when every higher homology of the shift Sigma^s M vanishes at
    every level of its window."""
    return all(not any(homology_at(M, n, n, s)[1:])
               for n in range(M.N - s + 1))


@dataclass
class StableDegreeResult:
    delta: int | None
    certified: bool
    derivative_route: int | None
    shift_route: list[int] = field(default_factory=list)
    plateau: int = 0


def stable_degree(M: FIModuleWindow) -> StableDegreeResult:
    """Least n with torsion (n+1)-st derivative, certified two ways.

    Route one iterates the derivative and tests observed torsion; route
    two tracks the generation degree of iterated shifts, which must reach
    a terminal plateau of length >= 2 at the same value for the result to
    be certified.
    """
    delta_a = None
    D = M
    for j in range(M.N + 1):
        tor, _ = observed_torsion(D)
        if tor:
            delta_a = j - 1
            break
        if D.N == 0:
            break
        D = derivative(D)

    t0s = [degree_of_profile(homology_table(M, 0, s)[0]) for s in range(M.N)]
    # only trust a shifted generation degree when the remaining window
    # extends at least one level past it, so the degree is not an artifact
    # of truncation
    trusted = [(s, v) for s, v in enumerate(t0s) if M.N - s >= v + 1]
    plateau = 0
    delta_b = None
    if trusted:
        delta_b = trusted[-1][1]
        plateau = 1
        for _, v in reversed(trusted[:-1]):
            if v == delta_b:
                plateau += 1
            else:
                break
    certified = (delta_a is not None and delta_b is not None
                 and delta_a == delta_b and plateau >= 2)
    delta = delta_a if delta_a is not None else delta_b
    return StableDegreeResult(delta, certified, delta_a, t0s, plateau)


@dataclass
class LocalDegreeResult:
    hmax: int | None
    certified: bool
    shifts_tried: int = 0


def local_degree(M: FIModuleWindow,
                 delta: int | None = None) -> LocalDegreeResult:
    """hmax + 1 is the least shift whose result has no higher homology.

    Certification needs the remaining window after that shift to be at
    least delta + 1 levels deep, so vanishing is attested on a stretch as
    long as the stable range.
    """
    if delta is None:
        delta = stable_degree(M).delta
    for s in range(M.N + 1):
        if is_semi_induced_window(M, s):
            certified = delta is not None and (M.N - s) >= delta + 1
            return LocalDegreeResult(s - 1, certified, s + 1)
    return LocalDegreeResult(None, False, M.N + 1)


# ---------------------------------------------------------------------------
# complexes of modules and hyper homology
# ---------------------------------------------------------------------------


@dataclass
class FIComplexWindow:
    """Chain complex of module windows; diffs[j] maps degree j to j-1."""

    p: int
    N: int
    jmin: int
    jmax: int
    modules: list[FIModuleWindow]              # index j - jmin
    diffs: dict[int, list[np.ndarray]]         # diffs[j][n], jmin < j <= jmax

    def module(self, j: int) -> FIModuleWindow:
        return self.modules[j - self.jmin]

    def validate(self) -> list[str]:
        bad = []
        for j in range(self.jmin, self.jmax + 1):
            for msg in validate_module(self.module(j)):
                bad.append(f"degree {j}: {msg}")
        for j in range(self.jmin + 1, self.jmax + 1):
            f = FIMapWindow(self.module(j), self.module(j - 1), self.diffs[j])
            for msg in f.validate():
                bad.append(f"differential {j}: {msg}")
        for j in range(self.jmin + 2, self.jmax + 1):
            for n in range(self.N + 1):
                if exactlin.matmul_modp(self.diffs[j - 1][n], self.diffs[j][n],
                                        self.p).any():
                    bad.append(f"d^2 != 0 at degree {j}, level {n}")
        return bad


def two_term_complex(f: FIMapWindow) -> FIComplexWindow:
    """[source -> target] in degrees 1 and 0."""
    S = f.source
    return FIComplexWindow(S.p, S.N, 0, 1, [f.target, f.source],
                           {1: f.mats})


def tensor_identity(count: int, entries, nrows: int, ncols: int):
    """Entry arrays of id x d on `count` copies of the nrows x ncols map d
    given by `entries`, copy-major: copy i of an entry is shifted by
    i * nrows rows and i * ncols columns."""
    rows, cols, vals = (a.ravel() for a in np.broadcast_arrays(*entries))
    copies = np.arange(count)[:, None]
    return copies * nrows + rows, copies * ncols + cols, vals


def total_entries(blocks, horizontal, vertical, t: int):
    """Entry arrays (rows, cols, vals) and the shape (nrows, ncols) of the
    total differential d_h + (-1)^x d_v of a double complex from degree t
    to t - 1, with integer values; `exactlin.complex_ranks` and
    `entries_to_dense` reduce them mod p.

    blocks(t) lists the (x, y, size) blocks with x + y = t, in the order
    in which their cells are numbered.  horizontal(x, y) and
    vertical(x, y) return the block-local entry arrays of the maps into
    blocks (x - 1, y) and (x, y - 1), each as three arrays that broadcast
    to one shape; each is called only when that block exists.
    """
    offsets, nrows = {}, 0
    for x, y, size in blocks(t - 1):
        offsets[x, y] = nrows
        nrows += size
    parts, ncols = [], 0
    for x, y, size in blocks(t):
        for part, target, sign in ((horizontal, (x - 1, y), 1),
                                   (vertical, (x, y - 1), -1 if x % 2 else 1)):
            if target in offsets:
                rows, cols, vals = np.broadcast_arrays(*part(x, y))
                parts.append(((rows + offsets[target]).ravel(),
                              (cols + ncols).ravel(), (sign * vals).ravel()))
        ncols += size
    if not parts:
        parts = [(np.zeros(0, dtype=np.int64),) * 3]
    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    return rows, cols, vals, nrows, ncols


def _hyper_double(C: FIComplexWindow, n: int, s: int = 0):
    """(blocks, horizontal, vertical) of the evaluation-n double complex of
    the shift Sigma^s C, read off C (see the module docstring): x = Koszul
    degree r, y = complex degree j."""
    if not 0 <= s <= C.N - n:
        raise WindowError(f"evaluation {n} of shift {s} is beyond window {C.N}")

    def blocks(t: int) -> list[tuple[int, int, int]]:
        return [(t - j, j, comb(n, t - j) * C.module(j).dims[n + s - t + j])
                for j in range(C.jmin, C.jmax + 1) if 0 <= t - j <= n]

    def koszul(r: int, j: int):
        M = C.module(j)
        return exactlin.column_entries(itertools.islice(
            _window_columns(M, n + s, r), comb(n, r) * M.dims[n + s - r]))

    def differential(r: int, j: int):
        D = C.diffs[j][n + s - r]
        ri, ci = np.nonzero(D)
        return tensor_identity(comb(n, r), (ri, ci, D[ri, ci]), *D.shape)

    return blocks, koszul, differential


def hyper_boundary(C: FIComplexWindow, n: int, m: int,
                   s: int = 0) -> np.ndarray:
    """Total boundary T_m -> T_{m-1} at evaluation n of the shift Sigma^s C,
    dense mod p.

    T_m stacks the Koszul degree r piece of the degree-j module over all
    j + r = m, ordered by j; the complex differential carries sign (-1)^r.
    """
    return exactlin.entries_to_dense(
        *total_entries(*_hyper_double(C, n, s), m), C.p)


def hyper_homology_table(C: FIComplexWindow, k_max: int,
                         s: int = 0) -> dict[int, list[int]]:
    """table[k][n] = dim of total homology in degree k at evaluation n of
    the shift Sigma^s C, for every n <= N - s."""
    if not 0 <= s <= C.N:
        raise WindowError(f"cannot shift by {s} inside window {C.N}")
    table: dict[int, list[int]] = {k: [0] * (C.N - s + 1)
                                   for k in range(C.jmin, k_max + 1)}
    for n in range(C.N - s + 1):
        blocks, koszul, differential = _hyper_double(C, n, s)
        degrees = range(C.jmin, k_max + 2)
        ranks = dict(zip(degrees, exactlin.complex_ranks(
            (total_entries(blocks, koszul, differential, t) for t in degrees),
            C.p)))
        for k in range(C.jmin, k_max + 1):
            dim = sum(size for _, _, size in blocks(k))
            table[k][n] = dim - ranks[k] - ranks[k + 1]
    return table


def hyper_t_degrees(C: FIComplexWindow, k_max: int,
                    s: int = 0) -> dict[int, int]:
    table = hyper_homology_table(C, k_max, s)
    return {k: degree_of_profile(v) for k, v in table.items()}


# ---------------------------------------------------------------------------
# polynomial fitting in the binomial basis
# ---------------------------------------------------------------------------


@dataclass
class PolynomialFit:
    coeffs: list[int]          # coeffs[d] multiplies C(n, d)
    onset: int

    def value(self, n: int) -> int:
        return sum(c * comb(n, d) for d, c in enumerate(self.coeffs))

    def pretty(self) -> str:
        terms = [f"{c}*C(n,{d})" for d, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def polynomial_fit(M: FIModuleWindow, delta: int | None,
                   hmax: int | None) -> PolynomialFit:
    """Interpolate dimensions through the top delta+1 window levels.

    Requires certified invariants from the caller, and raises WindowError
    when the window was too short to find either (None); raises FitError
    when the stored dimensions deviate from the fit at any level past
    hmax+1, or when the binomial-basis coefficients fail to be integers.
    """
    if delta is None or hmax is None:
        raise WindowError("window too short to find the stable and local "
                          "degrees that a fit needs")
    if delta < 0:
        fit = PolynomialFit([], M.N + 1)
        onset = M.N + 1
        for n in range(M.N, -1, -1):
            if M.dims[n] == 0:
                onset = n
            else:
                break
        fit.onset = onset
        if onset > max(hmax + 1, 0):
            raise FitError(f"zero fit fails from level {max(hmax+1,0)}")
        return fit
    pts = list(range(M.N - delta, M.N + 1))
    if pts[0] < 0:
        raise WindowError("window too short for the requested fit degree")
    A = [[Fraction(comb(n, d)) for d in range(delta + 1)] for n in pts]
    b = [Fraction(M.dims[n]) for n in pts]
    coeffs = _solve_fractions(A, b)
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise FitError("non-integer coefficient in the binomial basis")
        out.append(int(c))
    fit = PolynomialFit(out, M.N + 1)
    onset = M.N + 1
    for n in range(M.N, -1, -1):
        if M.dims[n] == fit.value(n):
            onset = n
        else:
            break
    fit.onset = onset
    if onset > max(hmax + 1, 0):
        raise FitError(
            f"dimensions match the fit only from level {onset}, expected "
            f"from {max(hmax + 1, 0)}")
    return fit


def _solve_fractions(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for c in range(n):
        piv = next(i for i in range(c, n) if M[i][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        inv = 1 / M[c][c]
        M[c] = [x * inv for x in M[c]]
        for i in range(n):
            if i != c and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return [M[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    t0: int
    t1: int
    delta: int | None
    delta_certified: bool
    hmax: int | None
    hmax_certified: bool
    torsion_degree: int
    semi_induced: bool

    def asdict(self) -> dict:
        return {
            "t0": self.t0, "t1": self.t1,
            "stable_degree": self.delta,
            "stable_degree_certified": self.delta_certified,
            "local_degree": self.hmax,
            "local_degree_certified": self.hmax_certified,
            "torsion_degree": self.torsion_degree,
            "semi_induced": self.semi_induced,
        }


def invariants(M: FIModuleWindow) -> InvariantReport:
    """The presentation, stable, local and torsion degrees of M, kept in
    M's cache (the report is frozen, so every caller reads the same)."""
    if "invariants" not in M.cache:
        t0, t1 = presentation_degrees(M)
        sd = stable_degree(M)
        ld = local_degree(M, sd.delta)
        _, h0 = observed_torsion(M)
        M.cache["invariants"] = InvariantReport(
            t0, t1, sd.delta, sd.certified, ld.hmax, ld.certified, h0,
            ld.hmax == -1)
    return M.cache["invariants"]
