"""Closed-form regularity bound calculators and the empirical audit.

All calculators are pure integer arithmetic on the four invariants
(generation degree t0, relation degree t1, stable degree, local degree).
The audit harness instantiates seeded module families, computes the
invariants exactly with the homology machinery, and checks every
applicable inequality, reporting violations instead of asserting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from . import fi_homology


# ---------------------------------------------------------------------------
# calculators
# ---------------------------------------------------------------------------


def _nonnegative(**values: int) -> None:
    """Raise ValueError naming the first of `values` that is negative; a
    negative degree would index the inputs from their end."""
    for name, v in values.items():
        if v < 0:
            raise ValueError(f"{name} must be nonnegative, got {v}")


def star_bounds(t0: int, t1: int) -> dict:
    """Stable and local degree from a presentation."""
    return {
        "delta_le": t0,
        "hmax_le": t0 + max(t0, t1) - 1,
    }


def star_bounds_from_delta_hmax(delta: int, hmax: int) -> dict:
    """Presentation degrees from stable and local degree."""
    return {
        "t0_le": delta + hmax + 1,
        "t1_le": delta + 2 * hmax + 2,
    }


def local_cohomology_bounds(t0: int, t1: int, delta: int) -> list[int]:
    """Torsion-degree bounds h^0, ..., h^{delta+1}; everything above
    delta + 1 vanishes."""
    out = []
    for i in range(max(delta + 1, 2) + 1):
        if i == 0:
            out.append(min(t0, t1) + t1 - 1)
        elif i == 1:
            out.append(delta + t0 - 1)
        else:
            out.append(2 * delta - 2 * (i - 1))
    return out


def kercoker_bounds(delta_a: int, hmax_a: int, delta_b: int,
                    hmax_b: int) -> dict:
    """Invariant bounds for kernel and cokernel of a map A -> B."""
    h = max(2 * delta_a - 2, hmax_a, hmax_b)
    return {
        "ker_delta_le": delta_a, "ker_hmax_le": h,
        "coker_delta_le": delta_b, "coker_hmax_le": h,
    }


def typeA_propagate(d: int, deltas: list[int], hmaxes: list[int],
                    k: int) -> dict:
    """Propagation along a spectral comparison of weight d.

    `deltas[l]` and `hmaxes[l]` bound the inputs in weight l; the output
    in weight k needs inputs up to l = k + s - d with s = max(k+2, d) for
    the local part and l = 2k - d + 1 for the quadratic part.
    """
    _nonnegative(k=k)
    s = max(k + 2, d)
    need_h = k + s - d
    need_d = 2 * k - d + 1
    if need_h >= len(hmaxes) or max(need_d, k) >= len(deltas):
        raise ValueError("not enough input weights supplied")
    h = -1
    for l in range(need_h + 1):
        h = max(h, hmaxes[l])
    for l in range(max(0, need_d + 1)):
        h = max(h, 2 * deltas[l] - 2)
    return {"delta_le": deltas[k], "hmax_le": h}


def typeA_semiinduced(mu: int, d: int, k: int) -> dict:
    """Specialization when the inputs are semi-induced of slope mu."""
    _nonnegative(k=k)
    c = 2 * mu * (d - 1)
    return {
        "delta_le": mu * k,
        "hmax_le": max(-1, 4 * mu * k - c - 2),
        "t0_le": max(mu * k, 5 * mu * k - c - 1),
        "t1_le": max(mu * k, 9 * mu * k - 2 * c - 2),
    }


def config_bounds(dim: int, orientable: bool, k: int,
                  two_vector_fields: bool = False) -> dict:
    """Bounds for the FI-module n -> H^k(Conf_n(M)) of the ordered
    configuration spaces of an open manifold M of the given dimension, in
    cohomological weight k."""
    if dim < 2:
        raise ValueError("manifold dimension must be at least 2")
    _nonnegative(k=k)
    mu = 2 if dim == 2 else 1
    lam = 1 if orientable else 0
    if two_vector_fields:
        return {
            "delta_le": mu * k,
            "hmax_le": 0,
            "t0_le": mu * k + 1,
            "t1_le": mu * k + 2,
        }
    return {
        "delta_le": mu * k,
        "hmax_le": max(-1, 4 * mu * k - 2 * mu * lam - 2),
        "t0_le": max(mu * k, 5 * mu * k - 2 * mu * lam - 1),
        "t1_le": max(mu * k, 9 * mu * k - 4 * mu * lam - 2),
    }


def typeB_step(t_k: int, t_k1: int, prev_hmax: int) -> int:
    """Local degree recursion for homology of a complex: the bound in
    weight k adds max(t_k, t_{k+1}) + t_k to the worst lower weight."""
    return prev_hmax + max(t_k, t_k1) + t_k


def typeB_growth(a: int, b: int, k: int) -> dict:
    """Closed forms when the hyper t-degrees grow linearly: t_k <= a k + b."""
    _nonnegative(k=k)
    return {
        "delta_le": a * k + b,
        "hmax_le": a * k * k + 2 * (a + b) * k + a + 2 * b,
        "t0_le": a * k * k + (3 * a + 2 * b) * k + a + 3 * b + 1,
        "t1_le": 2 * a * k * k + (5 * a + 4 * b) * k + 2 * a + 5 * b + 2,
    }


def congruence_bounds(d: int, k: int) -> dict:
    """Homology of congruence kernels over a ring of dimension d,
    homological degree k: the linear-growth case with slope 2, offset d."""
    _nonnegative(d=d, k=k)
    return {
        "delta_le": 2 * k + d,
        "hmax_le": 2 * k * k + 2 * (d + 2) * k + 2 * (d + 1),
        "t0_le": 2 * k * k + (2 * d + 6) * k + 3 * (d + 1),
        "t1_le": 4 * k * k + (4 * d + 10) * k + 5 * d + 6,
    }


# ---------------------------------------------------------------------------
# audit harness
# ---------------------------------------------------------------------------


@dataclass
class AuditReport:
    instances: int = 0
    checks: int = 0
    skipped_uncertified: int = 0
    violations: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations


def _check(rep: AuditReport, cond: bool, msg: str) -> None:
    rep.checks += 1
    if not cond:
        rep.violations.append(msg)


def _module_invariant_checks(rep: AuditReport, tag: str,
                             inv: fi_homology.InvariantReport) -> None:
    t0, t1 = inv.t0, inv.t1
    d, h = inv.delta, inv.hmax
    _check(rep, d <= t0, f"{tag}: delta {d} > t0 {t0}")
    _check(rep, h <= t0 + max(t0, t1) - 1,
           f"{tag}: hmax {h} > t0+max(t0,t1)-1")
    _check(rep, t0 <= d + h + 1, f"{tag}: t0 {t0} > delta+hmax+1")
    _check(rep, t1 <= d + 2 * h + 2, f"{tag}: t1 {t1} > delta+2hmax+2")
    _check(rep, inv.torsion_degree <= min(t0, t1) + t1 - 1
           if inv.torsion_degree >= 0 else True,
           f"{tag}: torsion degree {inv.torsion_degree} above its bound")


def audit(seed: int, n_presented: int = 60, n_sums: int = 15,
          n_maps: int = 15, n_complexes: int = 15,
          N: int = 7) -> AuditReport:
    """Seeded end-to-end audit of the bound inequalities.

    Four families: presented modules, direct sums and derivatives,
    kernels/cokernels of maps of induced windows, and two-term complexes.
    Inequalities are only scored on instances whose invariants certify.

    The induced windows are shared per call: every instance draws its map
    through one `windows` memo (see `fi_core.random_induced_map`), so
    instances with the same source or target use one window object, and
    its cached columns, ranks and invariants.  The memo is dropped when
    the call returns.
    """
    # imported here, so that the calculators load without numpy
    from . import fi_core, fi_homology
    rep = AuditReport()
    windows: dict = {}
    invs: list[fi_homology.InvariantReport] = []

    for i in range(n_presented):
        gen = 1 + (seed + i) % 2
        rel = gen + 1
        M = fi_core.random_presented(2 + (i % 2), N, gen, rel,
                                     seed * 1000 + i, windows)
        rep.instances += 1
        inv = fi_homology.invariants(M)
        if not (inv.delta_certified and inv.hmax_certified):
            rep.skipped_uncertified += 1
            continue
        _check(rep, inv.t0 <= gen, f"presented[{i}]: t0 above generation degree")
        _check(rep, inv.t1 <= rel, f"presented[{i}]: t1 above relation degree")
        _module_invariant_checks(rep, f"presented[{i}]", inv)
        invs.append(inv)
        if len(invs) >= 2 and i % 4 == 0:
            # direct sum invariants are the maxima of the summand invariants
            B = fi_core.random_presented(2 + (i % 2), N, 1, 2,
                                         seed * 2000 + i, windows)
            ib = fi_homology.invariants(B)
            s = fi_homology.invariants(fi_core.direct_sum(M, B))
            rep.instances += 1
            if all(x.delta_certified and x.hmax_certified for x in (inv, ib, s)):
                _check(rep, s.delta == max(inv.delta, ib.delta),
                       f"sum[{i}]: delta not the max of the parts")
                _check(rep, s.hmax == max(inv.hmax, ib.hmax),
                       f"sum[{i}]: hmax not the max of the parts")
            else:
                rep.skipped_uncertified += 1

    for i in range(n_sums):
        M = fi_core.random_presented(2, N, 1 + i % 2, 2 + i % 2,
                                     seed * 3000 + i, windows)
        rep.instances += 1
        inv = fi_homology.invariants(M)
        D = fi_core.derivative(M)
        invd = fi_homology.invariants(D)
        if inv.delta_certified and invd.delta_certified:
            _check(rep, invd.delta == max(inv.delta - 1, -1),
                   f"derivative[{i}]: delta {invd.delta} vs {inv.delta}")
        else:
            rep.skipped_uncertified += 1

    for i in range(n_maps):
        f = fi_core.random_induced_map(2 + (i % 2), N, 1 + i % 2, 2 + i % 2,
                                       seed * 4000 + i, windows)
        rep.instances += 1
        bad = f.validate()
        _check(rep, not bad, f"map[{i}]: {bad[:1]}")
        ker = fi_core.submodule_from_kernels(f)
        cok = fi_core.cokernel_module(f)
        ia = fi_homology.invariants(f.source)
        ib = fi_homology.invariants(f.target)
        ik = fi_homology.invariants(ker)
        ic = fi_homology.invariants(cok)
        if all(x.delta_certified and x.hmax_certified
               for x in (ia, ib, ik, ic)):
            bb = kercoker_bounds(ia.delta, ia.hmax, ib.delta, ib.hmax)
            _check(rep, ik.delta <= bb["ker_delta_le"],
                   f"map[{i}]: ker delta above bound")
            _check(rep, ic.delta <= bb["coker_delta_le"],
                   f"map[{i}]: coker delta above bound")
            _check(rep, ik.hmax <= bb["ker_hmax_le"],
                   f"map[{i}]: ker hmax above bound")
            _check(rep, ic.hmax <= bb["coker_hmax_le"],
                   f"map[{i}]: coker hmax above bound")
        else:
            rep.skipped_uncertified += 1

    for i in range(n_complexes):
        f = fi_core.random_induced_map(2 + (i % 2), N, 1 + i % 2, 2 + i % 2,
                                       seed * 5000 + i, windows)
        C = fi_homology.two_term_complex(f)
        rep.instances += 1
        tdeg = fi_homology.hyper_t_degrees(C, 1)
        # homology modules of the complex and the growth inequality
        H0 = fi_core.cokernel_module(f)
        ker = fi_core.submodule_from_kernels(f)
        i0 = fi_homology.invariants(H0)
        ik = fi_homology.invariants(ker)  # two-term: H1 = ker
        if i0.delta_certified and ik.delta_certified:
            _check(rep, i0.delta <= tdeg[0],
                   f"complex[{i}]: delta(H0) {i0.delta} > t_0 {tdeg[0]}")
            _check(rep, ik.delta <= tdeg[1],
                   f"complex[{i}]: delta(H1) {ik.delta} > t_1 {tdeg[1]}")
        else:
            rep.skipped_uncertified += 1
        tS = fi_homology.hyper_t_degrees(C, 1, 1)
        for k_ in tdeg:
            _check(rep, tS[k_] <= tdeg[k_],
                   f"complex[{i}]: shifted t_{k_} increased")

    return rep
