"""Outside-in tracer for fistab's layers.

The tracer wraps the layer functions of each fistab module from outside
the package: every module binding of a traced function is replaced, so a
name imported with ``from .fi_core import shift`` is traced as well as
``fi_core.shift``, and methods are wrapped on their class.  Spans are
aggregated in memory as they close (calls, inclusive seconds, self
seconds) and handed out once, at the end of the run.

Self time is a span's duration minus the time covered by the traced
spans nested inside it.  Inclusive time counts only the outermost span
of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

MODULES = ("exactlin", "fi_core", "fi_homology", "bounds", "splitbases",
           "congruence", "cli")

# Layer-boundary functions of each module.  Small helpers that run
# hundreds of thousands of times per pass (compose, asmod, _check_p,
# insertion_permutation) are left out: wrapping them would cost more
# than the work they do.
TRACED = {
    "exactlin": ("rref_modp", "rank_modp", "nullspace_modp", "solve_modp",
                 "colspace_complement_projection", "sparse_rank_modp",
                 "pack_rows_gf2", "rank_gf2_packed", "rank_gf2_dense",
                 "rank_gf2_from_columns", "smith_normal_form"),
    "fi_core": ("matrix_of_permutation", "FIModuleWindow.insertion_map",
                "induced_module", "direct_sum", "quotient_by_images",
                "submodule_from_kernels", "cokernel_module", "shift",
                "derivative", "observed_torsion", "random_induced_map",
                "random_presented"),
    "fi_homology": ("koszul_boundary", "homology_at", "presentation_profiles",
                    "presentation_degrees", "is_semi_induced_window",
                    "stable_degree", "local_degree", "hyper_boundary",
                    "hyper_t_degrees", "polynomial_fit", "invariants"),
    "bounds": ("audit",),
    "splitbases": ("congruence_group", "spb_complex",
                   "SimplicialComplex.faces", "coset_complex",
                   "y_gamma_complex", "coset_spb_isomorphism",
                   "reduced_betti", "integral_reduced_homology",
                   "verify_theoremD", "verify_charney", "verify_spb_in_su"),
    "congruence": ("identify_structure", "bar_homology_from_table",
                   "homology_dims_product", "bar_homology_oracle",
                   "hk_fi_module", "equivariant_homology", "bar_fi_modules",
                   "hyper_fi_bar_homology", "theoremC_check",
                   "application_b_empirical"),
    "cli": ("main",),
}

# Functions whose return value is a rank; `exactlin.rank_sum` adds up the
# ranks they hand back to callers outside this set.
RANK_FUNCTIONS = {"exactlin.rank_modp", "exactlin.sparse_rank_modp",
                  "exactlin.rank_gf2_packed", "exactlin.rank_gf2_dense",
                  "exactlin.rank_gf2_from_columns"}

# Methods whose (object, arguments) keys are counted for `unique_frac`.
KEYED = {"fi_core.FIModuleWindow.insertion_map",
         "splitbases.SimplicialComplex.faces"}


def _cells(stat: dict, args, result) -> None:
    R = result[0]
    stat["max_cells"] = max(stat.get("max_cells", 0), R.shape[0] * R.shape[1])


def _sparse_nnz(stat: dict, args, result) -> None:
    stat["nnz"] = stat.get("nnz", 0) + sum(map(len, args[0]))


def _dense_nnz(stat: dict, args, result) -> None:
    stat["nnz"] = stat.get("nnz", 0) + int(np.count_nonzero(args[0]))


def _audit_counts(stat: dict, args, result) -> None:
    stat["instances"] = stat.get("instances", 0) + result.instances
    stat["checks"] = stat.get("checks", 0) + result.checks


COUNTERS = {
    "exactlin.rref_modp": _cells,
    "exactlin.sparse_rank_modp": _sparse_nnz,
    "exactlin.smith_normal_form": _dense_nnz,
    "bounds.audit": _audit_counts,
}


class Tracer:
    """Aggregated spans of the wrapped functions, keyed by label."""

    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self.rank_sum = 0
        self._stack: list[list[float]] = []   # covered child time per open span
        self._depth: dict[str, int] = {}      # open spans per label
        self._rank_depth = 0
        self._keys: dict[str, set] = {label: set() for label in KEYED}
        self._alive: list = []   # keeps keyed objects alive so ids stay unique

    def install(self) -> None:
        """Wrap every traced function, rebinding it in every fistab module."""
        mods = [importlib.import_module(f"fistab.{m}") for m in MODULES]
        for mod_name, paths in TRACED.items():
            mod = importlib.import_module(f"fistab.{mod_name}")
            for path in paths:
                owner = mod
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
                wrapped = self._wrap(f"{mod_name}.{path}", orig)
                if owner is not mod:
                    setattr(owner, attr, wrapped)
                    continue
                for m in mods:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, name, wrapped)

    def _wrap(self, label: str, fn):
        stat = self.stats.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0})
        counter = COUNTERS.get(label)
        is_rank = label in RANK_FUNCTIONS
        keys = self._keys.get(label)
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add((id(args[0]),) + args[1:])
                self._alive.append(args[0])
            frame = [0.0]
            stack.append(frame)
            depth[label] = depth.get(label, 0) + 1
            if is_rank:
                self._rank_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[label] -= 1
                if is_rank:
                    self._rank_depth -= 1
                if stack:
                    stack[-1][0] += dt
                stat["calls"] += 1
                stat["self_s"] += dt - frame[0]
                if depth[label] == 0:
                    stat["s"] += dt
            if is_rank and self._rank_depth == 0:
                self.rank_sum += int(result)
            if counter is not None:
                counter(stat, args, result)
            return result

        return wrapper

    def end_pass(self) -> None:
        """Fold this pass's distinct keys into the stats and release them."""
        for label, keys in self._keys.items():
            self.stats[label]["unique"] = self.stats[label].get("unique", 0) + len(keys)
            keys.clear()
        self._alive.clear()

    def snapshot(self) -> dict:
        """Stats of every label that ran, plus the rank total."""
        out = {label: dict(st) for label, st in self.stats.items() if st["calls"]}
        return {"spans": out, "rank_sum": self.rank_sum}
