"""One benchmark workload in a fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
                                   --trace 0|1 [--setup-only]

Run from the repository root with ``src`` on PYTHONPATH; ``run.py``
starts it that way.  The process imports fistab and builds the
workload's cases (the set-up), then runs passes over all cases until
the next pass would end after ``--seconds``, always at least one.  A
pass's time is the sum of its cases' times, each from the library call
to the checked answer; the reference task timed between cases is not
counted.  Every answer is compared with a pinned value; a wrong answer
or an exception counts as a failed case, not as a time.

With ``--trace 1`` the first half of the time runs untraced passes and
the second half traced ones, at least one of each, so the traced run
reports its own overhead.  With ``--setup-only`` the process stops after
the set-up and prints when it ended.  The last line of standard
output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable


def _clock() -> float:
    # CLOCK_MONOTONIC is system wide, so run.py can subtract its own
    # reading taken before it started this process.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Case:
    name: str
    run: Callable[[], Any]
    expected: Any


def cli_cases(commands: tuple[str, ...]) -> list[Case]:
    """Commands run through cli.main in this process, for the tracer."""
    from fistab import cli

    def command(args: str):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(args.split() + ["--json"])
        return code, json.loads(out.getvalue()).get("verdict", "pass")

    return [Case(args, lambda args=args: command(args), (0, "pass"))
            for args in commands]


# ---------------------------------------------------------------------------
# fi_audit: the FI layer
# ---------------------------------------------------------------------------

# bounds.audit at its default family sizes (60 presented, 15 derivatives,
# 15 maps, 15 complexes) on windows of N=6, one family per case so that
# the reference task runs between them.  The families are independent, so
# the four calls do the work of one audit(seed, N=6).  The default N=7
# takes about 62 s on 2 cores, more than one benchmark run may take.
AUDIT_N = 6
AUDIT_FAMILIES = {"presented": (60, 0, 0, 0), "derivatives": (0, 15, 0, 0),
                  "maps": (0, 0, 15, 0), "complexes": (0, 0, 0, 15)}

# (instances, checks, skipped) per family at AUDIT_N, measured at the
# commit that added the benchmark; 7 is the held-out seed.  The totals
# are 119, 574, 6 for seed 2025 and 119, 568, 8 for seed 7.  Every seed
# is checked for zero violations; the counts depend on the seed, so they
# are compared only where pinned.
AUDIT_PINNED = {
    2025: {"presented": (74, 448, 0), "derivatives": (15, 15, 0),
           "maps": (15, 51, 6), "complexes": (15, 60, 0)},
    7: {"presented": (74, 448, 0), "derivatives": (15, 15, 0),
        "maps": (15, 47, 7), "complexes": (15, 58, 1)},
}


def fi_audit_cases(seed: int) -> list[Case]:
    from fistab import bounds
    pinned = AUDIT_PINNED.get(seed)

    def run(sizes):
        rep = bounds.audit(seed, *sizes, N=AUDIT_N)
        counts = (rep.instances, rep.checks, rep.skipped_uncertified)
        return rep.violations, counts if pinned else None

    return [Case(f"audit({seed}, {family}, N={AUDIT_N})",
                 lambda sizes=sizes: run(sizes),
                 ([], pinned[family] if pinned else None))
            for family, sizes in AUDIT_FAMILIES.items()]


# ---------------------------------------------------------------------------
# spb_homology: split-basis complexes, sparse ranks and the Smith form
# ---------------------------------------------------------------------------

def spb_homology_cases(seed: int) -> list[Case]:
    from fistab import splitbases as sb

    def spb3_z9_f3():
        X = sb.spb_complex(9, 3, 3, "spb_modI")
        return X.f_vector(), sb.reduced_betti(X, 3, [0, 1, 2])

    def spb3_z4_f2():
        X = sb.spb_complex(4, 2, 3, "spb_modI")
        return sb.reduced_betti(X, 2, [0, 1, 2])

    def spb3_z4_integral():
        X = sb.spb_complex(4, 2, 3, "spb_modI")
        return sb.integral_reduced_homology(X, [0, 1, 2])

    def spb4_z4():
        X = sb.spb_complex(4, 2, 4, "spb_modI")
        return X.f_vector(), sb.reduced_betti(X, 2, [0])

    return [
        Case("SPB_3(Z/9,(3)) f-vector, H~_0..2 over F_3", spb3_z9_f3,
             ([729, 19683, 19683], {0: 0, 1: 5104, 2: 5832})),
        Case("SPB_3(Z/4,(2)) H~_0..2 over F_2", spb3_z4_f2,
             {0: 0, 1: 225, 2: 64}),
        Case("SPB_3(Z/4,(2)) integral H~_0..2", spb3_z4_integral,
             {0: (0, ()), 1: (225, ()), 2: (64, ())}),
        Case("SPB_4(Z/4,(2)) f-vector, H~_0 over F_2", spb4_z4,
             ([512, 24576, 131072, 65536], {0: 0})),
    ]


# ---------------------------------------------------------------------------
# group_homology: the congruence pipeline
# ---------------------------------------------------------------------------

THEOREM_C = {(2, 2, 0, 0): 1, (2, 2, 1, 1): 1, (2, 2, 2, 1): 2,
             (2, 2, 2, 2): 8, (3, 2, 2, 1): 2}


def group_homology_cases(seed: int) -> list[Case]:
    from fistab import congruence as cg

    cases = []
    for r in range(1, 5):
        for p in (2, 3):
            for k in range(4):
                cases.append(Case(
                    f"bar H_{k}((Z/{p})^{r}; F_{p})",
                    lambda r=r, k=k, p=p: cg.bar_homology_oracle([p] * r, k, p),
                    cg.cohom_dim_formula(r, k)))
    for args, value in THEOREM_C.items():
        cases.append(Case(f"theoremC{args}",
                          lambda args=args: _theorem_c(cg, *args),
                          (value, value)))

    def app_b():
        rep = cg.application_b_empirical(2, 2, 5)
        return rep["dims"], rep["delta"], rep["all_ok"]

    cases.append(Case("appB(2,2,5)", app_b,
                      ([0, 1, 10, 45, 136, 325], 4, True)))
    return cases


def _theorem_c(cg, p: int, ell: int, n: int, k: int) -> tuple:
    out = cg.theoremC_check(p, ell, n, k)
    return out["lhs"], out["rhs"]


# ---------------------------------------------------------------------------
# cli_battery: the verification script, one fresh interpreter per command
# ---------------------------------------------------------------------------

# The commands of scripts/run_verification.sh.
CLI_COMMANDS = (
    "verify theoremD --p 2 --ell 2 --k 1",
    "verify theoremD --p 3 --ell 2 --k 1",
    "verify charney --m 4 --q 2 --n 3",
    "verify charney --m 4 --q 2 --n 4",
    "verify charney --m 9 --q 3 --n 3",
    "verify spb_in_su --m 4 --q 2 --n 3",
    "verify ygamma --m 4 --q 2 --n 2",
    "verify ygamma --m 4 --q 2 --n 3",
    "cong theoremC --p 2 --ell 2 --n 0 --k 0",
    "cong theoremC --p 2 --ell 2 --n 1 --k 1",
    "cong theoremC --p 2 --ell 2 --n 2 --k 1",
    "cong theoremC --p 2 --ell 2 --n 2 --k 2",
    "cong appB --k 1 --p 2 --N 6",
    "bounds congruence --d 0 --k 1",
)


def cli_battery_cases(seed: int) -> list[Case]:
    """Each command in a fresh interpreter, start-up included.

    The script calls a `fistab` console script, which needs an installed
    package; `python -m fistab.cli` is the same entry point from `src`.
    """
    import fistab.cli  # noqa: F401  (set-up imports fistab in every workload)

    def command(args: str):
        proc = subprocess.run(
            [sys.executable, "-m", "fistab.cli", *args.split(), "--json"],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            return proc.returncode, None
        return 0, json.loads(proc.stdout).get("verdict", "pass")

    return [Case(args, lambda args=args: command(args), (0, "pass"))
            for args in CLI_COMMANDS]


WORKLOADS = {
    "fi_audit": fi_audit_cases,
    "spb_homology": spb_homology_cases,
    "group_homology": group_homology_cases,
    "cli_battery": cli_battery_cases,
}

# The tracer sees only its own process, so a traced cli_battery runs its
# commands through cli.main, untraced and traced passes alike.
TRACED_WORKLOADS = {"cli_battery": lambda seed: cli_cases(CLI_COMMANDS)}


# ---------------------------------------------------------------------------
# references and the pass loop
# ---------------------------------------------------------------------------

# On a shared machine the speed drifts by 20% and more over minutes, and
# a pass slows with it.  So the pass loop times a reference, fixed work
# that calls no fistab code, between cases, and reports the case time
# also at the reference's nominal speed (see run_passes).  In-process
# work and interpreter start-up drift apart, so there is one of each.


class ComputeReference:
    """In-process work: interpreter loops, dict updates, small int64
    array updates and a streaming pass over an 8 MB buffer."""

    repeats = 3        # timings per point; one alone is too noisy
    nominal_s = 0.025  # its typical time on the machine of README.md

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(12345)
        self.small = rng.integers(0, 3, size=(48, 48))
        self.big = rng.integers(0, 2**63, size=1 << 20, dtype=np.uint64)
        self.np = np

    def __call__(self) -> float:
        t0 = _clock()
        s = 0
        for i in range(120_000):
            s += i * i % 7
        d = {}
        for i in range(40_000):
            d[i * 7919 % 10007] = i
        for _ in range(2):
            M = self.small.copy()
            for r in range(M.shape[0]):
                M = (M - self.np.outer(M[:, r], M[r])) % 3
        for _ in range(16):
            self.np.bitwise_xor.reduce(self.big)
        return _clock() - t0


class StartReference:
    """A fresh interpreter that imports numpy and exits: the part of
    every set-up and of every CLI command that fistab does not add."""

    repeats = 1
    nominal_s = 0.16   # its typical time on the machine of README.md

    def __call__(self) -> float:
        t0 = _clock()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        return _clock() - t0


# Workloads whose passes are mostly interpreter start-ups.
START_SCALED = {"cli_battery"}
REF_EVERY_S = 1.0   # case time between two reference points of a pass


def run_passes(cases: list[Case], seconds: float, failures: list[str],
               reference: ComputeReference | StartReference,
               after_pass: Callable[[], None] | None = None) -> list[list[float]]:
    """Passes over all cases until the next one would end after `seconds`.

    Returns [seconds, scaled seconds] per pass: the summed case times as
    measured and at the reference's nominal speed.  The reference is
    timed (`reference.repeats` times, median) at the start of the pass,
    after every case that brings the case time since the last such point
    to REF_EVERY_S, and at the end.  The case time between two points is
    scaled by the mean of those two points, so a drift within the pass
    is followed.
    """
    def point() -> float:
        return statistics.median(reference() for _ in range(reference.repeats))

    passes: list[list[float]] = []
    start = _clock()
    longest = 0.0
    while True:
        gc.collect()   # every pass starts from the same collected heap
        begun = _clock()
        spent = scaled = segment = 0.0
        last = point()
        for i, case in enumerate(cases):
            t0 = _clock()
            try:
                got = case.run()
            except Exception:  # a raising case is a failed case
                failures.append(f"{case.name}: {traceback.format_exc(limit=3)}")
            else:
                if got != case.expected:
                    failures.append(f"{case.name}: got {got!r}, "
                                    f"expected {case.expected!r}")
            segment += _clock() - t0
            if segment >= REF_EVERY_S or i == len(cases) - 1:
                ref = point()
                spent += segment
                scaled += segment * reference.nominal_s / ((last + ref) / 2)
                last, segment = ref, 0.0
        passes.append([spent, scaled])
        if after_pass is not None:
            after_pass()
        now = _clock()
        longest = max(longest, now - begun)
        if now - start + longest > seconds:
            return passes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        # perfbench/ is on sys.path: it is the script's directory
        from tracer import Tracer
        tracer = Tracer()
    build = WORKLOADS[args.workload]
    if tracer is not None:
        build = TRACED_WORKLOADS.get(args.workload, build)
    cases = build(args.seed)
    ready = _clock()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.workload in START_SCALED and tracer is None:
        reference = StartReference()
    else:
        reference = ComputeReference()

    failures: list[str] = []
    out: dict = {"ready": ready}
    if tracer is None:
        out["passes"] = run_passes(cases, args.seconds, failures, reference)
        npass = len(out["passes"])
    else:
        out["untraced_passes"] = run_passes(cases, args.seconds / 2, failures,
                                            reference)
        tracer.install()
        out["passes"] = run_passes(cases, args.seconds / 2, failures,
                                   reference, tracer.end_pass)
        out["trace"] = tracer.snapshot()
        npass = len(out["untraced_passes"]) + len(out["passes"])
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    out["attempted"] = npass * len(cases)
    out["failed"] = len(failures)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = max(own, kids) / 1024.0   # ru_maxrss is in KiB
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
