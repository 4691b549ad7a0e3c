"""fistab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fistab is imported from ``src``.
The workload runs in a fresh process (``workloads.py``).  With
``--trace 0`` it first starts that process several times with
``--setup-only`` to time start-up, import and input building, then once
for the timed passes, and reports the end-to-end metrics.  With
``--trace 1`` it reports the per-layer metrics of a traced run instead.
Metric names and units come from BENCHMARK.json.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import StartReference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9
DEADLINE_S = 170.0   # a run must end within 180 s


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _read_field(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    import ctypes

    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    # The ceiling keeps git from reporting a repository that merely
    # contains this checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    if out.returncode != 0:
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def machine() -> dict:
    """What a result depends on besides the code; compare only equal lines."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _read_field("/proc/cpuinfo", "model name"),
        "mem_total": _read_field("/proc/meminfo", "MemTotal"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
        "commit": _git_commit(),
    }


def _spawn(args: list[str], deadline: float) -> dict:
    """Run workloads.py with `args`; return its result line and start time."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    cmd = [sys.executable, os.path.join(HERE, "workloads.py")] + args
    started = _clock()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    result = json.loads(out.rstrip("\n").rsplit("\n", 1)[-1])
    result["started"] = started
    return result


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def layer_value(name: str, trace: dict, npass: int) -> float:
    """A per-layer metric `<label>.<field>` from the traced run, per pass."""
    if name == "exactlin.rank_sum":
        return trace["rank_sum"] / npass
    label, field = name.rsplit(".", 1)
    st = trace["spans"].get(label, {})
    if field == "unique_frac":
        return st["unique"] / st["calls"] if st.get("calls") else 0.0
    if field == "max_cells":
        return st.get(field, 0)
    return st.get(field, 0) / npass


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = _clock() + DEADLINE_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "fistab", "__init__.py")):
        print(f"error: no fistab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine()), flush=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # Each set-up is followed by a start reference, and its time is
        # scaled like a pass's (see workloads.StartReference).
        setup = []
        start_reference = StartReference()
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                r = _spawn(common + ["--setup-only"], deadline)
                setup.append((r["ready"] - r["started"], start_reference()))
        res = _spawn(common, deadline)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = res["passes"]
    raw = [spent for spent, _ in passes]
    q1, wall_s, q3 = _quartiles([scaled for _, scaled in passes])
    fail_frac = res["failed"] / res["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, wall_s median {wall_s:.4f} q1 {q1:.4f} "
          f"q3 {q3:.4f}, raw wall median {statistics.median(raw):.4f} s, "
          f"attempted {res['attempted']}, failed {res['failed']}, "
          f"fail_frac {fail_frac:.4f}")
    if args.trace:
        untraced = statistics.median(scaled for _, scaled
                                     in res["untraced_passes"])
        overhead = wall_s / untraced - 1
        print(f"untraced wall_s median {untraced:.4f}, traced {wall_s:.4f}, "
              f"tracing overhead {overhead:+.2%}")
        for label, st in sorted(res["trace"]["spans"].items()):
            print(f"span {label} " + json.dumps(
                {k: v if k == "max_cells" else v / len(passes)
                 for k, v in st.items()}))
        derived = {"fail_frac": fail_frac, "trace_overhead_frac": overhead}
        declared = spec["per_layer"]
        values = {m["name"]: derived[m["name"]] if m["name"] in derived
                  else layer_value(m["name"], res["trace"], len(passes))
                  for m in declared}
    else:
        nominal = start_reference.nominal_s
        q1s, setup_s, q3s = _quartiles([s * nominal / r for s, r in setup])
        print(f"setup_s median {setup_s:.4f} q1 {q1s:.4f} q3 {q3s:.4f} over "
              f"{len(setup)} starts, raw median "
              f"{statistics.median(s for s, _ in setup):.4f} s")
        # The times as measured, for steady.py.
        print("raw " + json.dumps({
            "wall_s": statistics.median(raw),
            "setup_s": statistics.median(s for s, _ in setup)}))
        declared = spec["end_to_end"]
        values = {"wall_s": wall_s, "setup_s": setup_s,
                  "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
