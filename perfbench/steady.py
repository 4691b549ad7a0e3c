"""Steadiness report: ten benchmark runs per workload, one seed each.

    python3 perfbench/steady.py [--out FILE]

Runs ``run.py --trace 0`` for every workload of BENCHMARK.json and every
seed of SEEDS, one run at a time, and prints for every end-to-end
metric the median, the quartiles (as ``statistics.quantiles(values,
n=4)`` gives them) and the spread, the distance between the quartiles
as a share of the median, next to the metric's bound.  Times are
reported both as measured (``raw``) and at nominal machine speed, the
value the benchmark reports.  ``--out`` also writes the report as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# 2025 and 7 are the seeds whose audit counts are pinned.
SEEDS = (2025, 7, 1, 2, 3, 4, 5, 6, 8, 9)


def summary(xs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": xs}


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", help="also write the report here as JSON")
    args = ap.parse_args(argv)

    report: dict = {"seeds": list(SEEDS)}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        raw: dict[str, list[float]] = {}
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, check=False)
            lines = proc.stdout.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            if proc.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            for line in lines:
                if line.startswith("raw "):
                    for name, v in json.loads(line[4:]).items():
                        raw.setdefault(name, []).append(v)
        report[workload] = {}
        for m in spec["end_to_end"]:
            row = dict(summary(values[m["name"]]), bound=m["bound"])
            if m["name"] in raw:
                row["raw"] = summary(raw[m["name"]])
            report[workload][m["name"]] = row
            extra = (f", raw median {row['raw']['median']:.4f} spread "
                     f"{row['raw']['spread']:.4f}" if "raw" in row else "")
            print(f"{workload:15s} {m['name']:12s} median {row['median']:10.4f} "
                  f"q1 {row['q1']:10.4f} q3 {row['q3']:10.4f} "
                  f"spread {row['spread']:.4f} (bound {m['bound']}){extra}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
