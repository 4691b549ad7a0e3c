"""The benchmark tracer (perfbench/tracer.py) wraps fistab functions that
it looks up by name; a renamed function would break the benchmark, so
every name it lists must resolve."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    tracer = _load_tracer()
    missing = []
    for mod_name in tracer.MODULES:
        importlib.import_module(f"fistab.{mod_name}")
    for mod_name, paths in tracer.TRACED.items():
        mod = importlib.import_module(f"fistab.{mod_name}")
        for path in paths:
            owner = mod
            for part in path.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{mod_name}.{path}")
    assert missing == []


TRACED_RUN = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import tracer
from fistab import congruence, fi_core, fi_homology

t = tracer.Tracer()
t.install()
for p in (2, 3):
    # seed p gives a monomial window, seed 7 one with a fuller column,
    # which takes the dense rank route
    for seed in (p, 7):
        fi_homology.invariants(fi_core.random_presented(p, 5, 1, 2, seed))
    cyclic = np.add.outer(np.arange(p), np.arange(p)) % p
    for j in (1, 2, 3):
        congruence._bar_rank(cyclic, j, p)
snap = t.snapshot()
print(snap["rank_sum"], len(snap["spans"]))
"""


def test_traced_rank_functions_return_ints():
    # the tracer adds up int(result) of every traced rank function, so one
    # that returned a list would fail only in a traced benchmark run; this
    # installs it (in a fresh interpreter, as its rebinding is process-wide)
    # and runs the FI and bar rank paths at p = 2 and 3
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    rank_sum, spans = map(int, out.stdout.split())
    assert rank_sum > 0 and spans > 0
