"""The benchmark tracer (perfbench/tracer.py) wraps fistab functions that
it looks up by name; a renamed function would break the benchmark, so
every name it lists must resolve."""

import importlib
import importlib.util
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
