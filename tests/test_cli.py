import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fistab import cli, congruence, errors, fi_core, fi_homology, splitbases

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_alias_theoremD(capsys):
    code, out, _ = run(capsys, "verify", "theoremD", "--p", "2", "--ell", "2",
                       "--k", "1")
    assert code == 0
    assert "pass" in out


def test_spb_verify_matches_alias(capsys):
    code1, out1, _ = run(capsys, "spb", "verify", "theoremD", "--p", "2",
                         "--ell", "2", "--k", "1", "--json")
    code2, out2, _ = run(capsys, "verify", "theoremD", "--p", "2",
                         "--ell", "2", "--k", "1", "--json")
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["outputs"] == b["outputs"]


def test_bounds_congruence_values(capsys):
    code, out, _ = run(capsys, "bounds", "congruence", "--d", "0", "--k", "1",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"] == {"delta_le": 2, "hmax_le": 8,
                              "t0_le": 11, "t1_le": 20}


@pytest.mark.parametrize("argv", [
    ["typeA", "--d", "1", "--deltas", "0", "1", "5", "--hmaxes", "0", "1",
     "2", "3", "--k", "-1"],
    ["typeA-semi", "--mu", "1", "--d", "2", "--k", "-1"],
    ["config", "--dim", "2", "--k", "-1"],
    ["typeB", "--a", "2", "--b", "0", "--k", "-2"],
    ["congruence", "--d", "0", "--k", "-1"],
    ["congruence", "--d", "-1", "--k", "1"],
])
def test_bounds_reject_negative_degrees(capsys, argv):
    code, out, err = run(capsys, "bounds", *argv)
    assert code == 2
    assert out == ""
    assert "must be nonnegative" in err


def test_bounds_audit_requires_seed(capsys):
    code, _, err = run(capsys, "bounds", "audit")
    assert code == 2
    assert "seed" in err


def test_threads_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "congruence", "--d", "0", "--k", "1",
                  "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_max_cells_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spb", "build", "--m", "4", "--q", "2", "--n", "2",
                  "--max-cells", "10"])
    assert exc.value.code == 2
    assert "--max-cells" in capsys.readouterr().err


def test_seed_flag_only_on_seeded_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "star", "--t0", "1", "--t1", "2", "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_construct_validate_invariants_pipeline(tmp_path, capsys):
    f = tmp_path / "m.json"
    code, _, _ = run(capsys, "fimod", "construct", "--kind",
                     "random-presented", "--p", "2", "--N", "6",
                     "--gen", "1", "--rel", "2", "--seed", "5",
                     "--out", str(f))
    assert code == 0
    code, out, _ = run(capsys, "fimod", "validate", str(f))
    assert code == 0 and "valid" in out
    code, out, _ = run(capsys, "fimod", "invariants", str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert "stable_degree" in doc["outputs"]


def test_construct_random_needs_seed(capsys):
    code, _, err = run(capsys, "fimod", "construct", "--kind",
                       "random-presented", "--p", "2", "--N", "5")
    assert code == 2 and "seed" in err


@pytest.mark.parametrize("argv", [
    "fimod construct --kind constant --p 4 --N 2",
    "fimod construct --kind constant --p 1 --N 2",
    "fimod construct --kind constant --p 2 --N -1",
    "cong hk --k 1 --p 2 --N -1",
    "fimod construct --kind free --p 2 --N 3 --deg -1",
    "fimod construct --kind random-presented --p 2 --N -1 --seed 1",
    "cong appB --k 1 --p 2 --N -1",
    "spb homology",
    "spb homology --m 4 --q 2",
])
def test_bad_sizes_are_usage_errors(capsys, argv):
    # a non-prime modulus, a negative window or a negative degree is bad
    # input (exit 2), never a window or a traceback
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == "" and "error:" in err


@pytest.mark.parametrize("argv, name", [
    ("cong theoremC --p 2 --ell 2 --n 1 --k -1", "degree k"),
    ("cong theoremC --p 2 --ell 2 --n -1 --k 1", "rank n"),
    ("cong group --m 4 --q 2 --n -1", "rank n"),
    ("spb build --m 4 --q 2 --n -1", "rank n"),
    ("verify charney --m 4 --q 2 --n -1", "rank n"),
])
def test_negative_sizes_name_the_parameter(capsys, argv, name):
    # a negative size is refused with a message that names it
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err == f"error: {name} must be nonnegative, got -1\n"


@pytest.mark.parametrize("argv", [
    "cong appB --k 1 --p 2 --N 2",
    "cong appB --k 1 --p 2 --N 1",
    "cong appB --k 2 --p 3 --N 1",
    "fimod fit {free}",
])
def test_windows_too_short_to_fit_are_usage_errors(tmp_path, capsys, argv):
    # these windows are too short to find the stable or local degree, so
    # there is nothing to fit: a one-line error and exit 2, no traceback
    f = tmp_path / "free.json"
    fi_core.save(fi_core.free_module(2, 2, 2), str(f))
    code, out, err = run(capsys, *argv.format(free=f).split())
    assert code == 2
    assert out == "" and err.startswith("error: window too short")
    assert len(err.splitlines()) == 1


def test_failed_fit_exit_code(tmp_path, capsys, monkeypatch):
    def misfit(*args):
        raise fi_homology.FitError("dimensions leave the fit")

    monkeypatch.setattr(fi_homology, "polynomial_fit", misfit)
    f = tmp_path / "free.json"
    fi_core.save(fi_core.free_module(2, 1, 5), str(f))
    for argv in (["fimod", "fit", str(f)],
                 ["cong", "appB", "--k", "1", "--p", "2", "--N", "5"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "fit failed: dimensions leave the fit\n"


def test_cong_hk_feeds_fimod(tmp_path, capsys):
    f = tmp_path / "h1.json"
    code, _, _ = run(capsys, "cong", "hk", "--k", "1", "--p", "2", "--N", "5",
                     "--out", str(f))
    assert code == 0
    code, out, _ = run(capsys, "fimod", "fit", str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["coeffs"] == [0, 1, 2]


def test_bad_input_file_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{broken")
    code, _, err = run(capsys, "fimod", "invariants", str(f))
    assert code == 2
    code, _, err = run(capsys, "fimod", "invariants", str(tmp_path / "no"))
    assert code == 2
    f.write_text(json.dumps({"kind": "fi_module", "p": 2, "N": -1,
                             "levels": []}))
    for cmd in ("validate", "invariants"):
        code, out, err = run(capsys, "fimod", cmd, str(f))
        assert code == 2 and out == "" and "error:" in err, cmd


def test_fimod_commands_reject_invalid_window(tmp_path, capsys):
    M = fi_core.free_module(2, 1, 4)
    M.act[4][0] = M.act[4][1]
    f = tmp_path / "broken.json"
    fi_core.save(M, str(f))
    for cmd in ("invariants", "homology", "fit"):
        code, out, err = run(capsys, "fimod", cmd, str(f))
        assert code == 2, cmd
        assert out == "" and "error:" in err
    code, out, _ = run(capsys, "fimod", "validate", str(f), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "invalid" and doc["outputs"]["errors"]


def test_fimod_validate_monomial_window_messages(tmp_path, capsys):
    # saved free windows with a flipped sign and with swapped structure
    # map columns; the messages are those the dense checks gave
    M = fi_core.free_module(3, 1, 4)
    A = M.act[3][0].copy()
    A[1, 0] = 2
    M.act[3][0] = A
    N = fi_core.free_module(3, 1, 4)
    N.phi[4] = N.phi[4][:, [1, 0, 2]]
    want = [["level 3: involution fails for s_0",
             "level 3: braid relation fails at s_0, s_1",
             "level 3: structure map not equivariant at s_0",
             "level 4: structure map not equivariant at s_0"],
            ["level 4: structure map not equivariant at s_1"]]
    for W, errors in zip((M, N), want):
        f = tmp_path / "w.json"
        fi_core.save(W, str(f))
        code, out, _ = run(capsys, "fimod", "validate", str(f), "--json")
        assert code == 1
        assert json.loads(out)["outputs"]["errors"] == errors


def test_feasibility_guard_exit_code(capsys):
    code, _, err = run(capsys, "spb", "build", "--m", "4", "--q", "2",
                       "--n", "6")
    assert code == 3
    assert "guard" in err or "cap" in err


def test_spb_homology_from_file(tmp_path, capsys):
    f = tmp_path / "x.json"
    code, _, _ = run(capsys, "spb", "build", "--m", "4", "--q", "2",
                     "--n", "2", "--out", str(f))
    assert code == 0
    code, out, _ = run(capsys, "spb", "homology", "--file", str(f),
                       "--p", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["betti"] == {"0": 3, "1": 4}


def test_spb_homology_integral(capsys):
    code, out, _ = run(capsys, "spb", "homology", "--m", "4", "--q", "2",
                       "--n", "2", "--integral", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["integral"]["0"] == {"free": 3, "torsion": []}


@pytest.mark.parametrize("maximal,flags", [
    ([[0, 1], [1, 5]], ["--p", "2", "--k", "2"]),
    ([[0, 1], [1, 5]], ["--p", "2"]),
    ([[0, -1]], ["--integral"]),
    ([[0, 1], []], ["--p", "2"]),
    ([[0, True]], ["--p", "2"]),
])
def test_spb_homology_rejects_bad_complex_file(tmp_path, capsys, maximal,
                                               flags):
    # an index outside the vertex list, or an empty maximal simplex, is
    # bad input (exit 2), never a homology answer or a traceback
    f = tmp_path / "x.json"
    f.write_text(json.dumps({"kind": "simplicial", "vertices": ["a", "b"],
                             "maximal": maximal}))
    code, out, err = run(capsys, "spb", "homology", "--file", str(f), *flags)
    assert code == 2
    assert out == "" and "error:" in err


def test_cong_group_and_theoremC(capsys):
    code, out, _ = run(capsys, "cong", "group", "--m", "4", "--q", "2",
                       "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["outputs"]["order"] == 16
    code, out, _ = run(capsys, "cong", "theoremC", "--p", "2", "--ell", "2",
                       "--n", "1", "--k", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["equal"] is True


def test_report_records_main_argv(capsys):
    # in-process calls record their own arguments, not the host's argv
    argv = ["bounds", "star", "--t0", "1", "--t1", "2", "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["command"] == " ".join(argv)


def test_json_reports_deterministic(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "spb", "build", "--m", "4", "--q", "2",
                        "--n", "3", "--json")
        doc = json.loads(out)
        doc.pop("timings")
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_spb_build_counts(capsys, tmp_path):
    # SPB_3(Z/4,(2)): the 512 kernel elements give 512 distinct bases
    code, out, _ = run(capsys, "spb", "build", "--m", "4", "--q", "2",
                       "--n", "3", "--json")
    assert code == 0
    assert json.loads(out)["outputs"] == {
        "name": "SPB_3(Z/4,2)", "f_vector": [96, 768, 512],
        "vertices": 96, "maximal": 512}
    # the full-ring orbit lists each basis once per ordering of it
    f = tmp_path / "x.json"
    code, _, _ = run(capsys, "spb", "build", "--m", "3", "--q", "1",
                     "--n", "2", "--variant", "spb", "--out", str(f))
    assert code == 0
    doc = json.loads(f.read_text())
    assert len(doc["vertices"]) == 24 and len(doc["maximal"]) == 24
    assert doc["maximal"] == sorted(doc["maximal"])


def test_charney_and_ygamma_cli(capsys):
    code, out, _ = run(capsys, "verify", "charney", "--m", "4", "--q", "2",
                       "--n", "3")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "verify", "ygamma", "--m", "4", "--q", "2",
                       "--n", "2")
    assert code == 0 and "pass" in out


def _fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    return env


# Prints the fistab modules (fistab.cli aside) and whether numpy is loaded
# after importing fistab.cli and running the command in argv, if any.
FOOTPRINT = """
import contextlib, io, json, sys
import fistab.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert fistab.cli.main(sys.argv[1:]) == 0
print(json.dumps([sorted(m for m in sys.modules if m.startswith("fistab")
                         and m != "fistab.cli"), "numpy" in sys.modules]))
"""

VERIFY = ["fistab", "fistab.errors", "fistab.exactlin", "fistab.splitbases"]
CONGRUENCE = ["fistab", "fistab.congruence", "fistab.errors",
              "fistab.exactlin", "fistab.fi_core", "fistab.fi_homology",
              "fistab.splitbases"]

FOOTPRINTS = [
    ("", ["fistab", "fistab.errors"], False),
    ("bounds congruence --d 0 --k 1", ["fistab", "fistab.bounds",
                                       "fistab.errors"], False),
    ("verify theoremD --p 2 --ell 2 --k 1", VERIFY, True),
    ("verify charney --m 4 --q 2 --n 3", VERIFY, True),
    ("verify spb_in_su --m 4 --q 2 --n 3", VERIFY, True),
    ("verify ygamma --m 4 --q 2 --n 2", VERIFY, True),
    ("cong theoremC --p 2 --ell 2 --n 1 --k 1", CONGRUENCE, True),
    ("cong appB --k 1 --p 2 --N 6", sorted(CONGRUENCE + ["fistab.bounds"]),
     True),
]


@pytest.mark.parametrize("argv, modules, numpy", FOOTPRINTS,
                         ids=[argv or "import" for argv, _, _ in FOOTPRINTS])
def test_commands_import_only_what_they_run(argv, modules, numpy):
    # each command in a fresh interpreter, as a shell user starts it
    args = argv.split() + ["--json"] if argv else []
    out = subprocess.run([sys.executable, "-c", FOOTPRINT, *args],
                         capture_output=True, text=True, env=_fresh_env(),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [modules, numpy]


# (class, its old paths, the library function that raises it, a command
# that calls that function, exit code, stderr prefix)
LADDER = [
    (errors.ValidationError, [(fi_core, "ValidationError")],
     (fi_core, "assert_valid"), "fimod invariants {free}", 2, "error: "),
    (errors.WindowError, [(fi_core, "WindowError"),
                          (fi_homology, "WindowError")],
     (fi_homology, "homology_table"), "fimod homology {free}", 2, "error: "),
    (errors.InternalConsistencyError,
     [(fi_homology, "InternalConsistencyError"),
      (congruence, "InternalConsistencyError")],
     (congruence, "theoremC_check"), "cong theoremC --p 2 --ell 2 --n 1 --k 1",
     4, "internal inconsistency: "),
    (errors.FitError, [(fi_homology, "FitError")],
     (fi_homology, "polynomial_fit"), "fimod fit {free}", 1, "fit failed: "),
    (errors.FeasibilityError, [(splitbases, "FeasibilityError"),
                               (congruence, "FeasibilityError")],
     (splitbases, "spb_complex"), "spb homology --m 4 --q 2 --n 3", 3,
     "feasibility guard: "),
]


@pytest.mark.parametrize("cls, old_paths, target, argv, code, prefix", LADDER,
                         ids=[case[0].__name__ for case in LADDER])
def test_exit_code_ladder(tmp_path, capsys, monkeypatch, cls, old_paths,
                          target, argv, code, prefix):
    for module, name in old_paths:
        assert getattr(module, name) is cls

    def fail(*args, **kwargs):
        raise cls("planted")

    f = tmp_path / "free.json"
    fi_core.save(fi_core.free_module(2, 1, 5), str(f))
    monkeypatch.setattr(*target, fail)
    got, out, err = run(capsys, *argv.format(free=f).split())
    assert got == code
    assert out == ""
    assert err == prefix + "planted\n"


def test_verification_script_runs_the_benchmarked_commands():
    script = ROOT / "scripts" / "run_verification.sh"
    commands = tuple(line.split(" ", 1)[1]
                     for line in script.read_text().splitlines()
                     if line.startswith("fistab "))
    # cli_battery times this script's commands, so they must stay the same;
    # its list is read from the source, without running the benchmark code
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    benchmarked, = (ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["CLI_COMMANDS"])
    assert commands == benchmarked

    env = _fresh_env()
    env["PATH"] = os.pathsep.join([os.path.dirname(sys.executable),
                                   env.get("PATH", "")])
    out = subprocess.run(["sh", str(script)], capture_output=True, text=True,
                         env=env, timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "verification battery passed"
