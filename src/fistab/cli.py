"""Command-line surface: `fistab`.

Subcommand trees mirror the library modules one-to-one so verification
runs are scriptable.  Exit codes: 0 success/verified, 1 violation,
failed nonvanishing check or failed polynomial fit, 2 usage or input
error or a window too short for the request, 3 feasibility guard, 4
internal inconsistency (two routes that must agree did not).

Each subcommand imports the library modules it runs when it runs, so a
command starts with only its own code loaded: `fistab bounds` loads no
numpy, and a `verify` command loads only `splitbases` and `exactlin`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .errors import (FeasibilityError, FitError, InternalConsistencyError,
                     ValidationError, WindowError)


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the full report as JSON")
    sub.add_argument("--out", metavar="FILE", help="write the report here")


def _emit(args, report: dict, code: int) -> int:
    if args.as_json:
        text = json.dumps(report, indent=2, default=_jsonable)
    else:
        text = _human(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return code


def _jsonable(x):
    import numpy as np
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    return str(x)


def _human(report: dict) -> str:
    lines = []
    for k, v in report.items():
        if isinstance(v, dict):
            lines.append(f"{k}:")
            for k2, v2 in v.items():
                lines.append(f"  {k2}: {v2}")
        else:
            lines.append(f"{k}: {v}")
    return "\n".join(lines)


def _report(args, outputs: dict, t0: float, verdict=None) -> dict:
    rep = {
        "command": args.command,
        "version": __version__,
        "outputs": outputs,
        "timings": {"seconds": round(time.perf_counter() - t0, 3)},
    }
    if getattr(args, "seed", None) is not None:
        rep["seed"] = args.seed
    if verdict is not None:
        rep["verdict"] = verdict
    return rep


# ---------------------------------------------------------------------------
# fimod
# ---------------------------------------------------------------------------


def _cmd_fimod_validate(args) -> int:
    from . import fi_core
    t0 = time.perf_counter()
    M = fi_core.load(args.file)
    errors = fi_core.validate(M)
    rep = _report(args, {"errors": errors},
                  t0, "valid" if not errors else "invalid")
    return _emit(args, rep, 0 if not errors else 1)


def _cmd_fimod_construct(args) -> int:
    from . import fi_core
    if args.kind == "constant":
        M = fi_core.constant_module(args.p, args.N)
    elif args.kind == "free":
        M = fi_core.free_module(args.p, args.deg, args.N)
    elif args.kind == "random-presented":
        if args.seed is None:
            raise UsageError("--seed is mandatory for random-presented")
        M = fi_core.random_presented(args.p, args.N, args.gen, args.rel,
                                     args.seed)
    else:
        raise UsageError(f"unknown kind {args.kind}")
    doc = fi_core.encode(M)
    text = json.dumps(doc, indent=None if args.out else 2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}: dims {M.dims}")
    else:
        print(text)
    return 0


def _cmd_fimod_invariants(args) -> int:
    from . import fi_core, fi_homology
    t0 = time.perf_counter()
    M = fi_core.load(args.file)
    fi_core.assert_valid(M)
    inv = fi_homology.invariants(M)
    rep = _report(args, inv.asdict(), t0)
    return _emit(args, rep, 0)


def _cmd_fimod_homology(args) -> int:
    from . import fi_core, fi_homology
    t0 = time.perf_counter()
    M = fi_core.load(args.file)
    fi_core.assert_valid(M)
    table = fi_homology.homology_table(M, args.imax)
    rep = _report(args, {"dims": M.dims, "homology": table}, t0)
    return _emit(args, rep, 0)


def _cmd_fimod_fit(args) -> int:
    from . import fi_core, fi_homology
    t0 = time.perf_counter()
    M = fi_core.load(args.file)
    fi_core.assert_valid(M)
    inv = fi_homology.invariants(M)
    fit = fi_homology.polynomial_fit(M, inv.delta, inv.hmax)
    rep = _report(args, {"coeffs": list(fit.coeffs), "onset": fit.onset,
                         "pretty": fit.pretty()}, t0)
    return _emit(args, rep, 0)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _cmd_bounds(args) -> int:
    from . import bounds
    t0 = time.perf_counter()
    which = args.bounds_cmd
    if which == "star":
        out = bounds.star_bounds(args.t0, args.t1)
    elif which == "localcohom":
        out = {"h_bounds": bounds.local_cohomology_bounds(
            args.t0, args.t1, args.delta)}
    elif which == "kercoker":
        out = bounds.kercoker_bounds(args.delta_a, args.hmax_a,
                                     args.delta_b, args.hmax_b)
    elif which == "typeA":
        out = bounds.typeA_propagate(args.d, args.deltas, args.hmaxes, args.k)
    elif which == "typeA-semi":
        out = bounds.typeA_semiinduced(args.mu, args.d, args.k)
    elif which == "config":
        out = bounds.config_bounds(args.dim, args.orientable, args.k,
                                   args.two_vector_fields)
    elif which == "typeB":
        out = bounds.typeB_growth(args.a, args.b, args.k)
    elif which == "congruence":
        out = bounds.congruence_bounds(args.d, args.k)
    elif which == "audit":
        if args.seed is None:
            raise UsageError("--seed is mandatory for the audit")
        repo = bounds.audit(args.seed, N=args.N)
        out = {"instances": repo.instances, "checks": repo.checks,
               "skipped_uncertified": repo.skipped_uncertified,
               "violations": repo.violations}
        rep = _report(args, out, t0, "pass" if repo.ok() else "violations")
        return _emit(args, rep, 0 if repo.ok() else 1)
    else:  # pragma: no cover
        raise UsageError(f"unknown bounds command {which}")
    rep = _report(args, out, t0)
    return _emit(args, rep, 0)


# ---------------------------------------------------------------------------
# spb
# ---------------------------------------------------------------------------


def _cmd_spb_build(args) -> int:
    from . import splitbases
    t0 = time.perf_counter()
    X = splitbases.spb_complex(args.m, args.q, args.n, args.variant)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(X.encode(), fh)
        print(f"wrote {args.out}: f-vector {X.f_vector()}")
        return 0
    rep = _report(args, {"name": X.name, "f_vector": X.f_vector(),
                         "vertices": len(X.vertices),
                         "maximal": sum(map(len, X.maximal_rows))}, t0)
    return _emit(args, rep, 0)


def _cmd_spb_homology(args) -> int:
    from . import splitbases
    t0 = time.perf_counter()
    if args.file:
        with open(args.file) as fh:
            X = splitbases.SimplicialComplex.decode(json.load(fh))
    elif None in (args.m, args.q, args.n):
        raise UsageError("spb homology needs --file or all of --m --q --n")
    else:
        X = splitbases.spb_complex(args.m, args.q, args.n, args.variant)
    ks = args.k if args.k else list(range(max(X.dimension(), 0) + 1))
    if args.integral:
        hom = splitbases.integral_reduced_homology(X, ks)
        out = {"integral": {k: {"free": v[0], "torsion": list(v[1])}
                            for k, v in hom.items()}}
    else:
        out = {"betti": splitbases.reduced_betti(X, args.p, ks)}
    out["f_vector"] = X.f_vector()
    rep = _report(args, out, t0)
    return _emit(args, rep, 0)


def _cmd_spb_verify(args) -> int:
    from . import splitbases
    t0 = time.perf_counter()
    mode = args.mode
    if mode == "theoremD":
        out = splitbases.verify_theoremD(args.p, args.ell, args.k)
        ok = out["nonvanishing"]
    elif mode == "charney":
        out = splitbases.verify_charney(args.m, args.q, args.n, args.d)
        ok = out["all_vanish"]
    elif mode == "spb_in_su":
        out = splitbases.verify_spb_in_su(args.m, args.q, args.n, args.d)
        ok = out["all_contained"]
    elif mode == "ygamma":
        out = splitbases.coset_spb_isomorphism(args.m, args.q, args.n)
        ok = (out["vertex_bijection"] and out["maximal_simplices_match"]
              and out["saturated"])
    else:  # pragma: no cover
        raise UsageError(f"unknown verify mode {mode}")
    rep = _report(args, out, t0, "pass" if ok else "FAIL")
    return _emit(args, rep, 0 if ok else 1)


# ---------------------------------------------------------------------------
# cong
# ---------------------------------------------------------------------------


def _cmd_cong(args) -> int:
    from . import congruence, fi_core
    t0 = time.perf_counter()
    which = args.cong_cmd
    if which == "group":
        out = congruence.identify_structure(args.m, args.q, args.n)
        rep = _report(args, out, t0)
        return _emit(args, rep, 0)
    if which == "hk":
        M = congruence.hk_fi_module(args.k, args.p, args.N)
        doc = fi_core.encode(M)
        text = json.dumps(doc)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.out}: dims {M.dims}")
        else:
            print(text)
        return 0
    if which == "appB":
        out = congruence.application_b_empirical(args.k, args.p, args.N)
        rep = _report(args, out, t0, "pass" if out["all_ok"] else "FAIL")
        return _emit(args, rep, 0 if out["all_ok"] else 1)
    if which == "theoremC":
        out = congruence.theoremC_check(args.p, args.ell, args.n, args.k)
        rep = _report(args, out, t0, "pass" if out["equal"] else "FAIL")
        return _emit(args, rep, 0 if out["equal"] else 1)
    raise UsageError(f"unknown cong command {which}")  # pragma: no cover


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fistab",
        description="stability invariants of symmetric-group module "
                    "sequences, split-basis complexes, and congruence "
                    "kernel homology")
    sub = top.add_subparsers(dest="cmd", required=True)

    fimod = sub.add_parser("fimod", help="module windows").add_subparsers(
        dest="fimod_cmd", required=True)
    p = fimod.add_parser("validate")
    p.add_argument("file")
    _common(p)
    p.set_defaults(fn=_cmd_fimod_validate)
    p = fimod.add_parser("construct")
    p.add_argument("--kind", required=True,
                   choices=["constant", "free", "random-presented"])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--deg", type=int, default=1)
    p.add_argument("--gen", type=int, default=1)
    p.add_argument("--rel", type=int, default=2)
    p.add_argument("--seed", type=int, help="seed of random-presented")
    _common(p)
    p.set_defaults(fn=_cmd_fimod_construct)
    for name, fn in [("invariants", _cmd_fimod_invariants),
                     ("homology", _cmd_fimod_homology),
                     ("fit", _cmd_fimod_fit)]:
        p = fimod.add_parser(name)
        p.add_argument("file")
        if name == "homology":
            p.add_argument("--imax", type=int, default=1)
        _common(p)
        p.set_defaults(fn=fn)

    bnd = sub.add_parser("bounds", help="closed-form calculators")
    bsub = bnd.add_subparsers(dest="bounds_cmd", required=True)
    specs = {
        "star": [("--t0", int, True), ("--t1", int, True)],
        "localcohom": [("--t0", int, True), ("--t1", int, True),
                       ("--delta", int, True)],
        "kercoker": [("--delta-a", int, True), ("--hmax-a", int, True),
                     ("--delta-b", int, True), ("--hmax-b", int, True)],
        "typeA": [("--d", int, True), ("--k", int, True)],
        "typeA-semi": [("--mu", int, True), ("--d", int, True),
                       ("--k", int, True)],
        "config": [("--dim", int, True), ("--k", int, True)],
        "typeB": [("--a", int, True), ("--b", int, True), ("--k", int, True)],
        "congruence": [("--d", int, True), ("--k", int, True)],
        "audit": [("--N", int, False)],
    }
    for name, flags in specs.items():
        p = bsub.add_parser(name)
        for flag, typ, req in flags:
            p.add_argument(flag, type=typ, required=req,
                           default=None if req else 7)
        if name == "typeA":
            p.add_argument("--deltas", type=int, nargs="+", required=True)
            p.add_argument("--hmaxes", type=int, nargs="+", required=True)
        if name == "config":
            p.add_argument("--orientable", action="store_true")
            p.add_argument("--two-vector-fields", action="store_true")
        if name == "audit":
            p.add_argument("--seed", type=int, help="seed of the audit")
        _common(p)
        p.set_defaults(fn=_cmd_bounds)

    spb = sub.add_parser("spb", help="split-basis complexes").add_subparsers(
        dest="spb_cmd", required=True)
    p = spb.add_parser("build")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", default="spb_modI",
                   choices=["spb_modI", "su_modI", "spb", "su"])
    _common(p)
    p.set_defaults(fn=_cmd_spb_build)
    p = spb.add_parser("homology")
    p.add_argument("--file")
    p.add_argument("--m", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--variant", default="spb_modI",
                   choices=["spb_modI", "su_modI", "spb", "su"])
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--k", type=int, nargs="*")
    p.add_argument("--integral", action="store_true")
    _common(p)
    p.set_defaults(fn=_cmd_spb_homology)
    _add_verify_parser(spb.add_parser("verify"))

    cong = sub.add_parser("cong", help="congruence kernel homology"
                          ).add_subparsers(dest="cong_cmd", required=True)
    p = cong.add_parser("group")
    for f in ("--m", "--q", "--n"):
        p.add_argument(f, type=int, required=True)
    _common(p)
    p.set_defaults(fn=_cmd_cong)
    p = cong.add_parser("hk")
    for f in ("--k", "--p", "--N"):
        p.add_argument(f, type=int, required=True)
    _common(p)
    p.set_defaults(fn=_cmd_cong)
    p = cong.add_parser("appB")
    for f in ("--k", "--p", "--N"):
        p.add_argument(f, type=int, required=True)
    _common(p)
    p.set_defaults(fn=_cmd_cong)
    p = cong.add_parser("theoremC")
    for f in ("--p", "--ell", "--n", "--k"):
        p.add_argument(f, type=int, required=True)
    _common(p)
    p.set_defaults(fn=_cmd_cong)

    # top-level alias: `fistab verify ...` = `fistab spb verify ...`
    _add_verify_parser(sub.add_parser("verify",
                                      help="alias for `spb verify`"))
    return top


def _add_verify_parser(p: argparse.ArgumentParser) -> None:
    vs = p.add_subparsers(dest="mode", required=True)
    q = vs.add_parser("theoremD")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--ell", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    _common(q)
    q.set_defaults(fn=_cmd_spb_verify)
    for mode in ("charney", "spb_in_su"):
        q = vs.add_parser(mode)
        q.add_argument("--m", type=int, required=True)
        q.add_argument("--q", type=int, required=True)
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--d", type=int, default=None)
        _common(q)
        q.set_defaults(fn=_cmd_spb_verify)
    q = vs.add_parser("ygamma")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--q", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    _common(q)
    q.set_defaults(fn=_cmd_spb_verify)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(argv)
    args.command = " ".join(argv)
    try:
        return args.fn(args)
    except FeasibilityError as exc:
        print(f"feasibility guard: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    except (UsageError, FileNotFoundError, json.JSONDecodeError,
            ValueError, KeyError, ValidationError, WindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
