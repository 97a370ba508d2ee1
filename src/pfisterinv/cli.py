"""Command-line surface: quadratic forms, quaternion algebras, involution
invariants, and the four-quaternion pipeline.

All numeric I/O is exact rational text; exit codes are 0 for a positive
result, 1 for a computed negative answer, 2 for invalid input or errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import csa, qform, quat, shapiro4
from .arith import FactorizationError, brauer_class_of_symbol, rat, rat_str
from .qform import QuadraticForm
from .quat import QuaternionAlgebra

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

VERSION = shapiro4.VERSION


class CliError(Exception):
    pass


def _parse_diag(text: str) -> QuadraticForm:
    try:
        entries = [rat(part) for part in text.split(",") if part.strip()]
        return QuadraticForm.from_diagonal(entries)
    except ValueError as exc:
        raise CliError(f"bad diagonal {text!r}: {exc}")


def _read_json(path: str, parse):
    """``parse`` of the JSON in the file; a file that cannot be read or parsed is a CliError."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad input file {path}: {exc}")


def _load_form(args) -> QuadraticForm:
    if getattr(args, "diag", None):
        return _parse_diag(args.diag)
    if getattr(args, "file", None):
        return _read_json(args.file, QuadraticForm.from_json)
    raise CliError("provide --diag or --file")


def _form_from_spec(text: str) -> QuadraticForm:
    """A form from either an inline diagonal 'a,b,...' or a JSON file path."""
    if "," in text or "/" not in text and not text.endswith(".json"):
        try:
            return _parse_diag(text)
        except CliError:
            pass
    return _read_json(text, QuadraticForm.from_json)


def _print_json(data: dict):
    print(json.dumps(data, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# qf
# ---------------------------------------------------------------------------


def _cmd_qf(args) -> int:
    if args.qf_cmd == "invariants":
        inv = _load_form(args).invariants()
        _print_json(inv.to_json())
        return EXIT_OK
    if args.qf_cmd == "witt":
        witt = qform.witt_decompose(_load_form(args))
        _print_json(witt.to_json())
        return EXIT_OK
    if args.qf_cmd == "pfister":
        ok = qform.in_GP_r(_load_form(args), args.r)
        print("similar to a Pfister form" if ok else "not similar to a Pfister form")
        return EXIT_OK if ok else EXIT_NEGATIVE
    if args.qf_cmd == "isometric":
        a = _form_from_spec(args.first)
        b = _form_from_spec(args.second)
        ok = qform.is_isometric(a, b)
        print("isometric" if ok else "not isometric")
        return EXIT_OK if ok else EXIT_NEGATIVE
    raise CliError(f"unknown qf subcommand {args.qf_cmd!r}")


# ---------------------------------------------------------------------------
# quat
# ---------------------------------------------------------------------------


def _cmd_quat(args) -> int:
    try:
        q = QuaternionAlgebra(args.a, args.b)
    except ValueError as exc:
        raise CliError(str(exc))
    if args.quat_cmd == "split":
        if quat.is_split(q):
            print("split")
            return EXIT_OK
        cls = brauer_class_of_symbol(q.a, q.b)
        print(f"not split (ramified at {', '.join(cls.labels())})")
        return EXIT_NEGATIVE
    if args.quat_cmd == "normform":
        _print_json(quat.norm_form(q).to_json())
        return EXIT_OK
    if args.quat_cmd == "splitmap":
        if not quat.is_split(q):
            print("not split: no splitting map")
            return EXIT_NEGATIVE
        sm = quat.splitting_isomorphism(q)
        _print_json(
            {
                label: [[rat_str(x) for x in row] for row in m]
                for label, m in zip(("1", "i", "j", "k"), sm.images)
            }
        )
        return EXIT_OK
    raise CliError(f"unknown quat subcommand {args.quat_cmd!r}")


# ---------------------------------------------------------------------------
# inv
# ---------------------------------------------------------------------------


def _involution_algebra_from_json(data: dict) -> csa.InvolutionAlgebra:
    if "adjoint" in data:
        a, _ = csa.adjoint_algebra(QuadraticForm.from_json(data["adjoint"]))
        return a
    built = None
    for fac in data["factors"]:
        q = QuaternionAlgebra(fac["a"], fac["b"])
        desc = fac.get("involution", "canonical")
        if desc == "canonical":
            piece = csa.from_quaternion(q, "canonical")
        else:
            piece = csa.from_quaternion(q, q.element(desc["s"]))
        built = piece if built is None else csa.tensor(built, piece)
    if built is None:
        raise CliError("empty factor list")
    if "twist" in data:
        built = csa.twist_involution(built, data["twist"])
    return built


def _cmd_inv(args) -> int:
    a = _read_json(args.algebra_file, _involution_algebra_from_json)
    if a.sigma.type_tag != "orthogonal":
        print("involution is symplectic: invariants undefined")
        return EXIT_NEGATIVE
    code = EXIT_OK
    e0 = csa.e0(a)
    print(f"e0 = {e0}")
    if e0 != 0:
        print("e1 undefined: e0 nonzero")
        return code
    e1 = csa.e1(a)
    print(f"e1 = {e1}")
    if e1 != 1:
        print("e2 undefined: e1 nonzero")
    else:
        pair = csa.e2(a)
        labels = sorted(",".join(c.labels()) or "trivial" for c in pair.classes)
        print(f"e2 = {{{'; '.join(labels)}}} (trivial: {pair.is_trivial})")
    if a.degree in (2, 4, 8):
        verdict = csa.is_pfister_involution(a)
        print(f"pfister involution: {verdict}")
        if not verdict:
            code = EXIT_NEGATIVE
    return code


# ---------------------------------------------------------------------------
# shapiro4
# ---------------------------------------------------------------------------


def _emit_reports(reports, json_path) -> int:
    for rep in reports:
        print(rep.summary_line())
        for failure in rep.failures:
            print(f"    violated: {failure}")
    if json_path:
        payload = {
            "version": VERSION,
            "reports": [rep.to_json() for rep in reports],
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return EXIT_OK if all(r.verdict == "pass" for r in reports) else EXIT_NEGATIVE


def _cmd_shapiro4(args) -> int:
    if args.s4_cmd == "run":
        if args.count < 1:
            raise CliError(f"--count must be at least 1, got {args.count}")
        reports = shapiro4.run_batch(args.count, args.seed)
        return _emit_reports(reports, args.json)
    if args.s4_cmd == "verify":
        scenario = _read_json(args.scenario, shapiro4.Scenario.from_json)
        try:
            report = shapiro4.run_scenario(scenario)
        except shapiro4.ScenarioError as exc:
            raise CliError(str(exc))
        return _emit_reports([report], args.json)
    if args.s4_cmd == "verify-u":
        return _cmd_verify_u(args)
    raise CliError(f"unknown shapiro4 subcommand {args.s4_cmd!r}")


def _u_file_from_json(data: dict):
    q1 = QuaternionAlgebra.from_json(data["q1"])
    q2 = QuaternionAlgebra.from_json(data["q2"])
    coords = tuple(map(rat, data["u"]))
    if len(coords) != 16:
        raise CliError("u must have 16 coordinates")
    return data, q1, q2, coords


def _cmd_verify_u(args) -> int:
    data, q1, q2, coords = _read_json(args.ufile, _u_file_from_json)
    d = shapiro4.build_D(q1, q2)
    try:
        u = shapiro4.UElement(d, coords)
    except shapiro4.ScenarioError as exc:
        raise CliError(f"invalid u: {exc}")
    qu = shapiro4.q_u_form(d, u.coords)
    failures = shapiro4.check_claim_1(d, u.coords, qu)
    # the Lagrangian is grown from Q1 (x) 1, isotropic by claim 1 (Trd(u) = 0)
    witt_index, _, lagrangian_failures = shapiro4.certify_witt_index(
        qu, None if failures else shapiro4.Q1_BASIS
    )
    failures += lagrangian_failures
    print(f"branch=hyperbolic witt_index={witt_index}")
    if witt_index != 8:
        failures.append(f"witt index {witt_index} != 8")
        if not qform.in_I_n(qu, 3):
            failures.append("trace form is not in the cubic ideal")
    for failure in failures:
        print(f"violated: {failure}")
    print(f"verdict={'pass' if not failures else 'fail'} (hyperbolic)")
    if args.json:
        blob = json.dumps(data, sort_keys=True).encode()
        payload = {
            "version": VERSION,
            "input_sha256": hashlib.sha256(blob).hexdigest(),
            "branch": "hyperbolic",
            "failures": failures,
            "verdict": "pass" if not failures else "fail",
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return EXIT_OK if not failures else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_form_flags(p):
    p.add_argument("--diag", help="inline diagonal entries, e.g. 1,-1,2")
    p.add_argument("--file", help="path to a form JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfisterinv",
        description="Exact invariants of quadratic forms and algebras with involution over Q.",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="cmd", required=True)

    qf = sub.add_parser("qf", help="quadratic form computations")
    qf_sub = qf.add_subparsers(dest="qf_cmd", required=True)
    for name in ("invariants", "witt"):
        _add_form_flags(qf_sub.add_parser(name))
    p = qf_sub.add_parser("pfister")
    _add_form_flags(p)
    p.add_argument("--r", type=int, required=True)
    p = qf_sub.add_parser("isometric")
    p.add_argument("first", help="diagonal entries or form file")
    p.add_argument("second", help="diagonal entries or form file")

    qt = sub.add_parser("quat", help="quaternion algebra computations")
    qt_sub = qt.add_subparsers(dest="quat_cmd", required=True)
    for name in ("split", "normform", "splitmap"):
        p = qt_sub.add_parser(name)
        p.add_argument("a")
        p.add_argument("b")

    iv = sub.add_parser("inv", help="involution invariants e0, e1, e2")
    iv_sub = iv.add_subparsers(dest="inv_cmd", required=True)
    p = iv_sub.add_parser("invariants")
    p.add_argument("algebra_file")

    s4 = sub.add_parser("shapiro4", help="four-quaternion pipeline")
    s4_sub = s4.add_subparsers(dest="s4_cmd", required=True)
    p = s4_sub.add_parser("run")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write machine-readable reports here")
    p = s4_sub.add_parser("verify")
    p.add_argument("scenario")
    p.add_argument("--json")
    p = s4_sub.add_parser("verify-u")
    p.add_argument("ufile")
    p.add_argument("--json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "qf":
            return _cmd_qf(args)
        if args.cmd == "quat":
            return _cmd_quat(args)
        if args.cmd == "inv":
            return _cmd_inv(args)
        if args.cmd == "shapiro4":
            return _cmd_shapiro4(args)
        raise CliError(f"unknown command {args.cmd!r}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (
        csa.AlgebraError,
        csa.UncomputableInvariant,
        qform.CertificateError,
        qform.WitnessSearchLimit,
        FactorizationError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
