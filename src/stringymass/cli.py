"""Command-line front end.

Subcommands: ``mass tame``, ``mass wild``, ``stringy``, ``uniform``,
``crepant``, ``serre`` and ``sweep``.  Output is human-readable by default and
machine JSON with ``--json``; every number is rendered exactly (rationals as
"a/b", motivic values as exponent/coefficient triples), never as a float.
Diagnostics go to standard error.

Exit codes: 0 on success, 1 when a verification command's asserted identity
fails, 2 on invalid input (with a message naming the offending argument).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .cyclic import (
    CrepantReport,
    TameCyclicRep,
    WildCyclicRep,
    block_decompositions,
    crepant_conditions,
    uniformity_check,
)
from .errors import StringyMassError
from .localfields import FiniteField, enumerate_tame_classes, serre_mass
from .motivic import ExtendedMotivic, MotivicRational, poincare_realize
from .stringy import SncStrataData, stringy_result
from .util import is_prime


class _InputError(Exception):
    """Invalid command input; the message names the offending argument."""


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------

def _exact(value) -> str:
    if value is None:
        return "pole"
    if isinstance(value, float) and math.isinf(value):
        return "infinity"
    return str(Fraction(value))


def _mass_payload(mass: ExtendedMotivic) -> tuple[object, str]:
    if mass.is_infinite:
        return "infinity", "infinity"
    return mass.value.to_json(), mass.value.render()


def _crepant_payload(report: CrepantReport) -> dict:
    return {
        "d_v": report.d_v,
        "d_v_equals_p": report.d_v_equals_p,
        "euler": _exact(report.euler_char),
        "euler_is_integer": report.euler_is_integer,
        "pst_is_integral_polynomial": report.pst_is_integral_polynomial,
        "verdict": report.verdict,
        "reason": report.reason,
    }


def _parse_csv_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _InputError(f"{flag} must be a comma-separated list of integers, got {text!r}")


def _wild_rep(p: int, blocks_text: str) -> WildCyclicRep:
    blocks = _parse_csv_ints(blocks_text, "--blocks")
    try:
        return WildCyclicRep(p, blocks)
    except ValueError as exc:
        raise _InputError(f"--p/--blocks: {exc}")


def _tame_rep(m: int, weights_text: str) -> TameCyclicRep:
    weights = _parse_csv_ints(weights_text, "--weights")
    try:
        return TameCyclicRep(m, weights)
    except ValueError as exc:
        raise _InputError(f"--m/--weights: {exc}")


# ---------------------------------------------------------------------------
# Command handlers, each returning a full report dict
# ---------------------------------------------------------------------------

def _run_mass_tame(args) -> dict:
    rep = _tame_rep(args.m, args.weights)
    mass = rep.mass()
    diagnostics = []
    if rep.has_reflection:
        diagnostics.append("reflection detected: mass-equals-stringy-motif identity not applicable")
    rational = MotivicRational(mass)
    realized = poincare_realize(rational)
    result = {
        "mass": rational.to_json(),
        "mass_pretty": rational.render(),
        "euler": _exact(Fraction(rep.m)),
        "poincare": realized.to_json(),
        "poincare_pretty": realized.render(),
        "crepant_report": None,
    }
    command = {"name": "mass", "kind": "tame", "m": rep.m, "weights": list(rep.weights)}
    return _report(command, result, diagnostics, 0)


def _run_mass_wild(args) -> dict:
    rep = _wild_rep(args.p, args.blocks)
    if rep.is_trivial or rep.has_reflection:
        raise _InputError(f"--blocks {args.blocks}: trivial/reflection representation")
    mass = rep.mass()
    diagnostics = []
    mass_json, mass_pretty = _mass_payload(mass)
    if mass.is_infinite:
        diagnostics.append(f"divergent mass: D_V = {rep.d_invariant} < p = {rep.p}")
        euler = "infinity"
        poincare_json = None
        poincare_pretty = None
    else:
        euler = _exact(rep.euler_mass())
        realized = poincare_realize(mass.value)
        poincare_json = realized.to_json()
        poincare_pretty = realized.render()
    result = {
        "mass": mass_json,
        "mass_pretty": mass_pretty,
        "euler": euler,
        "poincare": poincare_json,
        "poincare_pretty": poincare_pretty,
        "crepant_report": _crepant_payload(crepant_conditions(rep)),
    }
    command = {"name": "mass", "kind": "wild", "p": rep.p, "blocks": list(rep.blocks)}
    return _report(command, result, diagnostics, 0)


def _run_stringy(args) -> dict:
    try:
        data = SncStrataData.from_json(args.input)
    except FileNotFoundError:
        raise _InputError(f"--input: no such file {args.input!r}")
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise _InputError(f"--input: malformed strata file: {exc}")
    except StringyMassError as exc:
        raise _InputError(f"--input: {exc}")
    duality_dim = None
    if args.check_duality is not None:
        duality_dim = data.dimension if args.check_duality is True else args.check_duality
    outcome = stringy_result(data, duality_dim=duality_dim)
    result = {
        "motif": outcome.motif.to_json(),
        "motif_pretty": outcome.motif.render(),
        "poincare": outcome.poincare.to_json(),
        "poincare_pretty": outcome.poincare.render(),
        "crepant": outcome.crepant,
    }
    if duality_dim is not None:
        result["duality"] = {"dimension": duality_dim, "holds": outcome.duality_holds}
    diagnostics = []
    if args.with_chi:
        result["chi_from_pst"] = "pole" if outcome.chi_pole else _exact(outcome.chi_from_pst)
        result["chi_direct"] = outcome.chi_direct
        if outcome.chi_direct is None:
            diagnostics.append("pi0 counts absent: direct dual-complex Euler characteristic unavailable")
    exit_code = 0
    if duality_dim is not None and not outcome.duality_holds:
        exit_code = 1
    command = {"name": "stringy", "input": args.input, "check_duality": duality_dim,
               "with_chi": bool(args.with_chi)}
    return _report(command, result, diagnostics, exit_code)


def _run_uniform(args) -> dict:
    rep = _wild_rep(args.p, args.blocks)
    try:
        outcome = uniformity_check(rep)
    except StringyMassError as exc:
        raise _InputError(f"--blocks {args.blocks}: {exc}")
    result = {
        "uniform": outcome.uniform,
        "d_v": rep.d_invariant,
        "reason": outcome.reason,
    }
    command = {"name": "uniform", "p": rep.p, "blocks": list(rep.blocks)}
    return _report(command, result, [], 0 if outcome.uniform else 1)


def _run_crepant(args) -> dict:
    rep = _wild_rep(args.p, args.blocks)
    try:
        report = crepant_conditions(rep)
    except StringyMassError as exc:
        raise _InputError(f"--blocks {args.blocks}: {exc}")
    command = {"name": "crepant", "p": rep.p, "blocks": list(rep.blocks)}
    return _report(command, _crepant_payload(report), [], 0)


def _run_serre(args) -> dict:
    try:
        field = FiniteField.of_order(args.q)
    except ValueError as exc:
        raise _InputError(f"--q: {exc}")
    try:
        classes = enumerate_tame_classes(field, args.n)
        mass, expected = serre_mass(field, args.n)
    except StringyMassError as exc:
        raise _InputError(f"--n: {exc}")
    except ValueError as exc:
        raise _InputError(f"--n: {exc}")
    ok = mass == expected
    result = {
        "classes": len(classes),
        "aut_orders": [cls.aut_order for cls in classes],
        "units": [list(cls.unit) for cls in classes],
        "disc_exponent": args.n - 1,
        "mass": _exact(mass),
        "expected": _exact(expected),
        "ok": ok,
    }
    command = {"name": "serre", "q": args.q, "n": args.n}
    return _report(command, result, [], 0 if ok else 1)


def _run_sweep(args) -> dict:
    if not is_prime(args.p):
        raise _InputError(f"--p: {args.p} is not prime")
    if args.max_dim < 0 or args.max_dim > 40:
        raise _InputError("--max-dim: must lie in [0, 40]")
    rows = []
    for blocks in block_decompositions(args.p, args.max_dim):
        if max(blocks) < 2:
            continue
        rep = WildCyclicRep(args.p, blocks)
        row = {
            "blocks": list(blocks),
            "dim": rep.d,
            "d_v": rep.d_invariant,
            "reflection": rep.has_reflection,
        }
        if rep.has_reflection:
            row.update({"mass": None, "euler": None, "uniform": None, "verdict": None})
        else:
            mass = rep.mass()
            mass_json, mass_pretty = _mass_payload(mass)
            row["mass"] = mass_json
            row["mass_pretty"] = mass_pretty
            row["euler"] = _exact(rep.euler_mass())
            row["uniform"] = bool(uniformity_check(rep)) if rep.d_invariant == rep.p else None
            row["verdict"] = crepant_conditions(rep).verdict
        rows.append(row)
    command = {"name": "sweep", "p": args.p, "max_dim": args.max_dim}
    return _report(command, {"rows": rows}, [], 0)


def _report(command: dict, result: dict, diagnostics: list[str], exit_code: int) -> dict:
    return {
        "command": command,
        "result": result,
        "diagnostics": diagnostics,
        "exit_code": exit_code,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _emit_human(report: dict, out) -> None:
    result = report["result"]
    if report["command"]["name"] == "sweep":
        for row in result["rows"]:
            blocks = ",".join(str(b) for b in row["blocks"])
            if row["reflection"]:
                print(f"({blocks})  dim={row['dim']}  D_V={row['d_v']}  reflection", file=out)
            else:
                uniform = "-" if row["uniform"] is None else str(row["uniform"]).lower()
                print(
                    f"({blocks})  dim={row['dim']}  D_V={row['d_v']}  "
                    f"mass={row['mass_pretty']}  euler={row['euler']}  "
                    f"uniform={uniform}  verdict={row['verdict']}",
                    file=out,
                )
        return
    for key, value in result.items():
        if key.endswith("_pretty") or value is None:
            continue
        pretty = result.get(f"{key}_pretty")
        if pretty is not None:
            print(f"{key}: {pretty}", file=out)
        elif isinstance(value, dict):
            inner = ", ".join(f"{k}={v}" for k, v in value.items())
            print(f"{key}: {inner}", file=out)
        elif isinstance(value, bool):
            print(f"{key}: {str(value).lower()}", file=out)
        elif isinstance(value, list):
            print(f"{key}: {json.dumps(value)}", file=out)
        else:
            print(f"{key}: {value}", file=out)


def emit(report: dict, json_mode: bool, out=None, err=None) -> None:
    out = out or sys.stdout
    err = err or sys.stderr
    for line in report["diagnostics"]:
        print(line, file=err)
    if json_mode:
        print(json.dumps(report, indent=2), file=out)
    else:
        _emit_human(report, out)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringymass",
        description="Exact motivic masses, stringy invariants, and local-field mass formulas.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")

    sub = parser.add_subparsers(dest="command", required=True)

    mass = sub.add_parser("mass", help="motivic mass of a cyclic representation")
    mass_sub = mass.add_subparsers(dest="kind", required=True)
    tame = mass_sub.add_parser("tame", parents=[common], help="diagonal action, order prime to char")
    tame.add_argument("--m", type=int, required=True, help="group order")
    tame.add_argument("--weights", required=True, help="comma-separated generator weights, e.g. 1,2")
    tame.set_defaults(handler=_run_mass_tame)
    wild = mass_sub.add_parser("wild", parents=[common], help="unipotent action, order equal to char")
    wild.add_argument("--p", type=int, required=True, help="prime order")
    wild.add_argument("--blocks", required=True, help="comma-separated Jordan block sizes, e.g. 2,2,2")
    wild.set_defaults(handler=_run_mass_wild)

    stringy = sub.add_parser("stringy", parents=[common], help="stringy motif from strata data")
    stringy.add_argument("--input", required=True, help="path to a JSON strata file")
    stringy.add_argument(
        "--check-duality", nargs="?", type=int, const=True, default=None, metavar="DIM",
        help="check duality in the given dimension (default: the input's dimension)",
    )
    stringy.add_argument("--with-chi", action="store_true",
                         help="include dual-complex Euler characteristics")
    stringy.set_defaults(handler=_run_stringy)

    uniform = sub.add_parser("uniform", parents=[common],
                             help="check mass uniformity under lifting")
    uniform.add_argument("--p", type=int, required=True)
    uniform.add_argument("--blocks", required=True)
    uniform.set_defaults(handler=_run_uniform)

    crepant = sub.add_parser("crepant", parents=[common],
                             help="necessary conditions for a crepant resolution")
    crepant.add_argument("--p", type=int, required=True)
    crepant.add_argument("--blocks", required=True)
    crepant.set_defaults(handler=_run_crepant)

    serre = sub.add_parser("serre", parents=[common],
                           help="verify the tame mass formula over F_q((t))")
    serre.add_argument("--q", type=int, required=True, help="residue field size")
    serre.add_argument("--n", type=int, required=True, help="extension degree, prime to char")
    serre.set_defaults(handler=_run_serre)

    sweep = sub.add_parser("sweep", parents=[common],
                           help="tabulate invariants over block decompositions")
    sweep.add_argument("--p", type=int, required=True)
    sweep.add_argument("--max-dim", type=int, required=True, dest="max_dim")
    sweep.set_defaults(handler=_run_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.handler(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(report, json_mode=args.json)
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
