"""Command line surface: construct, verify, classify, analyze, fuzz, table.

Exactly one JSON document goes to standard output; diagnostics go to
standard error.  Exit codes: 0 all checks passed / command succeeded,
1 a verification check failed (witness in the output), 2 invalid input,
command line usage errors included; a reader that closes standard output
early gets exit 1 and no traceback.  The one exception is ``--help``,
which prints the usage text and exits 0.
The default field is "Q" and can be overridden per invocation with
``--field`` or globally with the HECKE3_FIELD environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import Hecke3Error, InputError
from .fields import clip, parse_field
from .verifier import fuzz, run_suite
from .classify import Q_FAMILIES, TYPE_LABELS, canonical, classify
from .cybe import carrier, check_cybe, check_symmetrized, classical_r, fingerprint, is_frobenius
from .heckecore import build_R, deform
from .jsonio import hecke_data_to_json, load_symmetry, symmetry_to_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2

# a valid record is about 100 KB at most; anything past this is not read
MAX_INPUT_BYTES = 1 << 20


def _read_json(path: str):
    try:
        if path == "-":
            raw = sys.stdin.buffer.read(MAX_INPUT_BYTES + 1)
        else:
            with open(path, "rb") as fh:
                raw = fh.read(MAX_INPUT_BYTES + 1)
        if len(raw) > MAX_INPUT_BYTES:
            raise ValueError(f"more than {MAX_INPUT_BYTES} bytes")
        return json.loads(raw.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers oversized input, malformed JSON and undecodable
        # bytes; RecursionError comes from documents nested too deeply for the
        # decoder.  An OSError's own text would quote the path a second time
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot read JSON from {clip(repr(path))}: {reason}") from exc


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _checked(doc, reports) -> int:
    """Emit the document; exit 1 when any of the reports failed."""
    _emit(doc)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _symmetry_from_args(args, field):
    source = getattr(args, "data", None) or getattr(args, "matrix", None)
    if source is None:
        raise InputError("an input document is required (--data or --matrix)")
    return load_symmetry(_read_json(source), field)


def _carrier_doc(r) -> dict:
    """The carrier of r with its fingerprint and Frobenius status."""
    sub = carrier(r)
    return {
        **sub.to_json(),
        "fingerprint": list(fingerprint(sub)),
        "frobenius": is_frobenius(sub).to_json(sub.field),
    }


def cmd_construct(args, field) -> int:
    if args.data:
        sym = _symmetry_from_args(args, field)
    else:
        if args.type is None:
            raise InputError("construct needs --type N or --data FILE")
        label = f"Type{args.type}"
        if label not in TYPE_LABELS:
            raise InputError(f"unknown type {clip(str(args.type))}")
        q = field.parse(args.q) if args.q is not None else None
        sym = build_R(canonical(label, q, field))
    _emit(symmetry_to_json(sym))
    return EXIT_OK


def cmd_verify(args, field) -> int:
    reports = run_suite(_symmetry_from_args(args, field))
    return _checked([r.to_json() for r in reports], reports)


def cmd_classify(args, field) -> int:
    sym = _symmetry_from_args(args, field)
    reports = run_suite(sym)
    if not all(r.passed for r in reports):
        return _checked({
            "error": {"type": "NotHeckeSym0",
                      "message": "verification failed before classification"},
            "checks": [r.to_json() for r in reports],
        }, reports)
    _emit(classify(sym).to_json())
    return EXIT_OK


def cmd_rmatrix(args, field) -> int:
    sym = _symmetry_from_args(args, field)
    r = classical_r(sym)
    reports = [check_cybe(r), check_symmetrized(r, sym.q)]
    return _checked({"r": r.to_json(), "checks": [rep.to_json() for rep in reports]}, reports)


def cmd_carrier(args, field) -> int:
    _emit(_carrier_doc(classical_r(_symmetry_from_args(args, field))))
    return EXIT_OK


def cmd_deform(args, field) -> int:
    sym = _symmetry_from_args(args, field)
    moved = deform(sym, sym.field.parse(args.lam))
    reports = run_suite(moved)
    return _checked({
        "symmetry": symmetry_to_json(moved),
        "checks": [r.to_json() for r in reports],
    }, reports)


def cmd_fuzz(args, field) -> int:
    report = fuzz(field, args.trials, args.seed, args.strategy,
                  adversarial=args.adversarial)
    return _checked(report.to_json(), [report])


def cmd_table(args, field) -> int:
    q = field.parse(args.q)
    entries = []
    for label in TYPE_LABELS:
        use_q = q if label in Q_FAMILIES else None
        data = canonical(label, use_q, field)
        sym = build_R(data)
        r = classical_r(sym)
        entries.append({
            "type": label,
            "q": field.fmt(sym.q),
            "data": hecke_data_to_json(data),
            "R": symmetry_to_json(sym)["R"],
            "r": r.to_json(),
            "carrier": _carrier_doc(r),
        })
    _emit({"field": field.name, "types": entries})
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are invalid input, not exits."""

    def error(self, message):
        raise InputError(clip(message))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--field",
        default=argparse.SUPPRESS,
        help="field spec 'Q' or 'Fp:<p>' (default: HECKE3_FIELD or 'Q')",
    )
    parser = _Parser(
        prog="hecke3",
        parents=[common],
        description="Exact Hecke symmetries on a 3-dimensional space: "
                    "construction, verification, classification, classical r-matrices.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", parents=[common],
                       help="build a symmetry (canonical type or quadruple)")
    p.add_argument("--type", type=int, help="canonical type number 1..8")
    p.add_argument("--q", help="Hecke parameter for types 1 and 2")
    p.add_argument("--data", help="quadruple JSON file ('-' for stdin)")
    p.set_defaults(func=cmd_construct)

    for verb, func, help_text in (
        ("verify", cmd_verify, "run every exact check on a symmetry"),
        ("classify", cmd_classify, "determine the type of a symmetry"),
        ("rmatrix", cmd_rmatrix, "classical r-matrix with CYBE and symmetrization checks"),
        ("carrier", cmd_carrier, "carrier subalgebra, Frobenius status, fingerprint"),
        ("deform", cmd_deform, "deform along the flip line and re-verify"),
    ):
        p = sub.add_parser(verb, parents=[common], help=help_text)
        p.add_argument("--matrix", help="symmetry record or bare 9x9 matrix JSON file")
        p.add_argument("--data", help="quadruple JSON file")
        if verb == "deform":
            p.add_argument("--lambda", dest="lam", required=True,
                           help="deformation parameter (use --lambda=-1/2 for negatives)")
        p.set_defaults(func=func)

    p = sub.add_parser("fuzz", parents=[common], help="deterministic sampling harness")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--strategy", choices=["A", "B"], default="A")
    p.add_argument("--adversarial", action="store_true",
                   help="break the q constraint on purpose; trials must fail")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("table", parents=[common],
                       help="all eight canonical types with R, r and carriers")
    p.add_argument("--q", default="2", help="parameter for the two q-families (default 2)")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            spec = getattr(args, "field", None) or os.environ.get("HECKE3_FIELD") or "Q"
            code = args.func(args, parse_field(spec))
        except Hecke3Error as exc:
            print(f"error: {exc}", file=sys.stderr)
            _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
            code = EXIT_BAD_INPUT
        sys.stdout.flush()  # a reader that left early shows up here, not at exit
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush stays quiet;
        # the document was not delivered, so this is not a success
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CHECK_FAILED
    return code


if __name__ == "__main__":
    sys.exit(main())
