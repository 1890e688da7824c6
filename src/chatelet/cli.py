"""Command line front end: local and global class group reports, Hilbert
symbol evaluation, and the seeded self-check suites, as text or JSON.

Exit codes: 0 success, 2 invalid input, 3 factorization failure, 4 internal
contradiction or failed self-check.  A reader that closes stdout early drops
the output quietly and leaves the command's own code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .checks import CheckReport, run_check
from .factorint import FactorizationError, _echo
from .globalchow import GlobalReport, global_chow
from .local import ContradictionError, LocalReport, local_chow
from .padic import REAL_PLACE, Place, hilbert_symbol, require_prime_place

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_FACTORIZATION = 3
EXIT_CONTRADICTION = 4

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/[+-]?\d+)?")


def parse_rational(text: str) -> Fraction:
    """Exact rational from an integer or integer/integer string."""
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise argparse.ArgumentTypeError(
            f"malformed rational {_echo(text)}: use forms like 7, -3, or -3/20"
        )
    num, _, den = s.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # the digits checked out, so only the length is wrong
        raise argparse.ArgumentTypeError(
            f"integer past Python's {sys.get_int_max_str_digits()}-digit limit "
            f"for int strings in {_echo(text)}"
        ) from None
    if den == 0:
        raise argparse.ArgumentTypeError(f"zero denominator in {_echo(text)}")
    return Fraction(num, den)


def parse_roots(text: str) -> Tuple[Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated roots, got {_echo(text)}"
        )
    return tuple(parse_rational(part) for part in parts)


def parse_place(text: str) -> Place:
    s = text.strip().lower()
    if s == REAL_PLACE:
        return REAL_PLACE
    try:
        place = int(s)
    except ValueError:  # not an int: refused as a composite is
        place = text
    try:
        return require_prime_place(place)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# argparse takes a token such as -1,0,1 or -3/4 for an unknown option, so a
# signed value written after a space is joined to its flag as --flag=value.
_RATIONAL_FLAGS = frozenset({"--d", "--roots", "--a", "--b"})
_SIGNED_VALUE_RE = re.compile(r"-\d")


def _join_signed_values(argv: Sequence[str]) -> List[str]:
    out: List[str] = []
    for token in argv:
        if out and out[-1] in _RATIONAL_FLAGS and _SIGNED_VALUE_RE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_int(text: str) -> int:
    """An int from its decimal string, as --seed takes it."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at most {sys.get_int_max_str_digits()} "
            f"digits, got {_echo(text)}"
        ) from None


def _positive_int(text: str) -> int:
    """_parse_int for a count, which must be positive."""
    value = _parse_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {_echo(value)}")
    return value


# ---------------------------------------------------------------------------
# JSON shapes (insertion order is the output order)


def _local_json(report: LocalReport) -> Dict:
    ext = report.ext_class
    out: Dict = {
        "place": report.place,
        "extension": {
            "kind": ext.kind.value,
            "conductor_n": ext.conductor_n,
        },
        "case": report.case_label,
        "order": report.predicted_order,
        "group": f"(Z/2)^{report.subgroup.dim}",
        "generators": [list(g) for g in report.subgroup.basis],
    }
    if report.normalized is not None:
        out["normalized"] = {
            "base_root_index": report.normalized.base_root_index,
            "perm": list(report.normalized.perm),
            "e1": str(report.normalized.e1),
            "e2": str(report.normalized.e2),
            "r": report.normalized.r,
        }
    return out


def _global_json(report: GlobalReport) -> Dict:
    return {
        "d": str(report.d),
        "roots": [str(c) for c in report.roots],
        "kernel_dim": report.kernel_dim,
        "group": report.group,
        "places": [_local_json(rep) for rep in report.local_reports],
        "checked_places": list(report.checked_places),
        "sampled_primes": list(report.sampled_primes),
    }


def _check_json(report: CheckReport) -> List[Dict]:
    return [
        {
            "name": suite.name,
            "runs": suite.runs,
            "failed": suite.failed,
            "ok": suite.ok,
            "failures": list(suite.failures),
            "details": {key: count for key, count in suite.details},
        }
        for suite in report.suites
    ]


# ---------------------------------------------------------------------------
# text rendering


def _basis_text(subgroup) -> str:
    if not subgroup.basis:
        return "none (trivial group)"
    return ", ".join("(" + ",".join(map(str, g)) + ")" for g in subgroup.basis)


def _local_text(report: LocalReport) -> List[str]:
    ext = report.ext_class
    kind = ext.kind.value
    if ext.conductor_n:
        kind += f" (conductor n={ext.conductor_n})"
    lines = [
        f"place: {report.place}",
        f"extension: {kind}",
        f"case: {report.case_label}",
        f"group: (Z/2)^{report.subgroup.dim} (order {report.predicted_order})",
        f"generators: {_basis_text(report.subgroup)}",
    ]
    if report.normalized is not None:
        n = report.normalized
        lines.append(
            f"normalized: base root #{n.base_root_index}, perm {n.perm}, "
            f"e1={n.e1}, e2={n.e2}, r={n.r}"
        )
    return lines


def _global_text(report: GlobalReport) -> List[str]:
    roots = ", ".join(str(c) for c in report.roots)
    lines = [
        f"d = {report.d}, roots = ({roots})",
        f"kernel dimension: {report.kernel_dim}",
        f"group: {report.group}",
    ]
    if report.local_reports:
        lines.append("nontrivial local groups:")
        for rep in report.local_reports:
            lines.append(
                f"  {rep.place}: {rep.case_label}, order {rep.predicted_order}, "
                f"generators {_basis_text(rep.subgroup)}"
            )
    else:
        lines.append("nontrivial local groups: none")
    checked = ", ".join(str(v) for v in report.checked_places)
    lines.append(f"checked places: {checked or 'none'}")
    sampled = ", ".join(str(q) for q in report.sampled_primes)
    lines.append(f"sampled non-candidate primes (all trivial): {sampled or 'none'}")
    return lines


def _check_text(report: CheckReport) -> List[str]:
    lines = [f"seed {report.seed}, fuzz count {report.fuzz_count}"]
    for suite in report.suites:
        verdict = "ok" if suite.ok else "FAILED"
        lines.append(f"{suite.name}: {suite.runs} runs, {suite.failed} failed [{verdict}]")
        for message in suite.failures:
            lines.append(f"    {message}")
    lines.append(f"overall: {'ok' if report.ok else 'FAILED'}")
    return lines


# ---------------------------------------------------------------------------
# command dispatch


def _run_local(args) -> Tuple[Dict, List[str], bool]:
    report = local_chow(args.d, *args.roots, args.p)
    payload = {
        "command": "local",
        "inputs": {
            "d": str(args.d),
            "roots": [str(c) for c in args.roots],
            "place": args.p,
        },
        "result": _local_json(report),
    }
    return payload, _local_text(report), True


def _run_global(args) -> Tuple[Dict, List[str], bool]:
    report = global_chow(args.d, *args.roots)
    payload = {
        "command": "global",
        "inputs": {
            "d": str(args.d),
            "roots": [str(c) for c in args.roots],
        },
        "result": _global_json(report),
    }
    return payload, _global_text(report), True


def _run_symbol(args) -> Tuple[Dict, List[str], bool]:
    value = hilbert_symbol(args.a, args.b, args.p)
    payload = {
        "command": "symbol",
        "inputs": {
            "a": str(args.a),
            "b": str(args.b),
            "place": args.p,
        },
        "result": value,
    }
    return payload, [str(value)], True


def _run_check(args) -> Tuple[Dict, List[str], bool]:
    report = run_check(seed=args.seed, fuzz_count=args.fuzz_count)
    payload = {
        "command": "check",
        "inputs": {"seed": report.seed, "fuzz_count": report.fuzz_count},
        "result": {"ok": report.ok},
        "checks": _check_json(report),
    }
    return payload, _check_text(report), report.ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chatelet",
        description=(
            "Chow groups of degree-zero 0-cycles on y^2 - d z^2 = "
            "(x-c1)(x-c2)(x-c3), locally and over Q"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    surface = argparse.ArgumentParser(add_help=False, parents=[common])
    surface.add_argument("--d", type=parse_rational, required=True, help="nonzero rational d")
    surface.add_argument(
        "--roots", type=parse_roots, required=True, help="three roots, e.g. 0,1,-3/20"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    local = sub.add_parser("local", parents=[surface], help="class group at one place")
    local.add_argument(
        "--p", type=parse_place, required=True, help="a prime number or 'real'"
    )
    local.set_defaults(run=_run_local)

    sub.add_parser("global", parents=[surface], help="class group over Q").set_defaults(
        run=_run_global
    )

    symbol = sub.add_parser(
        "symbol", parents=[common], help="Hilbert symbol (a, b) at a place, as 0 or 1"
    )
    symbol.add_argument("--a", type=parse_rational, required=True)
    symbol.add_argument("--b", type=parse_rational, required=True)
    symbol.add_argument(
        "--p", type=parse_place, required=True, help="a prime number or 'real'"
    )
    symbol.set_defaults(run=_run_symbol)

    check = sub.add_parser(
        "check", parents=[common], help="run the seeded self-check suites"
    )
    check.add_argument("--seed", type=_parse_int, default=0, help="fuzz seed")
    check.add_argument(
        "--fuzz-count",
        type=_positive_int,
        default=50,
        help="iterations per suite (per case family for order agreement)",
    )
    check.set_defaults(run=_run_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        payload, text_lines, ok = args.run(args)
    except FactorizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FACTORIZATION
    except ContradictionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            print("\n".join(text_lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`| head -1`); point stdout at the null device
        # so that the interpreter's last flush has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if ok else EXIT_CONTRADICTION


if __name__ == "__main__":
    raise SystemExit(main())
