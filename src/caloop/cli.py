"""Command-line interface.

Subcommands::

    eval "<expr>"                  evaluate a loop word, print canonical form
    mul A B | inv A                coordinate arithmetic; A, B like [1,2,...,8]
    assoc A B C | inner A B C      associator / inner mapping L_{A,B}(C)
    member --kind KIND A           subloop membership (witness on failure)
    verify [--identity NAME]       run the symbolic identity catalog
    table --mod M --out PATH       export a Cayley table (csv or bin)
    check-quotient --mod M --level L [--trials N] [--seed S]
                                   brute-force checks on (Z/m)^8

Every subcommand takes ``--json``; only ``check-quotient`` takes
``--trials`` and ``--seed``, the size and seed of its sampled level.

Exit codes: 0 success / all checks pass, 1 verification or check failure,
2 usage, parse, input or file errors (an ``error:`` line on stderr).
``mul``, ``inv``, ``assoc`` and ``inner`` are one table of word nodes: each
builds its node over ``Literal`` leaves and evaluates it as ``eval`` does,
so every input and result is held to :data:`caloop.words.MAX_BITS` bits by
:func:`caloop.words.evaluate`; a longer one is an input error.  ``member``
reads its input through ``evaluate`` too, and bounds the witness associator
it prints, which no word computes, with :func:`caloop.words.check_bits`.
``--json`` prints machine-readable output with a stable schema; coordinates
outside the signed 64-bit range are emitted as decimal strings so nothing is
ever rounded.

Only ``verify`` imports the prover, :mod:`caloop.symbolic` with its
:mod:`caloop.poly`, and only ``table`` and ``check-quotient`` import
:mod:`caloop.quotient`, and with it numpy; the other commands load
neither.

:func:`main` builds its parser once per process, on its first call, and
parses every later argv with the same one; :func:`build_parser` returns a
fresh parser on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .calculus import NucleusKind, is_member, witness_noncentral
from .core import Elem8
from .quotient_options import DEFAULT_SEED, DEFAULT_TRIALS, LEVELS
from .words import (
    MAX_BITS,
    Assoc,
    InnerL,
    Inverse,
    Literal,
    Product,
    check_bits,
    evaluate,
    format_canonical,
    parse_with_warnings,
)

__all__ = ["main", "build_parser"]

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


def _json_int(v: int):
    return v if _I64_MIN <= v <= _I64_MAX else str(v)


def _coords_doc(e: Elem8) -> dict:
    return {"coords": [_json_int(c) for c in e]}


def _parse_coords(text: str) -> tuple:
    """The 8 coordinates written ``[i1,...,i8]``; ``evaluate`` bounds them."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    coords = []
    for part in body.split(","):
        part = part.strip()
        sign = part[:1] if part[:1] in ("+", "-") else ""
        digits = part[len(sign):]
        # the word parser's rule: ASCII 0-9 only, so no '²', '١' or '1_0'
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad coordinate list {text!r}; expected [i1,...,i8]")
        # without leading zeros, a value past int()'s default limit of 4 300
        # digits is also past the bit bound (14 000 bits are 4 215 digits)
        digits = digits.lstrip("0") or "0"
        try:
            coords.append(int(sign + digits))
        except ValueError:
            raise ValueError(
                f"value too large: a coordinate of {len(digits)} digits "
                f"passes the {MAX_BITS}-bit bound"
            ) from None
    if len(coords) != 8:
        raise ValueError(f"expected 8 coordinates, got {len(coords)} in {text!r}")
    return tuple(coords)


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _emit_element(e: Elem8, as_json: bool) -> None:
    if as_json:
        print(_dump({"canonical": format_canonical(e), **_coords_doc(e)}))
    else:
        print(format_canonical(e))
        print(f"coords: [{', '.join(str(c) for c in e)}]")


def _cmd_eval(args) -> int:
    expr, warnings = parse_with_warnings(args.expr)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _emit_element(evaluate(expr), args.json)
    return 0


# command -> (help, argument names, the word node built over their values)
_ELEMENT_COMMANDS = {
    "mul": ("multiply two elements", "ab", Product),
    "inv": ("invert an element", "a", Inverse),
    "assoc": ("associator (a, b, c)", "abc", Assoc),
    "inner": ("inner mapping image L_{a,b}(c)", "abc", InnerL),
}


def _cmd_element(args) -> int:
    _, names, node = _ELEMENT_COMMANDS[args.command]
    leaves = [Literal(_parse_coords(getattr(args, name))) for name in names]
    _emit_element(evaluate(node(*leaves)), args.json)
    return 0


def _cmd_member(args) -> int:
    z = evaluate(Literal(_parse_coords(args.a)))
    kind = NucleusKind(args.kind)
    member = is_member(z, kind)
    witness = None if member else witness_noncentral(kind, z)
    if witness is not None:
        check_bits(witness.value)
    if args.json:
        doc = {"kind": kind.value, "member": member, "witness": None}
        if witness is not None:
            doc["witness"] = {
                "slot": witness.slot,
                "a": _coords_doc(witness.a)["coords"],
                "b": _coords_doc(witness.b)["coords"],
                "associator": _coords_doc(witness.value)["coords"],
            }
        print(_dump(doc))
    else:
        print("true" if member else "false")
        if witness is not None:
            print(
                f"witness: with z in the {witness.slot} slot and "
                f"a={list(witness.a)}, b={list(witness.b)} the associator is "
                f"{format_canonical(witness.value)} != 1"
            )
    return 0


def _cmd_verify(args) -> int:
    from .symbolic import verify_all, verify_identity

    if args.identity is not None:
        reports = [verify_identity(args.identity)]
    else:
        reports = verify_all()
    if args.json:
        print(_dump([r.to_doc() for r in reports]))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"{status} {r.name} (vars={r.variables}, max_degree={r.max_degree}, "
                f"terms={sum(r.residual_term_counts)}, {r.millis} ms)"
            )
        failed = [r.name for r in reports if not r.passed]
        if failed:
            print(f"{len(failed)} identity(ies) FAILED: {', '.join(failed)}")
        else:
            print(f"all {len(reports)} identities pass")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_table(args) -> int:
    from .quotient import QuotientLoop

    loop = QuotientLoop(args.mod)
    loop.export_table(args.out, args.format)
    doc = {
        "path": args.out,
        "modulus": loop.modulus,
        "order": loop.order,
        "format": args.format,
    }
    if args.json:
        print(_dump(doc))
    else:
        print(f"wrote {args.format} table for m={loop.modulus} (order {loop.order}) to {args.out}")
    return 0


def _cmd_check_quotient(args) -> int:
    from .quotient import QuotientLoop

    loop = QuotientLoop(args.mod)
    report = loop.exhaustive_check(args.level, trials=args.trials, seed=args.seed)
    if args.json:
        print(_dump(report.to_doc()))
    else:
        for name, ok in report.checks.items():
            print(f"{'PASS' if ok else 'FAIL'} {name}")
        for name, n in report.counts.items():
            print(f"{name}: {n}")
        print(f"level {report.level} on (Z/{report.modulus})^8: "
              f"{'pass' if report.passed else 'FAIL'} ({report.millis} ms)")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="caloop",
        description="Exact computations in the free 2-generated commutative "
        "automorphic loop of nilpotency class 3.",
    )
    parser.add_argument("--version", action="version", version=f"caloop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate a loop word")
    p.add_argument("expr", help='expression, e.g. "assoc(x,x,y)" or "(x*y)*x"')
    p.set_defaults(func=_cmd_eval)

    for command, (help_text, names, _) in _ELEMENT_COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for name in names:
            p.add_argument(name)
        p.set_defaults(func=_cmd_element)

    p = sub.add_parser("member", parents=[common], help="structural subloop membership")
    p.add_argument("--kind", required=True, choices=[k.value for k in NucleusKind])
    p.add_argument("a")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("verify", parents=[common], help="run the symbolic identity catalog")
    p.add_argument("--identity", metavar="NAME",
                   help="verify a single identity (default: whole catalog)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", parents=[common], help="export a quotient Cayley table")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "bin"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("check-quotient", parents=[common], help="brute-force quotient checks")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--level", choices=LEVELS, default="axioms")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                   help="quadruples the automorphic-sampled level draws")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the automorphic-sampled level's random.Random")
    p.set_defaults(func=_cmd_check_quotient)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call; parsing keeps no
    state in it, so every argv is parsed as by a fresh one."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError and BudgetExceeded too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
