"""Command-line interface.

Commands:
    enumerate    list (or count) all structures on {1..n}
    count        structure count by exhaustive generation
    biject       convert parking-like JSON <-> tree-like JSON: one document
                 in any layout, or several, each starting on a new line
    series       structure counts by generating-series evaluation
    verify       run the built-in verification suites
    define-dump  print the active species definitions

Global flags: --define NAME:=EXPR (repeatable), --format json|jsonl|text,
--budget N (largest label count enumerate and count will attempt, default 8).

Exit codes: 0 success, 1 invalid input / failed check / exceeded budget /
input nested too deeply or too large to hold, 2 syntax or unbound-name
errors in expressions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from . import bijection  # called through the module, which bench/tracing.py patches
from .dsl import parse_species
from .errors import (
    BudgetExceededError,
    ParseError,
    SpeciesError,
    UnboundNameError,
    cut,
    shown,
)
from .expr import SpeciesEnv, expr_to_text
from .generate import Generator
from .membership import validate_parking, validate_tree  # unused: bench/tracing.py patches them
from .series import egf_of_species
from .structures import ParkingLike, TreeLike, canonical_labels, from_jsonable, read_json, serialize
from .verify import SUITES, run_suite


def _add_shared_flags(parser) -> None:
    # Registered on the main parser and on every subcommand, so they are
    # accepted on either side of the command word.  SUPPRESS keeps a
    # subcommand's unset flag from clobbering one given before it.  The
    # defaults are set on the main parser only; argparse's parents= would
    # share these actions, and set_defaults would then reset the subcommands'
    # defaults too, wiping a --define given before the command word.
    parser.add_argument(
        "--define",
        action="append",
        default=argparse.SUPPRESS,
        metavar="NAME:=EXPR",
        help="bind a species name (repeatable; may be recursive)",
    )
    parser.add_argument(
        "--format", choices=["json", "jsonl", "text"], default=argparse.SUPPRESS
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=argparse.SUPPRESS,
        help="largest label count enumerate and count will attempt (default 8)",
    )


class _Formatter(argparse.HelpFormatter):
    """argparse's formatter at its own width (shutil.get_terminal_size's
    columns less 2), worked out without the shutil, bz2 and lzma imports that
    argparse makes for it as each parser is built, which here is at import."""

    def __init__(self, prog):
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
            except (AttributeError, ValueError, OSError):
                columns = 80
        super().__init__(prog, width=columns - 2)


def _build_env(defines) -> SpeciesEnv:
    env = SpeciesEnv.standard()
    pairs = []
    for item in defines:
        name, sep, body = item.partition(":=")
        if not sep:
            raise ParseError(f"--define needs NAME:=EXPR, got {shown(item)}", 0)
        pairs.append((name.strip(), body.strip()))
    names = [name for name, _ in pairs]
    for name, body in pairs:
        env.bind(name, parse_species(body, env, extra_names=names))
    return env


def _check_budget(n: int, budget: int) -> None:
    if n > budget:
        raise BudgetExceededError(
            f"n = {shown(n)} exceeds the generation budget {shown(budget)} (raise with --budget)"
        )


def cmd_enumerate(args, env) -> int:
    if args.count_only:
        return cmd_count(args, env)
    expr = parse_species(args.expr, env)
    _check_budget(args.n, args.budget)
    labels = canonical_labels(args.n)
    # The text fold writes each line from its parts' lines, building no structure:
    # canonical, or for json in json.dumps's default spacing, which sorts alike.
    # The generator and its memo go before the lines are sorted in place and written.
    lines = Generator(env).texts(expr, labels, spaced=args.format == "json")
    lines.sort()
    # Every stdout byte goes through print, which bench/test_bench.py patches
    # to alter the output; one print per block of whole lines.
    if args.format == "json":
        # The bytes of json.dumps(listing, sort_keys=True), a block at a time.
        sep = "["
        for block in _blocks(lines):
            print(sep + ", ".join(block), end="")
            sep = ", "
        print("]" if lines else "[]")
    else:
        for block in _blocks(lines):
            print("\n".join(block))
    return 0


_BLOCK_BYTES = 1 << 16  # listing text per print (the text is ASCII)


def _blocks(lines):
    """The lines in lists of whole lines, each of about _BLOCK_BYTES or one line."""
    block, size = [], 0
    for line in lines:
        block.append(line)
        size += len(line)
        if size >= _BLOCK_BYTES:
            yield block
            block, size = [], 0
    if block:
        yield block


def cmd_count(args, env) -> int:
    expr = parse_species(args.expr, env)
    _check_budget(args.n, args.budget)
    print(Generator(env).count(expr, args.n))
    return 0


def _read_documents(source: str) -> list:
    """The JSON values of the documents in the input file or stdin (read_json)."""
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source) as f:
                text = f.read()
        return read_json(text)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or bytes that are not text
        raise SpeciesError(f"cannot read JSON input: {cut(str(exc))}") from exc


def cmd_biject(args, env) -> int:
    base = parse_species(args.expr, env)
    for data in _read_documents(args.input):
        value = from_jsonable(data)
        if args.direction == "p2t":
            if not isinstance(value, ParkingLike):
                raise SpeciesError("p2t input must be a parking-like structure")
            converted = bijection.park_to_tree(value, base, env)
        else:
            if not isinstance(value, TreeLike):
                raise SpeciesError("t2p input must be a tree-like structure")
            converted = bijection.tree_to_park(value, base, env)
        print(serialize(converted))
    return 0


def cmd_series(args, env) -> int:
    expr = parse_species(args.expr, env)
    series = egf_of_species(expr, env, args.order)
    # Exact digits past the interpreter's int-to-str limit, which builds
    # before 3.10.7 do not have.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        counts = [str(a) for a in series.counts]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(json.dumps({"expr": args.expr, "order": series.order, "counts": counts}))
    return 0


def cmd_verify(args, env) -> int:
    report = run_suite(args.suite, max_n=args.max_n, golden_dir=args.golden_dir, env=env)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["ok"] else 1


def cmd_define_dump(args, env) -> int:
    entries = {name: expr_to_text(env.lookup(name)) for name in env.names()}
    if args.format == "json":
        print(json.dumps(entries, sort_keys=True))
    elif args.format == "jsonl":
        for name in sorted(entries):
            print(json.dumps({"expr": entries[name], "name": name}, sort_keys=True))
    else:
        for name in sorted(entries):
            print(f"{name} := {entries[name]}")
    return 0


# name: (handler, help line, own flags as (flag, add_argument keywords))
_COMMANDS = {
    "enumerate": (cmd_enumerate, "list all structures on {1..n}", (
        ("--expr", {"required": True}),
        ("--n", {"type": int, "required": True}),
        ("--count-only", {"action": "store_true"}),
    )),
    "count": (cmd_count, "count structures on {1..n}", (
        ("--expr", {"required": True}),
        ("--n", {"type": int, "required": True}),
    )),
    "biject": (cmd_biject, "apply the parking/tree bijection", (
        ("--expr", {"required": True, "help": "base species expression"}),
        ("--direction", {"required": True, "choices": ["p2t", "t2p"]}),
        ("--input", {"default": "-", "help": "file with JSON input, - for stdin"}),
    )),
    "series": (cmd_series, "exact counts via generating series", (
        ("--expr", {"required": True}),
        ("--order", {"type": int, "required": True}),
    )),
    "verify": (cmd_verify, "run the verification suites", (
        ("--suite", {"default": "all", "choices": list(SUITES)}),
        ("--max-n", {"type": int}),
        ("--golden-dir", {}),
    )),
    "define-dump": (cmd_define_dump, "print the active species definitions", ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parklike",
        description="Exact enumeration of parking-like and tree-like structures.",
        formatter_class=_Formatter,
    )
    _add_shared_flags(parser)
    parser.set_defaults(define=[], format="text", budget=8)
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, formatter_class=_Formatter),
    )
    for name, (handler, help_line, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_line)
        for flag, keywords in flags:
            cmd.add_argument(flag, **keywords)
        _add_shared_flags(cmd)
        cmd.set_defaults(handler=handler)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        env = _build_env(args.define)
        return args.handler(args, env)
    except (ParseError, UnboundNameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpeciesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:
        # Expressions, definitions and non-tree structures still recurse per
        # level, so deep enough nesting outruns the recursion limit.
        print(f"error: input nests too deeply: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: not enough memory for this {args.command} request", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed before it was all written", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
