"""Command-line runner.

Subcommands:

* ``purecheck run`` — evaluate a suite at a confidence, print a report.
* ``purecheck list`` — show registered entry names (and tags).
* ``purecheck oracle`` — compare two words of edits both ways: by their
  normal-form automata and by brute force over small strings; when the
  automata differ, replay the model's witness input through both words.
  Automata, words, witness and outputs longer than 200 characters print as
  their head and tail and their length.

``PURECHECK_CONFIDENCE`` supplies the default budget; ``--confidence``
overrides it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import editor, runner
from .patches import Word, action, parse_literal, render_word

_SUITES = {
    "default": runner.default_suite,
    "negative": runner.negative_suite,
    "all": runner.full_suite,
}


def _read_word(path: str) -> Word:
    # only the line break goes: "+0: " inserts a space
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    return Word(tuple(parse_literal(line) for line in lines if line.strip()))


def _view(text: str) -> str:
    """``text`` itself, or, past 200 characters, its first and last 98 around
    ``...`` and its length: a word file can name positions in the millions,
    and its automaton, witness and outputs grow with them."""
    if len(text) <= 200:
        return text
    return f"{text[:98]}...{text[-98:]} ({len(text)} characters)"


def _print(text: str) -> None:
    """``print`` that outlives its reader: once the output is closed early
    (``| head``), the rest goes to the null device, so the command still
    ends with its own exit code and without a traceback."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="purecheck",
        description="Deterministic property checking with confidence budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate a suite and report verdicts")
    # a string default goes through `type` too, so a malformed
    # PURECHECK_CONFIDENCE is a usage error like a malformed flag
    run_p.add_argument(
        "--confidence",
        type=int,
        default=os.environ.get("PURECHECK_CONFIDENCE", "100"),
        help="sample budget per check (default: $PURECHECK_CONFIDENCE, else 100)",
    )
    run_p.add_argument("--filter", default=None, help="substring filter on entry names")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    run_p.add_argument("--suite", choices=tuple(_SUITES), default="default")

    list_p = sub.add_parser("list", help="list registered checks")
    list_p.add_argument("--tags", action="store_true", help="also show tags")
    list_p.add_argument("--suite", choices=tuple(_SUITES), default="default")

    oracle_p = sub.add_parser(
        "oracle",
        help="compare two edit-word files by automaton and by brute force",
    )
    oracle_p.add_argument("--max-len", type=int, default=6)
    oracle_p.add_argument("--alphabet", default="ab")
    oracle_p.add_argument("wordfiles", nargs=2, metavar="WORDFILE")

    args = parser.parse_args(argv)

    if args.command == "run":
        if args.confidence < 1:
            parser.error("--confidence must be at least 1")
        suite = _SUITES[args.suite]()
        report = runner.run_suite(suite, args.confidence, args.filter)
        if args.format == "json":
            _print(runner.report_json(report))
        else:
            _print(runner.report_text(report))
        return runner.exit_code(report)

    if args.command == "list":
        suite = _SUITES[args.suite]()
        for entry in suite.entries():
            if args.tags and entry.tags:
                _print(f"{entry.name}  [{', '.join(entry.tags)}]")
            else:
                _print(entry.name)
        return 0

    # oracle
    if args.max_len < 0:
        parser.error("--max-len must be at least 0")
    try:
        left = _read_word(args.wordfiles[0])
        right = _read_word(args.wordfiles[1])
    except OSError as exc:
        parser.error(str(exc))
    except ValueError as exc:
        parser.error(f"bad word file (one literal per line, e.g. '+2:a' or '~-0:b'): {exc}")
    by_model = editor.word_equiv(left, right)
    by_force = runner.brute_force_equiv(left, right, args.alphabet, args.max_len)
    x, y = editor.semantics(left), editor.semantics(right)
    _print(f"left:  {_view(render_word(left)) or '(empty word)'}")
    _print(f"       {_view(editor.render_editor(x))}")
    _print(f"right: {_view(render_word(right)) or '(empty word)'}")
    _print(f"       {_view(editor.render_editor(y))}")
    _print(f"normal-form automata: {'equal' if by_model else 'different'}")
    _print(
        f"brute force over {{{args.alphabet}}}^<={args.max_len}: "
        f"{'equal' if by_force else 'different'}"
    )
    if by_model and by_force:
        return 0
    if not by_model:
        # the small universe may be too small to separate the words, so a
        # "different" stands on a witness input that really separates them
        witness = editor.witness_diff(x, y)
        if witness is not None:
            outs = [action(witness, w) for w in (left, right)]
            if outs[0] != outs[1]:
                left_out, right_out = ("undefined" if o is None else _view(repr(o)) for o in outs)
                _print(f"witness {_view(repr(witness))}: left gives {left_out}, right gives {right_out}")
                return 1
    _print("DISAGREEMENT between model and oracle — this is a bug")
    return 2


if __name__ == "__main__":
    sys.exit(main())
