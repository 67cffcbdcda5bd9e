"""The argparse parser the CLI's table-driven parser is checked against.

``build_parser`` is the command line as ``periodindex.cli`` read it with
``argparse``: the same subcommands, int positionals and options, defaults,
choices and required options.  ``tests/test_cli_parser.py`` requires the
two to agree on exit codes, parsed values and error messages.
"""

from __future__ import annotations

import argparse

from periodindex import SUITES, __version__
from periodindex.cli import (FORMATS, _cmd_bound, _cmd_homology, _cmd_table, _cmd_verify,
                             _cmd_words)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodindex",
        description="Index bounds for topological Brauer classes and the "
                    "Eilenberg-MacLane homology models behind them.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="pretty-table")

    p_bound = sub.add_parser("bound", help="index bound for period n, dimension 2d")
    p_bound.add_argument("n", type=int)
    p_bound.add_argument("d", type=int)
    p_bound.add_argument("--compare", action="store_true",
                         help="also compare against the best known sharp value")
    add_format(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_table = sub.add_parser("table", help="grid of bounds over n and d ranges")
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--d-max", type=int, required=True)
    add_format(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_hom = sub.add_parser(
        "homology", help="model homology for an order n, or one prime power")
    p_hom.add_argument("n", type=int, nargs="?")
    p_hom.add_argument("--prime", type=int)
    p_hom.add_argument("--exponent", type=int)
    p_hom.add_argument("--max-degree", type=int, required=True)
    add_format(p_hom)
    p_hom.set_defaults(func=_cmd_homology)

    p_words = sub.add_parser("words", help="enumerate admissible and auxiliary words")
    p_words.add_argument("p", type=int)
    p_words.add_argument("r", type=int)
    p_words.add_argument("--max-degree", type=int, required=True)
    p_words.add_argument("--ascii", action="store_true",
                         help="render symbols as s, g, f, y instead of unicode")
    add_format(p_words)
    p_words.set_defaults(func=_cmd_words)

    p_verify = sub.add_parser("verify", help="run the oracle cross-check suites")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    return parser
