"""Command-line front end.

Subcommands: ``bound`` (index bound for one (n, d)), ``table`` (a grid of
bounds), ``homology`` (model homology for an order or a prime power),
``words`` (admissible and auxiliary words) and ``verify`` (the oracle
cross-check suites).  Data goes to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 verification failure, 2 usage error or a refused input:
a listing of over ``MAX_LISTED`` summands, rows or cells or over
``MAX_OUTPUT`` letters, table characters or (estimated) digits, or an integer
too large to factorise exactly.  Each subcommand imports the modules it runs
when it runs: a cold ``bound`` or ``table`` loads ``bounds`` alone.

The command line is read from one table, ``COMMANDS``, by ``Parser``, which
accepts what argparse accepted (unique option prefixes, ``--opt=value``,
negative-number positionals, ``--``, ``-h``) and prints the same usage lines,
messages and exit codes, without argparse's import and parser set-up.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Sequence
from itertools import islice
from math import lgamma, log, log10
from types import SimpleNamespace

from . import SUITES, __version__
from .bounds import (CeilingError, _comparison, decimal_string, factorize, index_bound,
                     is_prime)

FORMATS = ("pretty-table", "json", "csv")

# `homology` lists every cyclic summand, `words` every word and `table` every
# cell; past this many summands, rows or cells they refuse (exit 2) instead
# of growing their output until memory runs out.
MAX_LISTED = 10 ** 6
# The same for the letters and the psi_{p^r} digits of a `words` listing, the
# torsion digits and padded table of a `homology` listing and the digits of a
# `table` or a `bound`.
MAX_OUTPUT = 5 * 10 ** 6


def _paint(s: str, color: int) -> str:
    tty = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
    return f"\033[{color}m{s}\033[0m" if tty else s


def _refuse(command: str, message: str) -> int:
    print(f"periodindex {command}: error: {message}", file=sys.stderr)
    return 2


def _over_output(count: int, digits_each: float, more: float = 0.0) -> bool:
    """Whether ``count`` numbers of ``digits_each`` digits each, plus ``more``
    digits, pass MAX_OUTPUT.  The count is never turned into a float, so an
    int of any size is compared exactly instead of raising OverflowError."""
    return more > MAX_OUTPUT or (digits_each > 0 and count > (MAX_OUTPUT - more) / digits_each)


def _emit(fmt: str, headers: Sequence[str], rows: Iterable[tuple]) -> None:
    """Write rows to stdout as an aligned table, as csv lines or as a JSON
    list of objects keyed by the headers.  csv and JSON are written 4096 rows
    at a time, as the rows come; the table needs all rows for its widths.
    Values are str or int, which JSON encodes column by column."""
    if fmt == "pretty-table":
        rows = [tuple(headers), *(tuple(map(str, row)) for row in rows)]
        widths = [max(map(len, column)) for column in zip(*rows)]
        rows.insert(1, tuple("-" * w for w in widths))
        line = "  ".join(f"%-{w}s" for w in widths)  # pads like str.ljust
        print("\n".join(map(str.rstrip, map(line.__mod__, rows))))
        return
    csv, write, rows = fmt == "csv", sys.stdout.write, iter(rows)
    if csv:
        line, sep = ",".join(["%s"] * len(headers)), "\n"
    else:
        from json.encoder import encode_basestring_ascii as quote
        line, sep = "{%s}" % ", ".join(f"{quote(h)}: %s" for h in headers), ", "
    write(",".join(headers) if csv else "[")
    lead = sep if csv else ""
    while chunk := list(islice(rows, 4096)):
        if not csv:  # quote each column once, through one encoder per column
            chunk = zip(*(map(quote if isinstance(column[0], str) else str, column)
                          for column in zip(*chunk)))
        write(lead + sep.join(map(line.__mod__, chunk)))
        lead = sep
    write("\n" if csv else "]\n")


def _cmd_bound(args, parser) -> int:
    if args.n < 1 or args.d < 1:
        parser.error("n and d must be positive integers")
    # every exponent (d-1)r + v_p((d-1)!) is at most 2(d-1)r, so the bound
    # is at most n^(2(d-1)); refuse on that before any power is taken
    if _over_output(2 * (args.d - 1), log10(args.n)):
        return _refuse("bound", f"the bound could have over {MAX_OUTPUT} digits; lower d")
    report = index_bound(args.n, args.d)
    comparison = _comparison(report) if args.compare else None

    if args.format == "json":
        import json
        payload = report.to_json_dict()
        if comparison is not None:
            payload["comparison"] = comparison.to_json_dict()
        print(json.dumps(payload, sort_keys=True))
        return 0

    sharp = report.known_sharp
    if args.format == "csv":
        headers = ["n", "d", "theorem_a", "corollary_b"]
        row = [str(report.n), str(report.d), decimal_string(report.theorem_a_bound),
               str(report.corollary_b_applies).lower()]
        if args.compare:
            headers += ["sharp", "ratio"]
            row += [str(sharp.value) if sharp else "",
                    str(comparison.ratio) if comparison.ratio is not None else ""]
        _emit("csv", headers, [tuple(row)])
        return 0

    print(f"period n = {report.n}, dimension 2d = {2 * report.d} (d = {report.d})")
    theorem_a = decimal_string(report.theorem_a_bound)
    for p, r, bound in report.prime_breakdown:  # for a prime power, bound is theorem_a
        shown = theorem_a if bound == report.theorem_a_bound else decimal_string(bound)
        print(f"  p = {p}, r = {r}: bound {shown}")
    print(f"theorem_a = {theorem_a}")
    print(f"corollary_b_applies = {str(report.corollary_b_applies).lower()}")
    if sharp is not None:
        print(f"sharp = {sharp.value} ({sharp.source})")
    if comparison is not None and comparison.ratio is not None:
        print(f"ratio theorem_a / sharp = {comparison.ratio}")
        if comparison.sharp_improves:
            print("the sharp value strictly improves on theorem_a")
    return 0


def _table_digits(n_max: int, d_max: int) -> float:
    """Upper estimate of the digits in a table: each cell's bound is at most
    n^(d-1) * (d-1)!, which has at most (d-1) log10 n + log10((d-1)!) + 1."""
    log_factorials = sum(lgamma(d) for d in range(1, d_max + 1))
    return ((d_max * (d_max - 1) / 2 * lgamma(n_max + 1) + n_max * log_factorials)
            / log(10) + n_max * d_max)


def _cmd_table(args, parser) -> int:
    if args.n_max < 1 or args.d_max < 1:
        parser.error("--n-max and --d-max must be positive integers")
    if (args.n_max * args.d_max > MAX_LISTED
            or _table_digits(args.n_max, args.d_max) > MAX_OUTPUT):
        return _refuse("table", f"the grid would hold over {MAX_LISTED} cells or over "
                                f"{MAX_OUTPUT} digits; lower --n-max or --d-max")
    ns, ds = range(1, args.n_max + 1), range(1, args.d_max + 1)
    grid = zip(ns, ([str(index_bound(n, d).theorem_a_bound) for d in ds] for n in ns))
    if args.format == "pretty-table":
        _emit(args.format, ["n\\d", *map(str, ds)], ((n, *row) for n, row in grid))
    else:
        _emit(args.format, ["n", "d", "theorem_a"],
              ((n, d, bound) for n, row in grid for d, bound in zip(ds, row)))
    return 0


def _cmd_homology(args, parser) -> int:
    from .complexes import _model_homology, primary_model_homology
    have_n = args.n is not None
    have_pr = args.prime is not None or args.exponent is not None
    if have_n == have_pr:
        parser.error("give either an order n or both --prime and --exponent")
    if args.max_degree < 0:
        parser.error("--max-degree must be >= 0")
    if have_pr:
        if args.prime is None or args.exponent is None:
            parser.error("--prime and --exponent go together")
        if not is_prime(args.prime):
            parser.error(f"{args.prime} is not prime")
        if args.exponent < 1:
            parser.error("--exponent must be >= 1")
    elif args.n < 2:
        parser.error("n must be >= 2")
    if args.max_degree >= MAX_LISTED:  # one row per degree 0..max_degree
        return _refuse("homology", f"the listing would hold over {MAX_LISTED} rows; "
                                   "lower --max-degree")
    # degree 2k holds Z/(p^r k) for each p^r || n and each k <= max_degree / 2,
    # and merging into invariant factors keeps the product of the orders, so
    # they have over max(1, k) log10 n + log10(k!) digits at the top k; the
    # model is built on each p^r itself
    base, power = (args.prime, args.exponent) if have_pr else (args.n, 1)
    half = args.max_degree // 2
    times = 2 if args.format != "json" and half else 1  # and each exponent, >= n k
    if _over_output(times * max(1, half) * power, log10(base),
                    times * lgamma(half + 1) / log(10)):
        listed = "orders and exponents" if times == 2 else "orders"
        return _refuse("homology", f"p^r or the {listed} listed would have over {MAX_OUTPUT} "
                                   "digits; lower the order or --max-degree")
    if not have_pr and len(primes := factorize(args.n)) > 1:
        # each p^r || n's listing is a direct summand of n's (Kunneth, H_0 = Z)
        part = primary_model_homology(*primes[0], args.max_degree)
        if sum(m for _, pairs in part.parts for _, m in pairs) > MAX_LISTED:
            return _refuse("homology", f"the listing would hold over {MAX_LISTED} torsion "
                                       "summands; lower --max-degree")
    group = (primary_model_homology(args.prime, args.exponent, args.max_degree) if have_pr
             else _model_homology(primes, args.max_degree))  # n factorised once, above
    listed = sum(m for _, pairs in group.parts for _, m in pairs)
    if listed > MAX_LISTED:
        return _refuse("homology", f"the listing would hold {listed} torsion summands, "
                                   f"over the limit of {MAX_LISTED}; lower --max-degree")
    digits = log10(2) * sum(m * t.bit_length() for _, pairs in group.parts for t, m in pairs)
    if digits > MAX_OUTPUT:
        return _refuse("homology", f"the torsion orders listed would have about {digits:.0f} "
                                   f"digits, over the limit of {MAX_OUTPUT}; lower --max-degree")
    if args.format != "json":  # the pretty and csv listings also print each degree's
        # exponent, its largest order
        digits += log10(2) * sum(pairs[-1][0].bit_length() for _, pairs in group.parts if pairs)
        if digits > MAX_OUTPUT:
            return _refuse("homology", f"the torsion orders and exponents listed would have "
                                       f"about {digits:.0f} digits or more, over the limit of "
                                       f"{MAX_OUTPUT}; lower --max-degree")

    listing = group.to_json()  # converts each distinct order once
    if args.format == "json":  # one object keyed by degree, not a list of rows
        import json
        print(json.dumps(listing, sort_keys=True))
        return 0
    from .graded import _describe
    csv, rows = args.format == "csv", []
    for d, entry in enumerate(listing.values()):  # degrees 0..max_degree, in order
        free, torsion = entry["free"], entry["torsion"]
        exp = torsion[-1] if torsion else "1"
        rows.append((d, free, exp, "+".join(torsion)) if csv
                    else (d, _describe(free, torsion), exp))
    if not csv:  # every line, header and rule too, pads degree and group to their
        # widest cell, then adds two gaps of two spaces, its exponent cell and a newline
        exps = [len("exponent"), *(len(exp) for *_, exp in rows)]
        widths = max(6, len(str(args.max_degree))) + max(5, *(len(g) for _, g, _ in rows))
        padded = (len(rows) + 2) * (widths + 5) + sum(exps) + max(exps)  # max: the rule
        if padded > MAX_OUTPUT:
            return _refuse("homology", f"the padded table would write {padded} characters, over "
                                       f"the limit of {MAX_OUTPUT}; lower --max-degree or use "
                                       "--format csv")
    _emit(args.format, ["degree", "free", "exponent", "torsion"] if csv
          else ["degree", "group", "exponent"], rows)
    return 0


def _cmd_words(args, parser) -> int:
    if not is_prime(args.p):
        parser.error(f"{args.p} is not prime")
    if args.r < 1:
        parser.error("r must be >= 1")
    if args.max_degree < 0:
        parser.error("--max-degree must be >= 0")
    from .words import render_keys, word_census, words_by_degree
    too_long = (f"the listing would hold over {MAX_LISTED} rows or over {MAX_OUTPUT} "
                "letters and digits; lower --max-degree or r")
    # each auxiliary row sigma^(h-1) psi_{p^r}, h = 1..max_degree-1, also
    # prints the digits of p^r: counted here, before p^r is formed
    aux = max(0, args.max_degree - 1)
    if _over_output(aux * args.r, log10(args.p)):
        return _refuse("words", too_long)
    digits = aux and aux * (int(args.r * log10(args.p)) + 1)  # r is unbounded when aux is 0
    rows, letters = word_census(args.p, args.r, args.max_degree, MAX_LISTED,
                                MAX_OUTPUT - digits)
    if rows > MAX_LISTED or letters + digits > MAX_OUTPUT:
        return _refuse("words", too_long)
    keyed = words_by_degree(args.p, args.r, args.max_degree)
    word_first = args.format == "json"  # as the JSON objects do

    def rows():  # rendered 4096 keys at a time
        while chunk := list(islice(keyed, 4096)):
            degrees, heights, keys = zip(*chunk)
            words = render_keys(args.p, args.r, keys, args.ascii)
            yield from zip(words, degrees, heights) if word_first else zip(degrees, heights, words)
    _emit(args.format, ["word", "degree", "height"] if word_first
          else ["degree", "height", "word"], rows())
    return 0


def _cmd_verify(args, parser) -> int:
    from .verify import run_suite
    results = run_suite(args.suite, seed=args.seed)
    failed = sum(not res.passed for res in results)
    for res in results:
        print(f"{_paint('PASS', 32)}  {res.name}" if res.passed
              else f"{_paint('FAIL', 31)}  {res.name}: {res.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed"
          f" (suite {args.suite}, seed {args.seed})")
    return 1 if failed else 0


# The command line, one table for reading it and for its usage, help and
# errors.  Each subcommand has its handler, a one-line help and its
# arguments, each (name, kind, default, required, help).  A name without
# dashes is a positional: an int, left out only where not required, or at
# the top level the command, which takes every argument after it.  An
# option's kind is int, a tuple of choices, or bool for a flag set to True.
_FORMAT = ("--format", FORMATS, "pretty-table", False, "output format")
COMMANDS = {
    "bound": (_cmd_bound, "index bound for period n, dimension 2d", (
        ("n", int, None, True, "the period n >= 1"),
        ("d", int, None, True, "half the dimension 2d, d >= 1"),
        ("--compare", bool, False, False, "also compare against the best known sharp value"),
        _FORMAT)),
    "table": (_cmd_table, "grid of bounds over n and d ranges", (
        ("--n-max", int, None, True, "the largest period n in the grid"),
        ("--d-max", int, None, True, "the largest d in the grid"),
        _FORMAT)),
    "homology": (_cmd_homology, "model homology for an order n, or one prime power", (
        ("n", int, None, False, "the order n >= 2, unless --prime and --exponent are given"),
        ("--prime", int, None, False, "the prime p of an order p^r"),
        ("--exponent", int, None, False, "the exponent r >= 1 of an order p^r"),
        ("--max-degree", int, None, True, "the highest degree listed"),
        _FORMAT)),
    "words": (_cmd_words, "enumerate admissible and auxiliary words", (
        ("p", int, None, True, "the prime p of the period p^r"),
        ("r", int, None, True, "the exponent r >= 1 of the period p^r"),
        ("--max-degree", int, None, True, "the highest degree listed"),
        ("--ascii", bool, False, False, "render symbols as s, g, f, y instead of unicode"),
        _FORMAT)),
    "verify": (_cmd_verify, "run the oracle cross-check suites", (
        ("--suite", SUITES + ("all",), "all", False, "the suite to run"),
        ("--seed", int, 0, False, "the seed of the randomized snf suite"))),
}
_TOP = ("Index bounds for topological Brauer classes and the Eilenberg-MacLane homology\n"
        "models behind them.", (
            ("--version", "version", None, False, "show program's version number and exit"),
            ("command", tuple(COMMANDS), None, True, "")))
_HELP = ("-h/--help", "help", None, False, "show this help message and exit")
_WIDTH = 78  # of a usage line, as argparse wrapped it for 80 columns


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _arity(spec: tuple) -> str:
    """How many values an argument reads: "0" (a flag), "1", "?" (an int
    positional that may be left out) or "+" (the command and all after it)."""
    name, kind, _, required, _ = spec
    if name.startswith("-"):
        return "0" if kind in (bool, "help", "version") else "1"
    return "+" if isinstance(kind, tuple) else "1" if required else "?"


def _span(marks: str, i: int, arity: str) -> int | None:
    """How many arguments from ``i`` a positional of ``arity`` reads, or None
    if it cannot.  ``marks`` holds "A" for a value, "O" for an option and
    "-" for the "--" separator, which goes with the positional next to it."""
    j = i
    while marks[j:j + 1] == "-":
        j += 1
    if marks[j:j + 1] == "A":
        j = len(marks) if arity == "+" else j + 1
    elif arity != "?":
        return None
    while marks[j:j + 1] == "-":
        j += 1
    return j - i


def _negative(arg: str) -> bool:
    """Whether ``arg``, which starts with "-", reads as a negative number
    such as -5 or -.5, and so as a positional, not an option."""
    body = arg[1:-1] if arg.endswith("\n") else arg[1:]
    whole, dot, fraction = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return fraction.isdecimal() and (not whole or whole.isdecimal())


def _wrap(parts: list[str], indent: str, used: int) -> list[str]:
    """``parts`` joined by spaces on lines of at most ``_WIDTH`` columns,
    each after ``indent``; the first line has ``used`` + 1 columns taken."""
    lines, line = [], []
    for part in parts:
        if line and used + 1 + len(part) > _WIDTH:
            lines.append(indent + " ".join(line))
            line, used = [], len(indent) - 1
        line.append(part)
        used += len(part) + 1
    return [*lines, indent + " ".join(line)] if line else lines


class Parser:
    """One level of the command line, the top one or a subcommand's, read
    as argparse read it: unique prefixes of long options, ``--opt=value``,
    ``-hh``, negative-number positionals and ``--``.  A value "--", after
    "=" or after the separator, is read as given, where argparse dropped it.
    ``error`` prints the usage and ``<prog>: error: <message>`` to stderr
    and exits 2."""

    def __init__(self, command: str | None = None):
        self.prog = f"periodindex {command}" if command else "periodindex"
        self.about, arguments = COMMANDS[command][1:] if command else _TOP
        self.arguments = (_HELP, *arguments)
        self.flags = {flag: spec for spec in self.arguments if spec[0].startswith("-")
                      for flag in spec[0].split("/")}

    def error(self, message: str):
        sys.stderr.write(f"{self.usage()}{self.prog}: error: {message}\n")
        sys.exit(2)

    def usage(self) -> str:
        """``usage: <prog> <options> <positionals>``, wrapped as argparse did."""
        options, positionals = [], []
        for name, kind, _, required, _ in self.arguments:
            if not name.startswith("-"):
                positionals.append(f"{{{','.join(kind)}}} ..." if isinstance(kind, tuple)
                                   else name if required else f"[{name}]")
                continue
            part = self._invocation(name, kind).split(", ")[0]
            options.append(part if required else f"[{part}]")
        line = " ".join([self.prog, *options, *positionals])
        if len(line) + 7 <= _WIDTH:
            return f"usage: {line}\n"
        indent = " " * (len(self.prog) + 8)
        lines = _wrap([self.prog, *options], indent, 6) + _wrap(positionals, indent, len(indent) - 1)
        return "usage: " + "\n".join(lines)[len(indent):] + "\n"

    @staticmethod
    def _invocation(name: str, kind) -> str:
        if name.startswith("-") and kind not in (bool, "help", "version"):
            name += f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else f" {_dest(name).upper()}"
        return name.replace("/", ", ")

    def help(self) -> str:
        """The usage, what the command does, and a line for each command,
        positional and option: its choices, and its default or that it is
        required."""
        sections = {"commands:": [], "positional arguments:": [], "options:": []}
        for name, kind, default, required, about in self.arguments:
            if name == "command":
                sections["commands:"] = [(command, COMMANDS[command][1]) for command in kind]
                continue
            if default not in (None, False):
                about += f" (default: {default})"
            elif required and name.startswith("-"):
                about += " (required)"
            sections["options:" if name.startswith("-") else "positional arguments:"].append(
                (self._invocation(name, kind), about))
        blocks = [self.usage().rstrip("\n"), self.about]
        for title, rows in sections.items():
            if rows:
                blocks.append("\n".join([title, *(f"  {left:<20}  {right}" if len(left) <= 20
                                                  else f"  {left}\n{'':24}{right}"
                                                  for left, right in rows)]))
        return "\n\n".join(blocks) + "\n"

    def _option(self, arg: str) -> tuple | None:
        """(spec, or None for an unknown option; the flag; its ``=`` value or
        None) for an option, or None for a positional."""
        if not arg.startswith("-"):
            return None
        if arg in self.flags:
            return self.flags[arg], arg, None
        if len(arg) == 1:
            return None
        head, eq, value = arg.partition("=")
        if eq and head in self.flags:
            return self.flags[head], head, value
        if arg[1] == "-":  # a unique prefix of a long option
            hits = [(flag, value if eq else None) for flag in self.flags if flag.startswith(head)]
        else:  # -hX, read as -h X
            hits = [(flag, arg[2:]) for flag in self.flags if flag == arg[:2]]
        if len(hits) > 1:
            self.error(f"ambiguous option: {arg} could match "
                       f"{', '.join(flag for flag, _ in hits)}")
        if hits:
            return self.flags[hits[0][0]], *hits[0]
        return None if _negative(arg) or " " in arg else (None, arg, None)

    def read(self, args: list[str]) -> tuple[dict, list[str]]:
        """The values that ``args`` set, by dest, and the arguments left
        unread.  Options and runs of positionals are read as they come."""
        marks, found = [], {}
        for i, arg in enumerate(args):
            if arg == "--":  # every argument after it is a positional
                marks.append("-" + "A" * (len(args) - i - 1))
                break
            if option := self._option(arg):
                found[i] = option
            marks.append("O" if option else "A")
        marks = "".join(marks)
        separator = marks.find("-")
        values = {_dest(spec[0]): spec[2] for spec in self.arguments[1:] if spec[1] != "version"}
        positionals = [spec for spec in self.arguments if not spec[0].startswith("-")]
        seen, extras = set(), []

        def take(spec: tuple, strings: list[str]) -> None:
            name, kind = spec[:2]
            seen.add(name)
            if kind == "help":
                sys.stdout.write(self.help())
                sys.exit(0)
            if kind == "version":
                print(f"periodindex {__version__}")
                sys.exit(0)
            if kind is bool:
                value = True
            elif not strings:  # an int positional left out
                value = None
            elif kind is int:
                try:
                    value = int(strings[0])
                except ValueError:
                    self.error(f"argument {name}: invalid int value: {strings[0]!r}")
            elif strings[0] in kind:
                value = strings[0]
            else:
                self.error(f"argument {name}: invalid choice: {strings[0]!r} "
                           f"(choose from {', '.join(map(repr, kind))})")
            values[_dest(name)] = value
            if name == "command":
                more, unread = Parser(value).read(strings[1:])
                values.update(more)
                extras.extend(unread)

        def read_positionals(start: int) -> int:
            while positionals and (span := _span(marks, start, _arity(positionals[0]))) is not None:
                spec, stop = positionals.pop(0), start + span
                # the command reads "--" as one of its subcommand's arguments
                take(spec, args[start:] if spec[0] == "command"
                     else [args[k] for k in range(start, stop) if k != separator])
                start = stop
            return start

        def read_option(i: int) -> int:
            spec, flag, explicit = found[i]
            if spec is None:
                extras.append(args[i])
                return i + 1
            if explicit is None:
                if _arity(spec) == "0":
                    take(spec, [])
                    return i + 1
                if marks[i + 1:i + 2] != "A":  # never "--" or an option
                    self.error(f"argument {spec[0]}: expected one argument")
                take(spec, [args[i + 1]])
                return i + 2
            if _arity(spec) == "0":
                rest = explicit.lstrip("h") if flag == "-h" else explicit  # -hh: -h -h
                if rest or not explicit or flag != "-h":
                    self.error(f"argument {spec[0]}: ignored explicit argument {rest!r}")
            take(spec, [explicit])
            return i + 1

        start, last = 0, max(found, default=-1)
        while start <= last:
            following = min(i for i in found if i >= start)
            if start != following:
                end = read_positionals(start)
                if end > start:
                    start = end
                    continue
                extras.extend(args[start:following])
                start = following
            start = read_option(start)
        start = read_positionals(start)
        extras.extend(args[start:])
        if missing := [spec[0] for spec in self.arguments if spec[3] and spec[0] not in seen]:
            self.error(f"the following arguments are required: {', '.join(missing)}")
        return values, extras


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The values of a ``periodindex`` command line: ``command`` and its
    subcommand's arguments.  After ``-h`` or ``--version`` exit 0, and on a
    usage error exit 2."""
    parser = Parser()
    values, extras = parser.read(list(argv))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    # Python 3.11+ refuses int <-> str past 4300 digits: bounds such as
    # `bound 6 20000` print past it, and an n such as 2^16610 is read past it.
    # Lift the limit for the command only, parsing included, since main may
    # run inside a longer-lived process.
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    old_limit = get_limit() if get_limit else None
    if get_limit:
        sys.set_int_max_str_digits(0)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return COMMANDS[args.command][0](args, Parser(args.command))
    except CeilingError as exc:
        return _refuse(args.command, str(exc))
    finally:
        if get_limit:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
