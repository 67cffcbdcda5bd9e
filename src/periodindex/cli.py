"""Command-line front end.

Subcommands: ``bound`` (index bound for one (n, d)), ``table`` (a grid of
bounds), ``homology`` (model homology for an order or a prime power),
``words`` (admissible and auxiliary words) and ``verify`` (the oracle
cross-check suites).  Data goes to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 verification failure, 2 usage error or a refused input:
a listing of over ``MAX_LISTED`` summands, rows or cells or over
``MAX_OUTPUT`` letters, (estimated) digits or padded table characters, or an
integer too large to factorise exactly; ``homology`` sizes its listing as it
builds it.  Each subcommand imports the modules it runs when it runs: a cold
``bound`` or ``table`` loads ``bounds`` alone.

The command line is declared once, in ``COMMANDS``.  ``_plain`` reads a
plain line (the subcommand, then its options in full and its positionals,
every value valid) without importing argparse; any other line, ``-h`` and
every usage error included, goes to the argparse parser that
``build_parser`` builds from the same table, so argparse's own rules decide
prefixes, ``--``, help and messages.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Sequence
from itertools import islice
from math import lgamma, log, log10, prod
from types import SimpleNamespace

from . import SUITES, __version__
from .bounds import CeilingError, _prime_power_bound, factorize, index_bound, is_prime

FORMATS = ("pretty-table", "json", "csv")

# `homology` lists every cyclic summand, `words` every word and `table` every
# cell; past this many summands, rows or cells they refuse (exit 2) instead
# of growing their output until memory runs out.
MAX_LISTED = 10 ** 6
# The same for the letters and the psi_{p^r} digits of a `words` listing, the
# torsion digits of a `homology` listing, the digits of a `table` or a `bound`
# and the characters of any padded pretty table.
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


def _emit(command: str, fmt: str, headers: Sequence[str], rows: Iterable[tuple]) -> int:
    """Write rows to stdout as an aligned table, as csv lines or as a JSON
    list of objects keyed by the headers, and return the exit code.  csv and
    JSON are written 4096 rows at a time, as the rows come; the table needs
    all rows for its widths, and is refused (exit 2) if padded it would
    write over MAX_OUTPUT characters.  Values are str or int, which JSON
    encodes column by column."""
    if fmt == "pretty-table":
        rows = [tuple(headers), *(tuple(map(str, row)) for row in rows)]
        widths = [max(map(len, column)) for column in zip(*rows)]
        # every line, the rule too, pads all but its last cell and adds a gap
        # of two spaces after each, then its last cell and a newline
        padded = ((len(rows) + 1) * (sum(widths) - widths[-1] + 2 * len(widths) - 1)
                  + sum(len(row[-1]) for row in rows) + widths[-1])
        if padded > MAX_OUTPUT:
            return _refuse(command, f"the padded table would write {padded} characters, over "
                                    f"the limit of {MAX_OUTPUT}; use --format csv")
        rows.insert(1, tuple("-" * w for w in widths))
        line = "  ".join(f"%-{w}s" for w in widths)  # pads like str.ljust
        print("\n".join(map(str.rstrip, map(line.__mod__, rows))))
        return 0
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
    return 0


def _cmd_bound(args, parser) -> int:
    if args.n < 1 or args.d < 1:
        parser.error("n and d must be positive integers")
    # every exponent (d-1)r + v_p((d-1)!) is at most 2(d-1)r, so the bound
    # is at most n^(2(d-1)); refuse on that before any power is taken
    if _over_output(2 * (args.d - 1), log10(args.n)):
        return _refuse("bound", f"the bound could have over {MAX_OUTPUT} digits; lower d")
    report = index_bound(args.n, args.d)
    payload = report.to_json_dict()  # converts each bound once, for every format
    sharp = payload["sharp"]
    ratio = str(report.ratio) if args.compare and sharp else None

    if args.format == "json":
        import json
        if args.compare:
            payload["comparison"] = {"n": report.n, "d": report.d,
                                     "theorem_a": payload["theorem_a"], "sharp": sharp,
                                     "ratio": ratio, "sharp_improves": report.sharp_improves}
        print(json.dumps(payload, sort_keys=True))
        return 0

    corollary_b = str(report.corollary_b_applies).lower()
    if args.format == "csv":
        headers = ["n", "d", "theorem_a", "corollary_b"]
        row = [str(report.n), str(report.d), payload["theorem_a"], corollary_b]
        if args.compare:
            headers += ["sharp", "ratio"]
            row += [sharp["value"] if sharp else "", ratio or ""]
        return _emit("bound", "csv", headers, [tuple(row)])

    print(f"period n = {report.n}, dimension 2d = {2 * report.d} (d = {report.d})")
    for prime in payload["primes"]:
        print(f"  p = {prime['p']}, r = {prime['r']}: bound {prime['bound']}")
    print(f"theorem_a = {payload['theorem_a']}")
    print(f"corollary_b_applies = {corollary_b}")
    if sharp is not None:
        print(f"sharp = {sharp['value']} ({sharp['source']})")
    if ratio is not None:
        print(f"ratio theorem_a / sharp = {ratio}")
        if report.sharp_improves:
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
    # each n factorised once per row; a cell is index_bound's product, no report
    grid = zip(ns, ([str(prod(_prime_power_bound(p, r, d) for p, r in primes)) for d in ds]
                    for primes in map(factorize, ns)))
    if args.format == "pretty-table":
        return _emit("table", args.format, ["n\\d", *map(str, ds)],
                     ((n, *row) for n, row in grid))
    return _emit("table", args.format, ["n", "d", "theorem_a"],
                 ((n, d, bound) for n, row in grid for d, bound in zip(ds, row)))


def _cmd_homology(args, parser) -> int:
    from .complexes import _model_homology
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
    primes = [(args.prime, args.exponent)] if have_pr else factorize(args.n)
    # a model's listing to a lower degree is a prefix of its listing to a
    # higher one: built and sized to degrees growing fourfold, a listing over
    # a limit is refused at the first degree that passes it
    cap = min(64, args.max_degree)
    while True:
        group = _model_homology(primes, cap)
        listed = sum(m for _, pairs in group.parts for _, m in pairs)
        if listed > MAX_LISTED:
            return _refuse("homology", f"the listing to degree {cap} holds {listed} torsion "
                                       f"summands, over the limit of {MAX_LISTED}; "
                                       "lower --max-degree")
        bits = sum(m * t.bit_length() for _, pairs in group.parts for t, m in pairs)
        if args.format != "json":  # pretty and csv also print each degree's largest order
            bits += sum(pairs[-1][0].bit_length() for _, pairs in group.parts if pairs)
        if (digits := log10(2) * bits) > MAX_OUTPUT:
            listed = "orders" if args.format == "json" else "orders and exponents"
            return _refuse("homology", f"the torsion {listed} listed to degree {cap} would "
                                       f"have about {digits:.0f} digits, over the limit of "
                                       f"{MAX_OUTPUT}; lower --max-degree")
        if cap == args.max_degree:
            break
        cap = min(4 * cap, args.max_degree)

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
    return _emit("homology", args.format, ["degree", "free", "exponent", "torsion"] if csv
                 else ["degree", "group", "exponent"], rows)


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
    return _emit("words", args.format, ["word", "degree", "height"] if word_first
                 else ["degree", "height", "word"], rows())


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


# The command line, one table for ``_plain`` and ``build_parser``.  Each
# subcommand has its handler, a one-line help and its arguments, each (name,
# kind, default, required, help).  A name without dashes is an int
# positional, left out only where not required.  An option's kind is int, a
# tuple of choices, or bool for a flag set to True.
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
        ("n", int, None, False, "the order n >= 2, without --prime and --exponent"),
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


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def build_parser(command: str | None = None):
    """The argparse parser of the command line, or of one subcommand, built
    from ``COMMANDS`` with each argument's help, its choices and its default
    or that it is required."""
    import argparse
    if command is None:
        parser = argparse.ArgumentParser(
            prog="periodindex", description="Index bounds for topological Brauer classes and "
                                            "the Eilenberg-MacLane homology models behind them.")
        parser.add_argument("--version", action="version", version=f"periodindex {__version__}")
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = {name: sub.add_parser(name, help=about, description=about)
                   for name, (_, about, _) in COMMANDS.items()}
    else:
        parser = argparse.ArgumentParser(prog=f"periodindex {command}",
                                         description=COMMANDS[command][1])
        parsers = {command: parser}
    for command, subparser in parsers.items():
        for name, kind, default, required, about in COMMANDS[command][2]:
            if default not in (None, False):
                about += f" (default: {default})"
            elif required and name.startswith("-"):
                about += " (required)"
            reads = ({"action": "store_true"} if kind is bool
                     else {"type": int} if kind is int else {"choices": kind})
            if name.startswith("-"):
                reads.update(default=default, required=required)
            elif not required:
                reads["nargs"] = "?"
            subparser.add_argument(name, help=about, **reads)
    return parser


def _plain(argv: Sequence[str]) -> dict | None:
    """The values of a plain command line, which argparse reads the same way,
    or None for any other line: the subcommand first, then its own options
    in full (``--opt value``, ``--opt=value`` or a bare flag) and its int
    positionals, no value starting with "-", every int read by ``int()``,
    every choice one of its choices, each required argument given and none
    left over.  A repeated option keeps its last value, as in argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    arguments = COMMANDS[argv[0]][2]
    options = {spec[0]: spec for spec in arguments if spec[0].startswith("-")}
    positionals = [spec for spec in arguments if not spec[0].startswith("-")]
    values = {"command": argv[0], **{_dest(spec[0]): spec[2] for spec in arguments}}
    given, words = set(), iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if not positionals:
                return None
            spec, value = positionals.pop(0), word
        else:
            name, eq, value = word.partition("=")
            spec = options.get(name)
            if spec is None or (eq and spec[1] is bool):
                return None
            if spec[1] is bool:
                value = True
            elif not eq and (value := next(words, None)) is None:
                return None
        if spec[1] is int:
            if value.startswith("-"):
                return None
            try:
                value = int(value)
            except ValueError:
                return None
        elif spec[1] is not bool and value not in spec[1]:
            return None
        values[_dest(spec[0])] = value
        given.add(spec[0])
    if any(spec[3] and spec[0] not in given for spec in arguments):
        return None
    return values


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The values of a ``periodindex`` command line: ``command`` and its
    subcommand's arguments.  A plain line, or ``--version`` alone, is read
    without argparse; any other goes to ``build_parser``.  After ``-h`` or
    ``--version`` exit 0, and on a usage error exit 2."""
    argv = list(argv)
    if argv == ["--version"]:
        print(f"periodindex {__version__}")
        sys.exit(0)
    values = _plain(argv)
    if values is None:
        values = vars(build_parser().parse_args(argv))
        # argparse drops a "--" read as a value and stores []: refuse that value
        for name, kind, *_ in COMMANDS[values["command"]][2]:
            if values[_dest(name)] == []:
                build_parser(values["command"]).error(
                    f"argument {name}: invalid int value: '--'" if kind is int else
                    f"argument {name}: invalid choice: '--' "
                    f"(choose from {', '.join(map(repr, kind))})")
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
        # a handler's usage error builds its subcommand's parser
        parser = SimpleNamespace(error=lambda message: build_parser(args.command).error(message))
        return COMMANDS[args.command][0](args, parser)
    except CeilingError as exc:
        return _refuse(args.command, str(exc))
    finally:
        if get_limit:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
