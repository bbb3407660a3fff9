"""Command-line interface.

Exit codes: 0 success (or predicate true), 1 predicate false or verification
violations, 2 usage or input errors, 3 internal invariant violations, 4 a
resource limit: a search that ran out of its word budget (CapExceeded) or a
command that ran out of memory (MemoryError), 141 (128 + SIGPIPE) output
cut off by a closed pipe, with nothing printed.

Only the presentation module is imported with this one; each command reads
what it calls off the defining module when it runs (see _module), so a
process loads only the modules that its commands use.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import sys
from bisect import bisect_right
from contextlib import nullcontext
from itertools import accumulate
from json.encoder import encode_basestring_ascii

from .presentation import (
    DEFAULT_SEED,
    CapExceeded,
    InvariantViolation,
    Presentation,
    PresentationError,
    build_presentation,
    format_word,
    parse_word,
)

__all__ = ["main", "run"]

SUITES = ("nf-oracle", "cancellative", "codet", "indegree", "alignment")


@functools.cache
def _module(name: str):
    """This package's module called name, imported on the first call.

    Commands reach what they call through it, as attributes looked up at
    call time, so a replacement made in the defining module is what runs.
    An import statement in each command would load as little, but costs a
    few microseconds on every call: about 5% of a one-word query.
    """
    return importlib.import_module(f"{__package__}.{name}")


def _add_common(sub):
    sub.add_argument("-n", type=int, required=True, help="family index (n >= 1)")
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub.add_argument("--output", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and reused after;
    callers must not modify it.

    Its commands attribute maps each command name to that command's own
    parser: the subparsers action's choices, built with the parser, so a
    rebuilt parser never pairs with an old table.  run dispatches on it.

    Reuse is safe: parse_args makes a fresh Namespace on every call, and
    eq's append action copies its None default, so -w values do not pile up
    across calls.  The subcommands' handlers (cmd_*) are bound when the
    parser is built; the functions they call, such as export_dot or
    verify_alignment, are looked up in their modules at call time.
    build_parser stays a plain function around the cached builder because
    bench/tracing.py wraps only plain functions; a functools.cache object
    would go uncounted.
    """
    return _parser()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malcev",
        description="Normal forms, Cayley graphs, ideal intersections and "
        "group-derivation certificates for the monoid family M_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("gen", help="print generators, relations and derived sets")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("nf", help="left normal form of a word")
    _add_common(p)
    p.add_argument("-w", "--word", required=True, help="space-separated tokens")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("eq", help="decide equality of two words")
    _add_common(p)
    p.add_argument(
        "-w",
        "--word",
        action="append",
        required=True,
        help="give twice: the two words to compare",
    )
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("divides", help="left divisibility with witness")
    _add_common(p)
    p.add_argument("-p", required=True, help="candidate divisor")
    p.add_argument("-q", required=True, help="candidate multiple")
    p.set_defaults(func=cmd_divides)

    p = sub.add_parser("intersect", help="intersect two principal right ideals")
    _add_common(p)
    p.add_argument("-p", required=True)
    p.add_argument("-q", required=True)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("ball", help="Cayley graph ball around a root")
    _add_common(p)
    p.add_argument("--root", default="1", help="root word (default identity)")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--dot", help="write DOT here ('-' for stdout)")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--max-len", type=int, required=True, help="element length bound")
    p.add_argument("--window", type=int, help="oracle window (alignment suite)")
    p.add_argument("--samples", type=int, default=50, help="oracle sample size")
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"sampling seed (alignment suite; default {DEFAULT_SEED})",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("obstruct", help="emit the group-derivation certificate")
    _add_common(p)
    p.set_defaults(func=cmd_obstruct)

    return parser


def _presentation(n: int) -> Presentation:
    """The process's presentation M_n, built on the first call for n and
    reused after; callers must not modify it or its derived maps.

    Reuse is safe: nothing in the package mutates a Presentation, and a
    bad n raises before anything is stored, so it is refused on every call.
    The module global build_presentation is looked up at call time and is
    part of the cache key, so a presentation built by one builder is never
    returned in place of another's: a replacement, such as the call
    counter bench/tracing.py installs, sees each n it is asked for once.
    """
    return _built(build_presentation, n)


@functools.lru_cache(maxsize=8)
def _built(build, n: int) -> Presentation:
    """build(n), for the last 8 (build, n) pairs asked for.

    A presentation holds 1.4 to 1.8 KiB per unit of n (tracemalloc, Python
    3.11: 9 KiB at n = 5, 155 KiB at n = 100, 17.5 MiB at n = 10,000,
    334 MiB at n = 249,999), so the cache pins at most 8 times the largest
    one asked for: under 2 MiB while n <= 100, and about 2.6 GiB at the
    largest n the CLI accepts, 249,999.
    """
    return build(n)


def _emit(args, command, result, violations, text) -> None:
    """Write text, or the JSON document, then a newline, to --output or
    stdout.  The document is written by _write_json as it is encoded, never
    held whole as one string.  text is a str, or a _Pieces, whose bounded
    joins are written in turn."""
    output = args.output
    with open(output, "w") if output is not None else nullcontext(sys.stdout) as out:
        if args.format == "json":
            doc = {
                "command": command,
                "n": args.n,
                "result": result,
                "violations": list(violations),
            }
            _write_json(doc, out.write)
        elif isinstance(text, str):
            out.write(text)
        else:
            out.writelines(text)
        out.write("\n")


# characters per join of a _Pieces, past its first piece: one join holds a
# bounded share of the text
_JOIN_CHARS = 1 << 16


class _Pieces:
    """A text held as pieces to join, such as a ball's DOT.

    Iterating it gives joins of consecutive pieces, each holding at most
    _JOIN_CHARS characters past its first piece, so no string holds the
    whole text.  As a JSON value its pieces must already be escaped:
    _write_json writes them as they are, between two quotes.  It is not a
    str subclass, so no str branch of the writer takes it."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list):
        self.pieces = pieces

    def __iter__(self):
        pieces = self.pieces
        ends = list(accumulate(map(len, pieces)))  # ends[i]: pieces[: i + 1]
        start = 0
        while start < len(pieces):
            stop = bisect_right(ends, ends[start] + _JOIN_CHARS, start + 1)
            yield "".join(pieces[start:stop])
            start = stop


_FLUSH_PIECES = 65536


def _write_json(doc, write) -> None:
    """Pass write the bytes of json.JSONEncoder(indent=2).encode(doc), in
    one call per 65,536 pieces, one more per join of a _Pieces, and once
    more at the end.

    With indent set, json never uses its C encoder; this writer takes the
    C string escaper and int.__repr__ directly.  Only str, int, bool,
    None, and dicts with str keys, lists and tuples of them are written:
    anything else, a float included, raises TypeError.  A _Pieces, whose
    pieces are already escaped, is written as the JSON string they spell:
    a quote, its bounded joins, each ending a call to write, and a quote.
    The escaper never sees its text, and no string holds it whole.
    """
    pieces = []
    append = pieces.append

    def flush() -> None:
        # the pieces go before the write, which may hold an encoded copy
        text = "".join(pieces)
        pieces.clear()
        write(text)

    def encode(o, nl: str) -> None:
        if isinstance(o, str):
            append(encode_basestring_ascii(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = nl + "  "
            lead, sep = "{" + inner, "," + inner
            for key, value in o.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                name = encode_basestring_ascii(key)
                # a str or int value, the common leaves, shares its entry's piece
                kind = type(value)
                if kind is str:
                    append(f"{lead}{name}: {encode_basestring_ascii(value)}")
                elif kind is int:
                    append(f"{lead}{name}: {int.__repr__(value)}")
                else:
                    append(f"{lead}{name}: ")
                    encode(value, inner)
                lead = sep
                if len(pieces) >= _FLUSH_PIECES:
                    flush()
            append(nl + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                append("[]")
                return
            inner = nl + "  "
            lead, sep = "[" + inner, "," + inner
            for item in o:
                append(lead)
                if type(item) is str:
                    append(encode_basestring_ascii(item))
                else:
                    encode(item, inner)
                lead = sep
                if len(pieces) >= _FLUSH_PIECES:
                    flush()
            append(nl + "]")
        elif isinstance(o, _Pieces):
            append('"')
            for part in o:
                append(part)
                flush()
            append('"')
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    encode(doc, "\n")
    flush()


def _refuse_over_budget(flag: str, length: int, n: int) -> None:
    """Refuse up front a length whose words, all of which the command may
    iterate over, outnumber the word budget.  It needs only the 4+4n
    generators, so it runs before the build, which refuses an n below 1."""
    congruence = _module("congruence")
    count = congruence.count_over_budget(4 + 4 * n, length) if n >= 1 else None
    if count is not None:
        raise ValueError(
            f"{flag} {length} means {count} words of length <= {length} at "
            f"n={n}, over the budget of {congruence.DEFAULT_CAP} words"
        )


def _refuse_huge_n(n: int) -> None:
    """Refuse up front an n whose 4+4n generators, the words of length one,
    outnumber the word budget, before its presentation fills memory."""
    cap = _module("congruence").DEFAULT_CAP
    if 4 + 4 * n > cap:
        raise ValueError(
            f"-n {n} means {4 + 4 * n} generators, over the budget of {cap} words"
        )


def cmd_gen(args) -> int:
    pres = _presentation(args.n)
    in_order = lambda s: [g for g in pres.generators if g in s]
    relations = [(format_word(r.left), format_word(r.right)) for r in pres.relations]
    result = {
        "generators": list(pres.generators),
        "relations": [{"left": l, "right": r} for l, r in relations],
        "P": in_order(pres.p_set),
        "Q": in_order(pres.q_set),
        "L": [format_word(r.left) for r in pres.relations],
        "R": [format_word(r.right) for r in pres.relations],
    }
    lines = [f"n: {args.n}", "generators: " + " ".join(result["generators"])]
    lines.append("relations:")
    lines += [f"  {l} = {r}" for l, r in relations]
    lines.append("P: " + " ".join(result["P"]))
    lines.append("Q: " + " ".join(result["Q"]))
    lines.append("L: " + "; ".join(result["L"]))
    lines.append("R: " + "; ".join(result["R"]))
    _emit(args, "gen", result, [], "\n".join(lines))
    return 0


def cmd_nf(args) -> int:
    rewriting = _module("rewriting")
    pres = _presentation(args.n)
    nf = format_word(rewriting.left_normal_form(parse_word(args.word, pres), pres))
    _emit(args, "nf", {"input": args.word, "normal_form": nf}, [], nf)
    return 0


def cmd_eq(args) -> int:
    if len(args.word) != 2:
        raise PresentationError("eq needs exactly two -w words")
    rewriting = _module("rewriting")
    pres = _presentation(args.n)
    nf1 = rewriting.left_normal_form(parse_word(args.word[0], pres), pres)
    nf2 = rewriting.left_normal_form(parse_word(args.word[1], pres), pres)
    same = nf1 == nf2
    result = {"equal": same, "nf1": format_word(nf1), "nf2": format_word(nf2)}
    _emit(args, "eq", result, [], "true" if same else "false")
    return 0 if same else 1


def cmd_divides(args) -> int:
    rewriting = _module("rewriting")
    pres = _presentation(args.n)
    p = parse_word(args.p, pres)
    q = parse_word(args.q, pres)
    witness = rewriting.left_divides(p, q, pres)
    found = witness is not None
    result = {"divides": found, "witness": format_word(witness) if found else None}
    _emit(args, "divides", result, [], format_word(witness) if found else "none")
    return 0 if found else 1


def cmd_intersect(args) -> int:
    rewriting = _module("rewriting")
    pres = _presentation(args.n)
    p = rewriting.left_normal_form(parse_word(args.p, pres), pres)
    q = rewriting.left_normal_form(parse_word(args.q, pres), pres)
    res = _module("ideals").intersect_principal(p, q, pres)
    result = {
        "kind": res.kind,
        "provenance": res.provenance,
        "generators": [format_word(g) for g in res.generators],
    }
    lines = [f"kind: {res.kind}", f"provenance: {res.provenance}"]
    if res.generators:
        lines.append("generators:")
        lines += [f"  {g}" for g in result["generators"]]
    _emit(args, "intersect", result, [], "\n".join(lines))
    return 0


def cmd_ball(args) -> int:
    """Build the ball and write its counts, and its DOT to --dot FILE or,
    given --dot -, as the output.  The DOT is written from
    cayley.dot_pieces in bounded joins, never held as one string.  For
    --dot - in JSON the pieces are built with \\" and \\n for each quote
    and line break, so they are the DOT as JSON escapes it: every other
    character is a name's or a label's, and the family's tokens are
    letters and digits, which JSON writes as themselves."""
    _refuse_over_budget("--radius", args.radius, args.n)
    cayley = _module("cayley")
    pres = _presentation(args.n)
    root = _module("rewriting").left_normal_form(parse_word(args.root, pres), pres)
    ball = cayley.build_ball(root, args.radius, pres)
    dot = None
    if args.dot is not None:
        escaped = args.dot == "-" and args.format == "json"
        quote, nl = ('\\"', "\\n") if escaped else ('"', "\n")
        dot = _Pieces(cayley.dot_pieces(ball, quote, nl))
    vertices, edges = len(ball.names), ball.edge_count
    del ball  # the DOT's pieces need its room
    dot_path = None
    if args.dot is not None and args.dot != "-":
        with open(args.dot, "w") as out:
            out.writelines(dot)
        dot_path = args.dot
    result = {
        "root": format_word(root),
        "radius": args.radius,
        "vertex_count": vertices,
        "edge_count": edges,
        "dot_path": dot_path,
    }
    if args.dot == "-":
        result["dot"] = text = dot
        if args.format == "text":
            dot.pieces.pop()  # the last line's break: _emit writes it
    else:
        text = (
            f"root: {result['root']}\nradius: {args.radius}\n"
            f"vertices: {vertices}\nedges: {edges}"
        )
        if dot_path is not None:
            text += f"\ndot: {dot_path}"
    _emit(args, "ball", result, [], text)
    return 0


def cmd_verify(args) -> int:
    for flag, value in (("--max-len", args.max_len), ("--samples", args.samples)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    _refuse_over_budget("--max-len", args.max_len, args.n)
    pres = _presentation(args.n)
    max_len = args.max_len
    summary = {"suite": args.suite, "max_len": max_len}
    if args.suite == "nf-oracle":
        violations = _module("congruence").partition_agreement(pres, max_len)
    elif args.suite == "cancellative":
        violations = _module("rewriting").cancellativity_violations(
            pres, max_len, max(1, max_len - 1)
        )
        summary["factor_len"] = max(1, max_len - 1)
    elif args.suite == "codet":
        violations = _module("cayley").codeterminism_violations(pres, max_len)
    elif args.suite == "indegree":
        violations = _module("cayley").indegree_violations(pres, max_len)
    else:
        window = args.window if args.window is not None else max_len + 3
        report = _module("ideals").verify_alignment(
            pres, max_len, args.samples, window, seed=args.seed
        )
        violations = list(report.violations)
        summary.update(report.to_dict())
    ok = not violations
    lines = [f"suite: {args.suite}", f"n: {args.n}", f"max_len: {max_len}"]
    if args.suite == "alignment":
        lines.append(f"pairs: {summary['pair_count']}")
        lines.append(f"max generators: {summary['max_generators']}")
        lines.append(f"non-principal pairs: {len(summary['non_principal'])}")
        for entry in summary["non_principal"]:
            lines.append(
                f"  ({entry['p']}; {entry['q']}) -> "
                + ", ".join(entry["generators"])
            )
        lines.append(
            f"oracle: {summary['sampled']} sampled pairs, window "
            f"{summary['window']}, seed {summary['seed']}"
        )
    lines += [f"violation: {v}" for v in violations]
    lines.append(f"violations: {len(violations)}")
    _emit(args, "verify", summary, violations, "\n".join(lines))
    return 0 if ok else 1


def cmd_obstruct(args) -> int:
    group_derivation = _module("group_derivation")
    pres = _presentation(args.n)
    cert = group_derivation.verify_obstruction(pres)
    text = (
        group_derivation.certificate_text(cert, pres)
        if args.format == "text"
        else None
    )
    _emit(args, "obstruct", cert.to_dict() if text is None else None, [], text)
    return 0


def _command_line(args) -> str:
    """The command and, for verify, the suite and size that ran out."""
    if args.command == "verify":
        return f"verify -n {args.n} --suite {args.suite} --max-len {args.max_len}"
    return f"{args.command} -n {args.n}"


def run(argv=None) -> int:
    """Run one command in-process and return its exit code.

    An argv that starts with a command name is parsed by that command's
    parser alone, and its leftover tokens are refused by the top-level
    parser, with the message and exit code that parsing the whole argv
    there gives; the top-level parser would pass the same tail to the same
    parser after scanning every token itself.  Any other argv (empty, -h,
    an unknown command, an option before the command) goes to the
    top-level parser.  Either way one argparse tree parses the argv.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            args.command = argv[0]
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _refuse_huge_n(args.n)
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"resource limit: {exc} ({_command_line(args)})", file=sys.stderr)
        return 4
    except MemoryError:
        print(f"resource limit: out of memory ({_command_line(args)})", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader closed the pipe, as head does: stop without a message
        return 141
    except (ValueError, OSError) as exc:
        # PresentationError, WindowTooSmall, bad radius, unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    code = run(argv)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = 141
    if code == 141:
        # as in the Python docs' note on SIGPIPE: with fd 1 on devnull, the
        # flush at interpreter exit has no closed pipe left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    main()
