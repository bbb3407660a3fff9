"""Command-line interface.

Exit codes: 0 success (or predicate true), 1 predicate false or verification
violations, 2 usage or input errors, 3 internal invariant violations, 4 a
resource limit: a search that ran out of its word budget (CapExceeded) or a
command that ran out of memory (MemoryError).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

from .cayley import (
    build_ball,
    codeterminism_violations,
    export_dot,
    indegree_violations,
)
from .congruence import (
    DEFAULT_CAP,
    CapExceeded,
    count_over_budget,
    partition_agreement,
)
from .group_derivation import (
    OccurrenceMismatch,
    certificate_text,
    verify_obstruction,
)
from .ideals import (
    DEFAULT_SEED,
    AlignmentViolation,
    intersect_principal,
    verify_alignment,
)
from .presentation import (
    Presentation,
    PresentationError,
    build_presentation,
    format_word,
    parse_word,
)
from .rewriting import cancellativity_violations, left_divides, left_normal_form

__all__ = ["main", "run"]

SUITES = ("nf-oracle", "cancellative", "codet", "indegree", "alignment")


def _add_common(sub):
    sub.add_argument("-n", type=int, required=True, help="family index (n >= 1)")
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub.add_argument("--output", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and reused after;
    callers must not modify it.

    Reuse is safe: parse_args makes a fresh Namespace on every call, and
    eq's append action copies its None default, so -w values do not pile up
    across calls.  The subcommands' handlers (cmd_*) are bound when the
    parser is built; the module globals they call, such as export_dot or
    verify_alignment, are still looked up at call time.  build_parser stays
    a plain function around the cached builder because bench/tracing.py
    wraps only plain functions; a functools.cache object would go uncounted.
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

    A presentation holds about 2 KiB per unit of n (tracemalloc, Python
    3.11: 11 KiB at n = 5, 24 MiB at n = 10,000), so the cache pins at most
    8 times the largest one asked for: under 2 MiB while n <= 100, and
    about 4 GiB at the largest n the CLI accepts, 249,999.
    """
    return build(n)


def _emit(args, command, result, violations, text) -> None:
    """Write text, or the JSON document as it is encoded, then a newline, to
    --output or stdout; each write joins up to 65,536 encoder chunks."""
    if args.format == "json":
        doc = {
            "command": command,
            "n": args.n,
            "result": result,
            "violations": list(violations),
        }
        chunks = json.JSONEncoder(indent=2).iterencode(doc)
    else:
        chunks = iter((text,))
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
        for group in iter(lambda: "".join(islice(chunks, 65536)), ""):
            out.write(group)
        out.write("\n")


def _refuse_over_budget(flag: str, length: int, n: int) -> None:
    """Refuse up front a length whose words, all of which the command may
    iterate over, outnumber the word budget.  It needs only the 4+4n
    generators, so it runs before the build, which refuses an n below 1."""
    count = count_over_budget(4 + 4 * n, length) if n >= 1 else None
    if count is not None:
        raise ValueError(
            f"{flag} {length} means {count} words of length <= {length} at "
            f"n={n}, over the budget of {DEFAULT_CAP} words"
        )


def _refuse_huge_n(n: int) -> None:
    """Refuse up front an n whose 4+4n generators, the words of length one,
    outnumber the word budget, before its presentation fills memory."""
    if 4 + 4 * n > DEFAULT_CAP:
        raise ValueError(
            f"-n {n} means {4 + 4 * n} generators, over the budget of "
            f"{DEFAULT_CAP} words"
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
    pres = _presentation(args.n)
    nf = format_word(left_normal_form(parse_word(args.word, pres), pres))
    _emit(args, "nf", {"input": args.word, "normal_form": nf}, [], nf)
    return 0


def cmd_eq(args) -> int:
    if len(args.word) != 2:
        raise PresentationError("eq needs exactly two -w words")
    pres = _presentation(args.n)
    nf1 = left_normal_form(parse_word(args.word[0], pres), pres)
    nf2 = left_normal_form(parse_word(args.word[1], pres), pres)
    same = nf1 == nf2
    result = {"equal": same, "nf1": format_word(nf1), "nf2": format_word(nf2)}
    _emit(args, "eq", result, [], "true" if same else "false")
    return 0 if same else 1


def cmd_divides(args) -> int:
    pres = _presentation(args.n)
    p = parse_word(args.p, pres)
    q = parse_word(args.q, pres)
    witness = left_divides(p, q, pres)
    found = witness is not None
    result = {"divides": found, "witness": format_word(witness) if found else None}
    _emit(args, "divides", result, [], format_word(witness) if found else "none")
    return 0 if found else 1


def cmd_intersect(args) -> int:
    pres = _presentation(args.n)
    p = left_normal_form(parse_word(args.p, pres), pres)
    q = left_normal_form(parse_word(args.q, pres), pres)
    res = intersect_principal(p, q, pres)
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
    _refuse_over_budget("--radius", args.radius, args.n)
    pres = _presentation(args.n)
    root = left_normal_form(parse_word(args.root, pres), pres)
    ball = build_ball(root, args.radius, pres)
    dot = export_dot(ball) if args.dot else None
    dot_path = None
    if args.dot and args.dot != "-":
        Path(args.dot).write_text(dot)
        dot_path = args.dot
    result = {
        "root": format_word(root),
        "radius": args.radius,
        "vertex_count": len(ball.vertices),
        "edge_count": ball.edge_count,
        "dot_path": dot_path,
    }
    if args.dot == "-":
        result["dot"] = dot
        # the copy rstrip makes of the whole DOT is read only as text
        text = dot.rstrip("\n") if args.format == "text" else None
    else:
        text = (
            f"root: {result['root']}\nradius: {args.radius}\n"
            f"vertices: {len(ball.vertices)}\nedges: {ball.edge_count}"
        )
        if dot_path:
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
        violations = partition_agreement(pres, max_len)
    elif args.suite == "cancellative":
        violations = cancellativity_violations(pres, max_len, max(1, max_len - 1))
        summary["factor_len"] = max(1, max_len - 1)
    elif args.suite == "codet":
        violations = codeterminism_violations(pres, max_len)
    elif args.suite == "indegree":
        violations = indegree_violations(pres, max_len)
    else:
        window = args.window if args.window is not None else max_len + 3
        report = verify_alignment(
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
    pres = _presentation(args.n)
    cert = verify_obstruction(pres)
    text = certificate_text(cert, pres) if args.format == "text" else None
    _emit(args, "obstruct", cert.to_dict() if text is None else None, [], text)
    return 0


def _command_line(args) -> str:
    """The command and, for verify, the suite and size that ran out."""
    if args.command == "verify":
        return f"verify -n {args.n} --suite {args.suite} --max-len {args.max_len}"
    return f"{args.command} -n {args.n}"


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _refuse_huge_n(args.n)
        return args.func(args)
    except (AlignmentViolation, OccurrenceMismatch) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"resource limit: {exc} ({_command_line(args)})", file=sys.stderr)
        return 4
    except MemoryError:
        print(f"resource limit: out of memory ({_command_line(args)})", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        # PresentationError, WindowTooSmall, bad radius, unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
