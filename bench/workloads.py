"""Workloads of the malcev benchmark and the reference that checks their answers.

A workload is a function ``(seed, pass_no) -> list[Command]``.  Every command
is a ``malcev`` argv run through ``malcev.cli.run`` with ``--format json``, and
carries a check that judges its exit code and output.  The checks use only the
code in this file: the family's relations are written out again from the
paper's definition, and normal forms, divisibility, intersections and element
counts are recomputed here, so a fault in the package cannot hide itself.

Every pass of a run draws fresh inputs from ``(workload, seed, pass_no)``, so
a cache in the program sees repeated inputs only where a real user would.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

# n values each workload touches; the worker builds these presentations
# during set-up, before it reports ready.
PRESENTATION_N = {
    "align": (2, 3),
    "oracle": (1,),
    "structure": (3,),
    "queries": (1, 2, 3, 5),
}

# queries: exact command counts per 2,000-command pass.  The deep divides
# ``d | (d a)^k`` is the slowest query; with 27 at k=11 out of 2,000, the p99
# (the 20th slowest) falls inside the k=11 group, not at a size boundary.
QUERY_MIX = (
    ("nf", 620),
    ("eq", 400),
    ("divides", 400),
    ("intersect", 360),
    ("ball", 80),
    ("obstruct", 60),
    ("deep9", 26),
    ("deep10", 27),
    ("deep11", 27),
)
QUERY_NS = (1, 2, 3, 5)


class Family:
    """Reference model of M_n on token strings, independent of the package.

    Relations pair a left word L with a right word R; the normal form
    replaces every R factor by its L partner in one left-to-right pass.
    """

    def __init__(self, n: int):
        self.n = n
        idx = range(1, n + 1)
        self.generators = (
            ["a", "b", "c", "d"]
            + [f"{k}{i}" for k in "ABCD" for i in idx]
        )
        rels = [(("d", "a"), ("A1", "C1"))]
        rels += [((f"A{i}", f"D{i}"), (f"A{i+1}", f"C{i+1}")) for i in range(1, n)]
        rels.append(((f"A{n}", f"D{n}"), ("d", "b")))
        rels.append((("c", "b"), (f"B{n}", f"D{n}")))
        rels += [
            ((f"B{i+1}", f"C{i+1}"), (f"B{i}", f"D{i}")) for i in range(n - 1, 0, -1)
        ]
        self.relations = rels
        self.r_to_l = {right: left for left, right in rels}
        self.l_to_r = {left: right for left, right in rels}
        self.q_letters = sorted({w[1] for rel in rels for w in rel})

    def nf(self, w) -> tuple:
        out = list(w)
        i = 0
        while i < len(out) - 1:
            left = self.r_to_l.get((out[i], out[i + 1]))
            if left is None:
                i += 1
            else:
                out[i], out[i + 1] = left
                i += 2
        return tuple(out)

    def divides(self, p, q) -> bool:
        """Left divisibility of normal forms: reducing p·w can rewrite only
        the pair at the boundary, so q either starts with p or has, at
        position |p|-1, an L word whose R partner starts with p's last letter."""
        p, q = self.nf(p), self.nf(q)
        k = len(p)
        if q[:k] == p:
            return True
        if k == 0 or len(q) <= k or q[: k - 1] != p[:-1]:
            return False
        right = self.l_to_r.get(q[k - 1 : k + 1])
        return right is not None and right[0] == p[-1]

    def intersection(self, p, q) -> tuple:
        """Generators of pM ∩ qM as normal forms: the divisible side when one
        divides the other, else the shared one-letter Q extensions."""
        p, q = self.nf(p), self.nf(q)
        if self.divides(p, q):
            return (q,)
        if self.divides(q, p):
            return (p,)
        p_ext = {self.nf(p + (x,)) for x in self.q_letters}
        q_ext = {self.nf(q + (y,)) for y in self.q_letters}
        return tuple(sorted(p_ext & q_ext))

    def count_elements(self, max_len: int) -> int:
        """Number of elements of length <= max_len: words with no R factor."""
        ends = {x: 1 for x in self.generators}
        total = 1
        for length in range(1, max_len + 1):
            if length > 1:
                ends = {
                    y: sum(c for x, c in ends.items() if (x, y) not in self.r_to_l)
                    for y in self.generators
                }
            total += sum(ends.values())
        return total

    def random_word(self, rng: random.Random, length: int) -> tuple:
        return tuple(rng.choice(self.generators) for _ in range(length))

    def scramble(self, rng: random.Random, w: tuple, steps: int) -> tuple:
        """An equal word: apply up to `steps` random relations in either direction."""
        w = list(w)
        partner = {**self.r_to_l, **self.l_to_r}
        for _ in range(steps):
            sites = [i for i in range(len(w) - 1) if (w[i], w[i + 1]) in partner]
            if not sites:
                break
            i = rng.choice(sites)
            w[i], w[i + 1] = partner[(w[i], w[i + 1])]
        return tuple(w)


family = functools.cache(Family)


def text(w) -> str:
    return " ".join(w) if w else "1"


def tokens(s: str) -> tuple:
    return () if s.strip() == "1" else tuple(s.split())


@dataclass
class Command:
    argv: list
    check: Callable[[int, dict], Optional[str]]  # (exit code, parsed json) -> error


def _cmd(argv, check, expect_code=0):
    """Wrap a check on the JSON document with the expected exit code."""

    def judge(code, doc):
        if code != expect_code:
            return f"exit {code}, expected {expect_code}"
        if doc is None:
            return "no JSON output"
        return check(doc)

    return Command(argv + ["--format", "json"], judge)


def _verify(n, suite, max_len, extra=(), expect=None):
    """`verify` must exit 0 with no violations; `expect` adds field checks."""
    argv = ["verify", "-n", str(n), "--suite", suite, "--max-len", str(max_len)]

    def check(doc):
        if doc["violations"]:
            return f"violations: {doc['violations'][:3]}"
        res = doc["result"]
        if res["suite"] != suite or res["max_len"] != max_len:
            return f"wrong suite echo {res['suite']} {res['max_len']}"
        return expect(res) if expect else None

    return _cmd(argv + list(extra), check)


def _alignment(n, max_len, window, samples, seed):
    fam = family(n)
    pairs = fam.count_elements(max_len) ** 2
    bound = 2 if n == 1 else 1

    def expect(res):
        got = (res["pair_count"], res["max_generators"], res["sampled"])
        want = (pairs, bound, min(samples, pairs))
        if got != want:
            return f"(pair_count, max_generators, sampled) = {got}, expected {want}"
        return None

    extra = ["--window", str(window), "--samples", str(samples), "--seed", str(seed)]
    return _verify(n, "alignment", max_len, extra, expect)


def _rng(workload: str, seed: int, pass_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_no}")


def align(seed: int, pass_no: int) -> list:
    rng = _rng("align", seed, pass_no)
    return [_alignment(n, 2, 3, 50, rng.randrange(2**31)) for n in (2, 3)]


def oracle(seed: int, pass_no: int) -> list:
    # Every pair is checked: a sample's cost hinges on how many pairs contain
    # the identity, whose ideal dwarfs the others, so sampled passes vary 2x.
    rng = _rng("oracle", seed, pass_no)
    pairs = family(1).count_elements(2) ** 2
    return [_alignment(1, 2, 4, pairs, rng.randrange(2**31))]


def _ball(n, root, radius, dot):
    fam = family(n)
    vertices = fam.count_elements(radius)
    edges = fam.count_elements(radius - 1) * len(fam.generators) if radius else 0
    argv = ["ball", "-n", str(n), "--root", text(root), "--radius", str(radius)]

    def check(doc):
        res = doc["result"]
        # left cancellativity: root·w is a distinct vertex for each element w
        got = (res["root"], res["vertex_count"], res["edge_count"])
        want = (text(fam.nf(root)), vertices, edges)
        if got != want:
            return f"(root, vertices, edges) = {got}, expected {want}"
        if dot and res["dot"].count("\n") != vertices + edges + 2:
            return "DOT line count disagrees with the vertex and edge counts"
        return None

    return _cmd(argv + (["--dot", "-"] if dot else []), check)


def structure(seed: int, pass_no: int) -> list:
    rng = _rng("structure", seed, pass_no)
    root = family(3).random_word(rng, 2)
    return [
        _verify(3, "cancellative", 3),
        _verify(3, "codet", 4),
        _verify(3, "indegree", 4),
        _verify(3, "nf-oracle", 4),
        _ball(3, root, 4, dot=True),
    ]


def _nf(n, w):
    want = text(family(n).nf(w))

    def check(doc):
        got = doc["result"]["normal_form"]
        return None if got == want else f"normal form {got}, expected {want}"

    return _cmd(["nf", "-n", str(n), "-w", text(w)], check)


def _eq(n, w1, w2):
    fam = family(n)
    nf1, nf2 = text(fam.nf(w1)), text(fam.nf(w2))
    same = nf1 == nf2

    def check(doc):
        res = doc["result"]
        got = (res["equal"], res["nf1"], res["nf2"])
        return None if got == (same, nf1, nf2) else f"{got}, expected {(same, nf1, nf2)}"

    argv = ["eq", "-n", str(n), "-w", text(w1), "-w", text(w2)]
    return _cmd(argv, check, expect_code=0 if same else 1)


def _divides(n, p, q):
    fam = family(n)
    found = fam.divides(p, q)

    def check(doc):
        res = doc["result"]
        if res["divides"] != found:
            return f"divides {res['divides']}, expected {found}"
        if found and fam.nf(p + tokens(res["witness"])) != fam.nf(q):
            return f"p·witness != q for witness {res['witness']}"
        return None

    argv = ["divides", "-n", str(n), "-p", text(p), "-q", text(q)]
    return _cmd(argv, check, expect_code=0 if found else 1)


def _intersect(n, p, q):
    fam = family(n)
    gens = sorted(text(g) for g in fam.intersection(p, q))
    kind = {0: "empty", 1: "principal", 2: "generators"}[len(gens)]

    def check(doc):
        res = doc["result"]
        got = (res["kind"], sorted(res["generators"]))
        return None if got == (kind, gens) else f"{got}, expected {(kind, gens)}"

    return _cmd(["intersect", "-n", str(n), "-p", text(p), "-q", text(q)], check)


def _obstruct(n):
    fam = family(n)
    witness = [text(fam.nf(("c", "a"))), text(fam.nf(("B1", "C1")))]

    def check(doc):
        res = doc["result"]
        if res["monoid_witness"] != witness or witness[0] == witness[1]:
            return f"monoid witness {res['monoid_witness']}, expected {witness}"
        if res["step_count"] != len(res["steps"]) or not res["steps"]:
            return "empty or inconsistent derivation script"
        return None

    return _cmd(["obstruct", "-n", str(n)], check)


def _query(kind: str, rng: random.Random) -> Command:
    if kind.startswith("deep"):
        k = int(kind[4:])
        return _divides(1, ("d",), ("d", "a") * k)
    n = rng.choice(QUERY_NS)
    fam = family(n)
    word = lambda lo, hi: fam.random_word(rng, rng.randint(lo, hi))
    if kind == "nf":
        return _nf(n, word(8, 64))
    if kind == "eq":
        w = word(8, 32)
        other = fam.scramble(rng, w, 4) if rng.random() < 0.5 else word(8, 32)
        return _eq(n, w, other)
    if kind == "divides":
        p = word(1, 6)
        q = p + word(0, 10) if rng.random() < 0.5 else word(1, 12)
        return _divides(n, p, fam.scramble(rng, q, 3))
    if kind == "intersect":
        shape = rng.randrange(3)
        if shape == 0:
            # a common multiple u L = u R through one relation: base-search
            left, right = rng.choice(fam.relations)
            u = word(0, 3)
            return _intersect(n, u + left[:1], u + right[:1])
        p = word(1, 4)
        q = p + word(1, 3) if shape == 1 else word(1, 4)
        return _intersect(n, p, q)
    if kind == "ball":
        return _ball(n, word(0, 3), 2, dot=False)
    if kind == "obstruct":
        return _obstruct(n)
    raise ValueError(kind)


def queries(seed: int, pass_no: int) -> list:
    rng = _rng("queries", seed, pass_no)
    kinds = [kind for kind, count in QUERY_MIX for _ in range(count)]
    rng.shuffle(kinds)
    return [_query(kind, rng) for kind in kinds]


WORKLOADS = {
    "align": align,
    "oracle": oracle,
    "structure": structure,
    "queries": queries,
}


def judge(command: Command, code, stdout: str) -> Optional[str]:
    """Error string for a wrong answer, None for a correct one."""
    try:
        doc = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        return f"exit {code}, output is not JSON"
    try:
        return command.check(code, doc)
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed result: {type(exc).__name__}: {exc}"
