"""Right Cayley graph fragments: balls, predecessors, and structure checks.

Edges are u --x--> ux for generators x.  Relations preserve length, so the
graph is graded by word length and acyclic; cancellativity makes it
co-deterministic, and the vertices with in-degree at least two are exactly
the intersection bases (normal form ending in a left-hand relation word).

Predecessors are read off the normal form, with no search, and depend only
on its tail: its last letter, or its last two when they form an L word.
The codet and indegree suites check each edge by reduction and their total
by a count.  When every tail's predecessors are the standard ones and pass
the suite's verdict, the elements and the bases, built from shorter
elements, are reduced as joined code-point texts (see rewriting).
Otherwise every element is walked plainly: its predecessors are read off
it, and each edge is reduced, a batch of elements at a time, and named if
it fails.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .presentation import Presentation, Word
from .rewriting import _Codec, _normal_forms, is_intersection_base

__all__ = [
    "CayleyBall",
    "build_ball",
    "codeterminism_violations",
    "export_dot",
    "indegree_violations",
    "predecessors",
]


class CayleyBall(NamedTuple):
    """All vertices reachable from root in at most radius steps, with every
    edge of the graph between them.  Vertices are normal forms, in BFS
    discovery order.

    The edges are not stored.  Their sources are vertices[:sources], the
    vertices short of the radius, and every source u has one edge per
    generator x, to u[:-1] followed by steps[u[-1:]][i] for x the i-th
    generator: the boundary step of u's last letter (see build_ball)."""

    root: Word
    radius: int
    vertices: tuple
    sources: int
    generators: tuple
    steps: dict  # last letter (or () at the identity) -> steps in generator order

    @property
    def edge_count(self) -> int:
        return self.sources * len(self.generators)

    @property
    def edges(self) -> tuple:
        """Every (source, label Letter, target), sources in BFS order and
        labels in generator order."""
        return tuple(
            (u, x, u[:-1] + step)
            for u in self.vertices[: self.sources]
            for x, step in zip(self.generators, self.steps[u[-1:]])
        )


def build_ball(root: Word, radius: int, pres: Presentation) -> CayleyBall:
    """Breadth-first exploration of the out-ball around the normal form root.

    Each edge target is one boundary step, not a reduction pass: for a
    normal form u, the normal form of u x is u[:-1] followed by the pair
    u[-1] x, or by its L partner when that pair is an R word.  The steps of
    a last letter are looked up once, at the first level where it ends a
    source.  A root that is not a normal form gives a wrong ball.

    Every target is one letter longer than its source, so a level's targets
    are new to the levels before it and can only repeat among themselves:
    the next level is the targets with repeats dropped, in discovery order.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    rewrite = pres.rewrite_map
    generators = pres.generators
    steps = {}
    vertices = [root]
    start = 0  # the current level is vertices[start:]
    for _ in range(radius):
        level = vertices[start:]
        start = len(vertices)
        for tail in {u[-1:] for u in level}.difference(steps):
            steps[tail] = tuple(
                rewrite.get(tail + (x,), tail + (x,)) for x in generators
            )
        targets = [
            head + step
            for u in level
            for head in (u[:-1],)
            for step in steps[u[-1:]]
        ]
        vertices += dict.fromkeys(targets)
    return CayleyBall(root, radius, tuple(vertices), start, generators, steps)


def predecessors(v: Word, pres: Presentation) -> frozenset:
    """All (u, x) with u x = v, read off the normal form v.

    Reducing u x for a normal form u rewrites at most the pair across the
    boundary, an R word into its L partner.  So u x = v either leaves the
    word as it is, u = v[:-1] and x = v[-1], or v ends in an L word and
    u[-1] x is one of its R partners r: u = v[:-2] + r[:1] and x = r[1].
    Both u are normal forms: they end in a P letter, and R words end in Q.
    """
    return frozenset(_predecessors(v, pres.partners))


def _predecessors(v, partners) -> tuple:
    """The pairs of predecessors(v) in a fixed order: (v[:-1], v[-1]), then
    one pair per R partner of v[-2:], in presentation order.  v, partners
    and the pairs are all spelled alike: as Words, or as code-point strings
    (see the rewriting module)."""
    if not v:
        return ()
    edges = ((v[:-1], v[-1]),)
    for r in partners.get(v[-2:], ()):
        edges += ((v[:-2] + r[:1], r[1]),)
    return edges


def export_dot(ball: CayleyBall) -> str:
    """Serialize a ball in DOT format.

    Node names are quoted ('.'-joined tokens are not bare DOT identifiers);
    vertices appear in BFS order and edges sorted by source name then label,
    so equal balls export to identical strings.  A vertex is named by its
    normal form's tokens joined by '.', the identity by '1'.

    Names are injective, so the edges are sorted by sorting the sources
    alone.  Every edge line of a source u shares the prefix up to the
    target's name of u[:-1]; the rest depends only on u[-1:] and the label,
    and is written once per last letter, in label order.  Each source's
    lines are then one join.
    """
    gens = ball.generators
    order = sorted(range(len(gens)), key=gens.__getitem__)  # label order
    suffixes = {
        tail: [f'{".".join(row[i])}" [label="{gens[i]}"];' for i in order]
        for tail, row in ball.steps.items()
    }
    # only the root can be the identity: every other vertex is longer
    names = [".".join(ball.root) or "1", *map(".".join, ball.vertices[1:])]
    parts = ["digraph cayley {", '  "' + '";\n  "'.join(names) + '";']
    # the sources are the first vertices; only their names are kept
    sources = sorted(zip(names, ball.vertices[: ball.sources]))
    del names
    for source, u in sources:
        # the target's name up to its step: source less u's last token
        prefix = f'  "{source}" -> "{source[: -len(u[-1])] if u else ""}'
        parts.append(prefix + ("\n" + prefix).join(suffixes[u[-1:]]))
    parts.append("}\n")
    return "\n".join(parts)


# elements, or heads of bases, per joined text: bounds what one text holds
_BATCH = 4096


def _predecessor_sweep(pres: Presentation, max_len: int, codec, verdict):
    """Check the predecessors of every element v of length <= max_len,
    spelled by codec, and return the violations.  Sound: each (u, x)
    reduces to v.  Complete, checked after the last element: they number G
    per element shorter than max_len, since every edge out of one enters a
    swept element, and sound predecessors of distinct elements are distinct
    edges.  verdict(v, pairs) gives the suite's own messages on v's pairs.

    The closed form depends only on v's tail: v[-2:] when that is an L word
    and v[-1:] otherwise (the identity's is itself).  The pairs of
    _predecessors(v) are (h + u, x) for the pairs (u, x) of
    _predecessors(tail), in order, where h is v less its tail.  So the
    tails are the identity, every letter (at max_len >= 1) and every L word
    (at max_len >= 2).  A pair is kept as its edge word u x: its label x is
    one letter.

    When every tail's edge words are the tail and then its R partners, and
    no verdict on a tail fails, the edge words are the elements and, at
    each base h + w, h + r for each R partner r of the L word w.  So no
    element is sliced: each _BATCH of elements, joined, must reduce to
    itself, and each _BATCH of h + r to the joined h + w.  Otherwise, or
    when a text disagrees, every element v is walked plainly: its pairs
    read off v itself, each edge word named if it does not reach v, then
    v's verdict.  The walk reduces the edge words of each _BATCH of
    elements as one joined text, whose words come back in order."""
    partners = {  # L word -> its R partners, read only from max_len 2 on
        a + b: rs
        for (a, b), rs in (codec.partners.items() if max_len >= 2 else ())
        if a + b not in codec.rewrite
    }
    letters = list(codec.letter) if max_len >= 1 else []
    clean = all(
        [u + x for u, x in pairs] == ([tail, *partners.get(tail, ())] if tail else [])
        and not verdict(tail, pairs)
        for tail in ["", *letters, *partners]
        for pairs in [_predecessors(tail, partners)]
    )
    spelled = _normal_forms(pres, max_len, codec.encode)
    # the bases are the elements shorter than max_len - 1, each followed by
    # each L word: no R word ends in the P letter that begins an L word
    heads = spelled[: bisect_left(spelled, max_len - 1, key=len)]
    # (r, w, words): each of words followed by r must reduce to it followed
    # by w.  They hold every edge word, and the identity, which is none
    checks = [("", "", spelled)]
    checks += [(r, w, heads) for w, rs in partners.items() for r in rs]
    clean = clean and all(
        codec.reduce_text((r + "\n").join(batch) + r) == (w + "\n").join(batch) + w
        for r, w, words in checks
        for start in range(0, len(words), _BATCH)
        for batch in [words[start : start + _BATCH]]
    )

    violations = []
    found = sum(len(words) for *_, words in checks) - 1 if clean else 0
    for start in () if clean else range(0, len(spelled), _BATCH):  # the plain walk
        batch = spelled[start : start + _BATCH]
        edges = [_predecessors(v, partners) for v in batch]
        joined = "\n".join(u + x for pairs in edges for u, x in pairs)
        targets = iter(codec.reduce_joined(joined))
        for v, pairs in zip(batch, edges):
            found += len(pairs)
            for (u, x), target in zip(pairs, targets):
                if target != v:
                    violations.append(
                        f"edge {codec.name(u)} --{codec.letter[x]}--> "
                        f"reaches {codec.name(target)}, not {codec.name(v)}"
                    )
            violations += verdict(v, pairs)
    # the elements come in element_key order, the shorter ones first
    expected = len(pres.generators) * bisect_left(spelled, max_len, key=len)
    if found != expected:
        violations.append(f"{found} incoming edges found, expected {expected}")
    return violations


def codeterminism_violations(pres: Presentation, max_len: int):
    """Check co-determinism for every element of length <= max_len."""
    codec = _Codec(pres)

    def verdict(v, pairs):
        if len(pairs) > 1 and len({x for _, x in pairs}) != len(pairs):
            return [f"duplicate incoming label at {codec.name(v)}"]
        return []

    return _predecessor_sweep(pres, max_len, codec, verdict)


def indegree_violations(pres: Presentation, max_len: int):
    """Check, for every element of length <= max_len, that in-degree >= 2
    holds exactly at intersection bases and that incoming labels of bases
    lie in Q.  Every edge increases length by one, since relations preserve
    length and every predecessor is checked to reduce to its element.  An
    element is a base exactly when its last two letters are."""
    codec = _Codec(pres)

    def verdict(v, pairs):
        base = len(v) >= 2 and is_intersection_base(codec.decode(v[-2:]), pres)
        found = []
        if (len(pairs) >= 2) != base:
            found.append(
                f"{codec.name(v)}: in-degree {len(pairs)} but "
                f"intersection base is {base}"
            )
        if base and any(codec.letter[x] not in pres.q_set for _, x in pairs):
            found.append(f"{codec.name(v)}: incoming label outside Q at a base")
        return found

    return _predecessor_sweep(pres, max_len, codec, verdict)
