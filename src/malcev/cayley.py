"""Right Cayley graph fragments: balls, predecessors, and structure checks.

Edges are u --x--> ux for generators x.  Relations preserve length, so the
graph is graded by word length and acyclic; cancellativity makes it
co-deterministic, and the vertices with in-degree at least two are exactly
the intersection bases (normal form ending in a left-hand relation word).

Predecessors are read off the normal form, with no search; the codet and
indegree suites check each one by reduction and their total by a count.
The reductions run in batches of joined code-point strings (see the
rewriting module), and an edge is named only when its batch disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import Presentation, Word, format_word
from .rewriting import (
    _Codec,
    _normal_forms,
    enumerate_elements,
    is_intersection_base,
)

__all__ = [
    "CayleyBall",
    "build_ball",
    "codeterminism_violations",
    "export_dot",
    "indegree_violations",
    "predecessors",
]


@dataclass(frozen=True)
class CayleyBall:
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


# elements per batch of edge words: bounds the joined text a batch holds
_BATCH = 4096


def _predecessor_sweep(pres: Presentation, max_len: int, codec, violations):
    """Yield every element v of length <= max_len with its predecessors,
    spelled by codec, computed once and checked twice, appending to
    violations.  Sound: each (u, x) reduces to v.  Complete, checked after
    the last element: they number G per element shorter than max_len, since
    every edge out of one enters a swept element, and sound predecessors of
    distinct elements are distinct edges.

    The elements go in batches of _BATCH: every edge word u x of a batch is
    reduced in one joined string, and the results are compared with the
    batch's elements, one per edge, as one list.  Only when the lists
    differ are the edges named, in the fixed order of _predecessors."""
    # partners are read only at elements of length >= 2
    code = codec.code
    partners = {  # relation words have two letters
        code[a] + code[b]: [code[c] + code[d] for c, d in rs]
        for (a, b), rs in (pres.partners.items() if max_len >= 2 else ())
    }
    elements = enumerate_elements(pres, max_len)
    spelled = _normal_forms(pres, max_len, codec.encode)
    found = 0
    for start in range(0, len(elements), _BATCH):
        batch = spelled[start : start + _BATCH]
        preds = [_predecessors(s, partners) for s in batch]
        words = [u + x for edges in preds for u, x in edges]
        ends = [s for s, edges in zip(batch, preds) for _ in edges]
        targets = codec.reduce_joined("\n".join(words)) if words else []
        found += len(words)
        if targets == ends:
            yield from zip(elements[start : start + _BATCH], preds)
            continue
        reached = iter(targets)
        for v, s, edges in zip(elements[start : start + _BATCH], batch, preds):
            for (u, x), target in zip(edges, reached):
                if target != s:
                    violations.append(
                        f"edge {format_word(codec.decode(u))} "
                        f"--{codec.letter[x]}--> reaches "
                        f"{format_word(codec.decode(target))}, not {format_word(v)}"
                    )
            yield v, edges
    sources = sum(len(v) < max_len for v in elements)
    expected = len(pres.generators) * sources
    if found != expected:
        violations.append(f"{found} incoming edges found, expected {expected}")


def codeterminism_violations(pres: Presentation, max_len: int):
    """Check co-determinism for every element of length <= max_len."""
    violations = []
    for v, preds in _predecessor_sweep(pres, max_len, _Codec(pres), violations):
        if len(preds) > 1 and len({x for _, x in preds}) != len(preds):
            violations.append(f"duplicate incoming label at {format_word(v)}")
    return violations


def indegree_violations(pres: Presentation, max_len: int):
    """Check, for every element of length <= max_len, that in-degree >= 2
    holds exactly at intersection bases and that incoming labels of bases
    lie in Q.  Every edge increases length by one, since relations preserve
    length and every predecessor is checked to reduce to its element."""
    codec = _Codec(pres)
    violations = []
    for v, preds in _predecessor_sweep(pres, max_len, codec, violations):
        base = is_intersection_base(v, pres)
        if (len(preds) >= 2) != base:
            violations.append(
                f"{format_word(v)}: in-degree {len(preds)} but "
                f"intersection base is {base}"
            )
        if base and any(codec.letter[x] not in pres.q_set for _, x in preds):
            violations.append(
                f"{format_word(v)}: incoming label outside Q at a base"
            )
    return violations
