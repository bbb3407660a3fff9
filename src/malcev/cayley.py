"""Right Cayley graph fragments: balls, predecessors, and structure checks.

Edges are u --x--> ux for generators x.  Relations preserve length, so the
graph is graded by word length and acyclic; cancellativity makes it
co-deterministic, and the vertices with in-degree at least two are exactly
the intersection bases (normal form ending in a left-hand relation word).

Predecessors are read off the normal form, with no search; the codet and
indegree suites check each one by reduction and their total by a count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import Presentation, Word, format_word
from .rewriting import enumerate_elements, is_intersection_base, reduce_word

__all__ = [
    "CayleyBall",
    "build_ball",
    "codeterminism_violations",
    "export_dot",
    "indegree_violations",
    "predecessors",
    "vertex_name",
]


@dataclass(frozen=True)
class CayleyBall:
    """All vertices reachable from root in at most radius steps, with every
    edge of the graph between them.  Vertices are normal forms, in BFS
    discovery order."""

    root: Word
    radius: int
    vertices: tuple
    edges: tuple  # (source, label Letter, target)


def build_ball(root: Word, radius: int, pres: Presentation) -> CayleyBall:
    """Breadth-first exploration of the out-ball around the normal form root.

    Each edge target is one boundary step, not a reduction pass: for a
    normal form u, the normal form of u x is u[:-1] followed by the pair
    u[-1] x, or by its L partner when that pair is an R word.  A root that
    is not a normal form gives a wrong ball.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    rewrite = pres.rewrite_map
    vertices = [root]
    seen = {root}
    edges = []
    frontier = [root]
    for _ in range(radius):
        next_frontier = []
        for u in frontier:
            head, tail = u[:-1], u[-1:]
            for x in pres.generators:
                pair = tail + (x,)
                v = head + rewrite.get(pair, pair)
                edges.append((u, x, v))
                if v not in seen:
                    seen.add(v)
                    vertices.append(v)
                    next_frontier.append(v)
        frontier = next_frontier
    return CayleyBall(root, radius, tuple(vertices), tuple(edges))


def predecessors(v: Word, pres: Presentation) -> frozenset:
    """All (u, x) with u x = v, read off the normal form v.

    Reducing u x for a normal form u rewrites at most the pair across the
    boundary, an R word into its L partner.  So u x = v either leaves the
    word as it is, u = v[:-1] and x = v[-1], or v ends in an L word and
    u[-1] x is one of its R partners r: u = v[:-2] + r[:1] and x = r[1].
    Both u are normal forms: they end in a P letter, and R words end in Q.
    """
    if not v:
        return frozenset()
    preds = {(v[:-1], v[-1])}
    for r in pres.partners.get(v[-2:], ()):
        preds.add((v[:-2] + r[:1], r[1]))
    return frozenset(preds)


def vertex_name(w: Word) -> str:
    """DOT node name: normal-form tokens joined by '.', identity as '1'."""
    if not w:
        return "1"
    return ".".join(letter.token for letter in w)


def export_dot(ball: CayleyBall, pres: Presentation) -> str:
    """Serialize a ball in DOT format.

    Node names are quoted ('.'-joined tokens are not bare DOT identifiers);
    vertices appear in BFS order and edges sorted by source name then label,
    so equal balls export to identical strings.  Tokens come from one table;
    each edge source is named once, in a dict over the sources only (the
    vertices short of the radius), and each target once per edge.
    """
    token = {g: g.token for g in pres.generators}

    def name(w: Word) -> str:
        return ".".join([token[x] for x in w]) if w else "1"

    lines = ["digraph cayley {"]
    lines += [f'  "{name(v)}";' for v in ball.vertices]
    source = {}
    for u, _, _ in ball.edges:
        if u not in source:
            source[u] = name(u)
    for u, x, v in sorted(ball.edges, key=lambda e: (source[e[0]], token[e[1]])):
        lines.append(f'  "{source[u]}" -> "{name(v)}" [label="{token[x]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _predecessor_sweep(pres: Presentation, max_len: int, violations: list):
    """Yield every element v of length <= max_len with its predecessors,
    computed once and checked twice, appending to violations.  Sound: each
    (u, x) reduces to v.  Complete, checked after the last element: they
    number G per element shorter than max_len, since every edge out of one
    enters a swept element, and sound predecessors of distinct elements are
    distinct edges."""
    found = sources = 0
    for v in enumerate_elements(pres, max_len):
        preds = predecessors(v, pres)
        for u, x in preds:
            target = reduce_word(u + (x,), pres)
            if target != v:
                violations.append(
                    f"edge {format_word(u)} --{x.token}--> reaches "
                    f"{format_word(target)}, not {format_word(v)}"
                )
        found += len(preds)
        sources += len(v) < max_len
        yield v, preds
    expected = len(pres.generators) * sources
    if found != expected:
        violations.append(f"{found} incoming edges found, expected {expected}")


def codeterminism_violations(pres: Presentation, max_len: int):
    """Check co-determinism for every element of length <= max_len."""
    violations = []
    for v, preds in _predecessor_sweep(pres, max_len, violations):
        if len({x for _, x in preds}) != len(preds):
            violations.append(f"duplicate incoming label at {format_word(v)}")
    return violations


def indegree_violations(pres: Presentation, max_len: int):
    """Check, for every element of length <= max_len, that in-degree >= 2
    holds exactly at intersection bases and that incoming labels of bases
    lie in Q.  Every edge increases length by one, since relations preserve
    length and every predecessor is checked to reduce to its element."""
    violations = []
    for v, preds in _predecessor_sweep(pres, max_len, violations):
        base = is_intersection_base(v, pres)
        if (len(preds) >= 2) != base:
            violations.append(
                f"{format_word(v)}: in-degree {len(preds)} but "
                f"intersection base is {base}"
            )
        if base and any(x not in pres.q_set for _, x in preds):
            violations.append(
                f"{format_word(v)}: incoming label outside Q at a base"
            )
    return violations
