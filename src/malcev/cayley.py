"""Right Cayley graph fragments: balls, predecessors, and structure checks.

Edges are u --x--> ux for generators x.  Relations preserve length, so the
graph is graded by word length and acyclic; cancellativity makes it
co-deterministic, and the vertices with in-degree at least two are exactly
the intersection bases (normal form ending in a left-hand relation word).
"""

from __future__ import annotations

from dataclasses import dataclass

from .congruence import equality_class
from .presentation import Presentation, format_word
from .rewriting import Element, enumerate_elements, is_intersection_base, reduce_word

__all__ = [
    "CayleyBall",
    "build_ball",
    "check_codeterminism",
    "codeterminism_violations",
    "export_dot",
    "indegree_violations",
    "predecessors",
    "vertex_name",
]


@dataclass(frozen=True)
class CayleyBall:
    """All vertices reachable from root in at most radius steps, with every
    edge of the graph between them.  Vertices are in BFS discovery order."""

    root: Element
    radius: int
    vertices: tuple
    edges: tuple  # (source Element, label Letter, target Element)


def build_ball(root: Element, radius: int, pres: Presentation) -> CayleyBall:
    """Breadth-first exploration of the out-ball around root."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    vertices = [root]
    seen = {root.nf}
    edges = []
    frontier = [root]
    for _ in range(radius):
        next_frontier = []
        for u in frontier:
            for x in pres.generators:
                target = reduce_word(u.nf + (x,), pres)
                v = Element(target, pres)
                edges.append((u, x, v))
                if target not in seen:
                    seen.add(target)
                    vertices.append(v)
                    next_frontier.append(v)
        frontier = next_frontier
    return CayleyBall(root, radius, tuple(vertices), tuple(edges))


def predecessors(v: Element, pres: Presentation) -> frozenset:
    """All (u, x) with u x = v, computed from the full equality class of v.

    Every word equal to v arises as some word for u followed by x, so
    splitting each class member before its final letter finds every
    incoming edge of the whole graph, not just of a ball.
    """
    preds = set()
    for u in equality_class(v.nf, pres):
        if u:
            preds.add((Element(reduce_word(u[:-1], pres), pres), u[-1]))
    return frozenset(preds)


def check_codeterminism(v: Element, pres: Presentation) -> bool:
    """No two distinct predecessors of v share an edge label."""
    preds = predecessors(v, pres)
    return len({x for _, x in preds}) == len(preds)


def vertex_name(e: Element) -> str:
    """DOT node name: normal-form tokens joined by '.', identity as '1'."""
    if not e.nf:
        return "1"
    return ".".join(letter.token for letter in e.nf)


def export_dot(ball: CayleyBall) -> str:
    """Serialize a ball in DOT format.

    Node names are quoted ('.'-joined tokens are not bare DOT identifiers);
    vertices appear in BFS order and edges sorted by source name then label,
    so equal balls export to identical strings.
    """
    lines = ["digraph cayley {"]
    for v in ball.vertices:
        lines.append(f'  "{vertex_name(v)}";')
    for u, x, v in sorted(
        ball.edges, key=lambda edge: (vertex_name(edge[0]), edge[1].token)
    ):
        lines.append(f'  "{vertex_name(u)}" -> "{vertex_name(v)}" [label="{x.token}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def codeterminism_violations(pres: Presentation, max_len: int):
    """Check co-determinism for every element of length <= max_len."""
    violations = []
    for e in enumerate_elements(pres, max_len):
        if not check_codeterminism(e, pres):
            violations.append(f"duplicate incoming label at {format_word(e.nf)}")
    return violations


def indegree_violations(pres: Presentation, max_len: int):
    """Check, for every element of length <= max_len, that in-degree >= 2
    holds exactly at intersection bases, that incoming labels of bases lie
    in Q, and that every edge increases length by one."""
    violations = []
    for e in enumerate_elements(pres, max_len):
        preds = predecessors(e, pres)
        base = is_intersection_base(e)
        if (len(preds) >= 2) != base:
            violations.append(
                f"{format_word(e.nf)}: in-degree {len(preds)} but "
                f"intersection base is {base}"
            )
        if base and any(x not in pres.q_set for _, x in preds):
            violations.append(
                f"{format_word(e.nf)}: incoming label outside Q at a base"
            )
        for u, _ in preds:
            if len(u.nf) + 1 != len(e.nf):
                violations.append(
                    f"edge {format_word(u.nf)} -> {format_word(e.nf)} does not "
                    f"increase length by one"
                )
    return violations
