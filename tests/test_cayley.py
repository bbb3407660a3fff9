import pytest

from malcev import cayley
from malcev.cayley import (
    CayleyBall,
    build_ball,
    codeterminism_violations,
    export_dot,
    indegree_violations,
    predecessors,
    vertex_name,
)
from malcev.cli import run
from malcev.congruence import equality_class
from malcev.presentation import (
    build_presentation,
    format_word,
    letter_from_token,
    parse_word,
    validate_generic,
)
from malcev.rewriting import (
    enumerate_elements,
    is_intersection_base,
    left_normal_form,
    reduce_word,
)


def el(text, pres):
    return left_normal_form(parse_word(text, pres), pres)


def test_ball_radius_zero(m1):
    ball = build_ball(el("1", m1), 0, m1)
    assert ball.vertices == (el("1", m1),)
    assert ball.edges == ()


def test_ball_radius_one(m1):
    ball = build_ball(el("1", m1), 1, m1)
    # 8 distinct one-letter words, all irreducible
    assert len(ball.vertices) == 9
    assert len(ball.edges) == 8
    assert ball.vertices[0] == el("1", m1)
    assert {format_word(v) for v in ball.vertices[1:]} == {
        "a", "b", "c", "d", "A1", "B1", "C1", "D1"
    }


def test_ball_negative_radius(m1):
    with pytest.raises(ValueError):
        build_ball(el("1", m1), -1, m1)


def test_ball_edges_are_consistent(m2):
    ball = build_ball(el("1", m2), 2, m2)
    vertex_set = set(ball.vertices)
    for u, x, v in ball.edges:
        assert reduce_word(u + (x,), m2) == v
        assert len(v) == len(u) + 1
        assert v in vertex_set
    lengths = [len(v) for v in ball.vertices]
    assert lengths == sorted(lengths)


def test_ball_merges_equal_words(m1):
    # d a and A1 C1 are the same vertex, reached by two edge paths
    ball = build_ball(el("1", m1), 2, m1)
    da = el("d a", m1)
    incoming = {(format_word(u), x.token) for u, x, v in ball.edges if v == da}
    assert incoming == {("d", "a"), ("A1", "C1")}
    assert sum(1 for v in ball.vertices if v == da) == 1


def test_ball_from_nonidentity_root(m1):
    ball = build_ball(el("c", m1), 1, m1)
    assert len(ball.vertices) == 9
    assert all(v[:1] == el("c", m1) or v == ball.root for v in ball.vertices)


def named(preds):
    return {(format_word(u), x.token) for u, x in preds}


def test_predecessors(m1, m2):
    assert predecessors(el("1", m1), m1) == frozenset()
    assert named(predecessors(el("c a", m1), m1)) == {("c", "a")}
    assert named(predecessors(el("d a", m1), m1)) == {
        ("d", "a"),
        ("A1", "C1"),
    }
    assert named(predecessors(el("A2 D2", m2), m2)) == {
        ("A2", "D2"),
        ("d", "b"),
    }


def predecessors_by_search(v, pres):
    """predecessors from the full equality class of v: every word equal to v
    is a word for some u followed by x, so splitting each class member
    before its final letter finds every incoming edge."""
    preds = set()
    for u in equality_class(v, pres):
        if u:
            preds.add((reduce_word(u[:-1], pres), u[-1]))
    return frozenset(preds)


# n = 10 has two-digit tokens and the longest relation chain of the four
@pytest.mark.parametrize("n, max_len", [(1, 4), (2, 3), (3, 3), (10, 2)])
def test_predecessors_match_search(n, max_len):
    pres = build_presentation(n)
    for v in enumerate_elements(pres, max_len):
        assert predecessors(v, pres) == predecessors_by_search(v, pres), v


def test_vertex_name(m1):
    assert vertex_name(el("1", m1)) == "1"
    assert vertex_name(el("d a", m1)) == "d.a"
    assert vertex_name(el("A1", m1)) == "A1"


def test_export_dot(m1):
    ball = build_ball(el("1", m1), 1, m1)
    dot = export_dot(ball, m1)
    assert dot == export_dot(build_ball(el("1", m1), 1, m1), m1)
    lines = dot.splitlines()
    assert lines[0] == "digraph cayley {"
    assert lines[-1] == "}"
    assert dot.endswith("}\n")
    assert lines[1] == '  "1";'
    node_lines = [l for l in lines if l.endswith('";')]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == 9
    assert len(edge_lines) == 8
    assert '  "1" -> "A1" [label="A1"];' in edge_lines


def _export_dot_reference(ball):
    """export_dot as it was before the token table and the source-name dict:
    every name through vertex_name, three calls per edge."""
    lines = ["digraph cayley {"]
    for v in ball.vertices:
        lines.append(f'  "{vertex_name(v)}";')
    for u, x, v in sorted(
        ball.edges, key=lambda edge: (vertex_name(edge[0]), edge[1].token)
    ):
        lines.append(f'  "{vertex_name(u)}" -> "{vertex_name(v)}" [label="{x.token}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def ball_by_reduction(root, radius, pres):
    """build_ball's breadth-first search with reduce_word on every edge."""
    vertices, seen, edges, frontier = [root], {root}, [], [root]
    for _ in range(radius):
        next_frontier = []
        for u in frontier:
            for x in pres.generators:
                v = reduce_word(u + (x,), pres)
                edges.append((u, x, v))
                if v not in seen:
                    seen.add(v)
                    vertices.append(v)
                    next_frontier.append(v)
        frontier = next_frontier
    return CayleyBall(root, radius, tuple(vertices), tuple(edges))


# n = 10 has two-digit tokens, so token order differs from index order
@pytest.mark.parametrize("n, max_radius", [(1, 3), (2, 3), (3, 3), (10, 2)])
def test_export_dot_matches_reference(n, max_radius):
    # the reference ball reduces every edge, so build_ball's boundary step is
    # checked too: roots end in a P letter, a Q letter and an L word
    pres = build_presentation(n)
    for root in ("1", "a", "d", "A1 C1", "c b", "c b d a"):
        for radius in range(max_radius + 1):
            ball = build_ball(el(root, pres), radius, pres)
            reference = ball_by_reduction(el(root, pres), radius, pres)
            assert ball == reference, (root, radius)
            assert export_dot(ball, pres) == _export_dot_reference(reference), (root, radius)


def test_export_dot_edge_order(m1):
    ball = build_ball(el("1", m1), 2, m1)
    edge_lines = [l for l in export_dot(ball, m1).splitlines() if "->" in l]
    quoted = [l.split('"')[1::2] for l in edge_lines]  # [source, target, label]
    keys = [(source, label) for source, _, label in quoted]
    assert keys == sorted(keys)


def test_no_structure_violations_small(m1, m2):
    assert codeterminism_violations(m1, 3) == []
    assert indegree_violations(m1, 3) == []
    assert codeterminism_violations(m2, 3) == []
    assert indegree_violations(m2, 3) == []


def codeterminism_by_search(pres, max_len):
    violations = []
    for v in enumerate_elements(pres, max_len):
        preds = predecessors_by_search(v, pres)
        if len({x for _, x in preds}) != len(preds):
            violations.append(f"duplicate incoming label at {format_word(v)}")
    return violations


def indegree_by_search(pres, max_len):
    violations = []
    for v in enumerate_elements(pres, max_len):
        preds = predecessors_by_search(v, pres)
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


def test_structure_suites_find_planted_non_codeterminism():
    # x v = z v is not right cancellative: x and z both reach x v by v
    tok = lambda text: tuple(letter_from_token(t) for t in text.split())
    broken = validate_generic([(tok("x v"), tok("z v"))])
    for max_len in range(4):
        found = codeterminism_violations(broken, max_len)
        assert found == codeterminism_by_search(broken, max_len)
        assert indegree_violations(broken, max_len) == indegree_by_search(
            broken, max_len
        )
    assert "duplicate incoming label at x v" in found
    assert "duplicate incoming label at z x v" in found


def without_partners(v, pres):
    """predecessors with the partner branch dropped: complete only off the
    intersection bases."""
    if not v:
        return frozenset()
    return frozenset({(v[:-1], v[-1])})


def mislabeled(v, pres):
    """predecessors with every partner's label replaced by v's last letter."""
    return frozenset(
        (u, x if u == v[:-1] else v[-1])
        for u, x in predecessors_by_search(v, pres)
    )


def test_sweep_counts_missing_predecessors(m2, monkeypatch, capsys):
    monkeypatch.setattr(cayley, "predecessors", without_partners)
    count = "1759 incoming edges found, expected 1824"
    assert codeterminism_violations(m2, 3) == [count]
    found = indegree_violations(m2, 3)
    assert found[-1] == count
    assert "d a: in-degree 1 but intersection base is True" in found
    for suite in ("codet", "indegree"):
        argv = ["verify", "-n", "2", "--suite", suite, "--max-len", "3"]
        assert run(argv) == 1
        assert f"violation: {count}" in capsys.readouterr().out


def test_sweep_catches_unsound_predecessors(m1, monkeypatch, capsys):
    monkeypatch.setattr(cayley, "predecessors", mislabeled)
    unsound = "edge A1 --a--> reaches A1 a, not d a"
    assert unsound in codeterminism_violations(m1, 2)
    assert unsound in indegree_violations(m1, 2)
    for suite in ("codet", "indegree"):
        argv = ["verify", "-n", "1", "--suite", suite, "--max-len", "2"]
        assert run(argv) == 1
        assert f"violation: {unsound}" in capsys.readouterr().out


def test_sweep_expects_no_edges_at_max_len_zero(m1, monkeypatch):
    assert codeterminism_violations(m1, 0) == indegree_violations(m1, 0) == []
    a = m1.generators[0]
    monkeypatch.setattr(cayley, "predecessors", lambda v, pres: {(v, a)})
    assert codeterminism_violations(m1, 0) == [
        "edge 1 --a--> reaches a, not 1",
        "1 incoming edges found, expected 0",
    ]
