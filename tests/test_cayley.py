import pytest

from malcev.cayley import (
    build_ball,
    check_codeterminism,
    codeterminism_violations,
    export_dot,
    indegree_violations,
    predecessors,
    vertex_name,
)
from malcev.presentation import build_presentation, parse_word
from malcev.rewriting import left_normal_form, reduce_word


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
    assert {str(v) for v in ball.vertices[1:]} == {
        "a", "b", "c", "d", "A1", "B1", "C1", "D1"
    }


def test_ball_negative_radius(m1):
    with pytest.raises(ValueError):
        build_ball(el("1", m1), -1, m1)


def test_ball_edges_are_consistent(m2):
    ball = build_ball(el("1", m2), 2, m2)
    vertex_set = set(ball.vertices)
    for u, x, v in ball.edges:
        assert reduce_word(u.nf + (x,), m2) == v.nf
        assert len(v.nf) == len(u.nf) + 1
        assert v in vertex_set
    lengths = [len(v.nf) for v in ball.vertices]
    assert lengths == sorted(lengths)


def test_ball_merges_equal_words(m1):
    # d a and A1 C1 are the same vertex, reached by two edge paths
    ball = build_ball(el("1", m1), 2, m1)
    da = el("d a", m1)
    incoming = {(str(u), x.token) for u, x, v in ball.edges if v == da}
    assert incoming == {("d", "a"), ("A1", "C1")}
    assert sum(1 for v in ball.vertices if v == da) == 1


def test_ball_from_nonidentity_root(m1):
    ball = build_ball(el("c", m1), 1, m1)
    assert len(ball.vertices) == 9
    assert all(v.nf[:1] == el("c", m1).nf or v == ball.root for v in ball.vertices)


def test_predecessors(m1, m2):
    assert predecessors(el("1", m1), m1) == frozenset()
    assert {(str(u), x.token) for u, x in predecessors(el("c a", m1), m1)} == {
        ("c", "a")
    }
    assert {(str(u), x.token) for u, x in predecessors(el("d a", m1), m1)} == {
        ("d", "a"),
        ("A1", "C1"),
    }
    assert {(str(u), x.token) for u, x in predecessors(el("A2 D2", m2), m2)} == {
        ("A2", "D2"),
        ("d", "b"),
    }


def test_codeterminism_samples(m1):
    for text in ("1", "a", "d a", "c b", "d b b"):
        assert check_codeterminism(el(text, m1), m1)


def test_vertex_name(m1):
    assert vertex_name(el("1", m1)) == "1"
    assert vertex_name(el("d a", m1)) == "d.a"
    assert vertex_name(el("A1", m1)) == "A1"


def test_export_dot(m1):
    ball = build_ball(el("1", m1), 1, m1)
    dot = export_dot(ball)
    assert dot == export_dot(build_ball(el("1", m1), 1, m1))
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


# n = 10 has two-digit tokens, so token order differs from index order
@pytest.mark.parametrize("n, max_radius", [(1, 3), (2, 3), (3, 3), (10, 2)])
def test_export_dot_matches_reference(n, max_radius):
    pres = build_presentation(n)
    for root in ("1", "a", "d", "A1 C1", "c b d a"):
        for radius in range(max_radius + 1):
            ball = build_ball(el(root, pres), radius, pres)
            assert export_dot(ball) == _export_dot_reference(ball), (root, radius)


def test_export_dot_edge_order(m1):
    ball = build_ball(el("1", m1), 2, m1)
    edge_lines = [l for l in export_dot(ball).splitlines() if "->" in l]
    quoted = [l.split('"')[1::2] for l in edge_lines]  # [source, target, label]
    keys = [(source, label) for source, _, label in quoted]
    assert keys == sorted(keys)


def test_no_structure_violations_small(m1, m2):
    assert codeterminism_violations(m1, 3) == []
    assert indegree_violations(m1, 3) == []
    assert codeterminism_violations(m2, 3) == []
    assert indegree_violations(m2, 3) == []
