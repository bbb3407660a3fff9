import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import malcev
from malcev import cayley
from malcev.cayley import (
    build_ball,
    codeterminism_violations,
    export_dot,
    indegree_violations,
    predecessors,
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
    _Codec,
    count_elements,
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
    incoming = {(format_word(u), x) for u, x, v in ball.edges if v == da}
    assert incoming == {("d", "a"), ("A1", "C1")}
    assert sum(1 for v in ball.vertices if v == da) == 1


def test_ball_from_nonidentity_root(m1):
    ball = build_ball(el("c", m1), 1, m1)
    assert len(ball.vertices) == 9
    assert all(v[:1] == el("c", m1) or v == ball.root for v in ball.vertices)


def named(preds):
    return {(format_word(u), x) for u, x in preds}


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


def vertex_name(w):
    """DOT node name: normal-form tokens joined by '.', identity as '1'."""
    if not w:
        return "1"
    return ".".join(w)


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
        ball.edges, key=lambda edge: (vertex_name(edge[0]), edge[1])
    ):
        lines.append(f'  "{vertex_name(u)}" -> "{vertex_name(v)}" [label="{x}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


ReferenceBall = namedtuple("ReferenceBall", "root radius vertices edges")


def ball_by_reduction(root, radius, pres):
    """build_ball's breadth-first search with reduce_word on every edge,
    keeping the edge list."""
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
    return ReferenceBall(root, radius, tuple(vertices), tuple(edges))


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
            got = (ball.root, ball.radius, ball.vertices, ball.edges)
            assert got == tuple(reference), (root, radius)
            assert ball.edge_count == len(reference.edges), (root, radius)
            assert export_dot(ball) == _export_dot_reference(reference), (root, radius)


# n = 1 at radius 6 is 235,036 vertices and 247,224 edges
@pytest.mark.parametrize("n, max_radius", [(1, 6), (2, 4), (3, 4), (10, 3)])
def test_ball_counts_match_element_counts(n, max_radius):
    # left cancellativity: u w = u w' only if w = w', so the ball around any
    # root has one vertex per element of length <= radius, and its sources
    # one per element shorter than the radius, each with G edges; roots end
    # in a P letter, a Q letter and an L word
    pres = build_presentation(n)
    g = len(pres.generators)
    for root in ("1", "d", "a", "c b d a"):
        for radius in range(max_radius + 1):
            ball = build_ball(el(root, pres), radius, pres)
            assert len(ball.vertices) == count_elements(pres, radius), (root, radius)
            assert len(set(ball.vertices)) == len(ball.vertices), (root, radius)
            shorter = count_elements(pres, radius - 1) if radius else 0
            assert ball.edge_count == g * shorter, (root, radius)


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


def relabeled_b(v, pres):
    """predecessors with every label replaced by b."""
    return frozenset((u, "b") for u, _ in predecessors_by_search(v, pres))


def self_loop(v, pres):
    """One edge from v to itself, by the first generator."""
    return frozenset({(v, pres.generators[0])})


def plant(monkeypatch, fault, pres):
    """Plant fault on cayley.predecessors, and route the sweeps to it.

    The sweeps spell each element as a code-point string and call the
    closed form cayley._predecessors on it, so that is replaced by an
    adapter: it decodes the element, asks cayley.predecessors, and encodes
    the pairs back, sorted so that their order is fixed."""
    codec = _Codec(pres)

    def spelled(s, partners):
        pairs = sorted(cayley.predecessors(codec.decode(s), pres))
        return tuple((codec.encode(u), codec.code[x]) for u, x in pairs)

    monkeypatch.setattr(cayley, "predecessors", fault)
    monkeypatch.setattr(cayley, "_predecessors", spelled)


def per_element_sweep(pres, max_len, violations):
    """The sweep before the batches, as the reference: each element's
    predecessors from cayley.predecessors, sorted, and each edge reduced by
    reduce_word."""
    found = sources = 0
    for v in enumerate_elements(pres, max_len):
        preds = sorted(cayley.predecessors(v, pres))
        for u, x in preds:
            target = reduce_word(u + (x,), pres)
            if target != v:
                violations.append(
                    f"edge {format_word(u)} --{x}--> reaches "
                    f"{format_word(target)}, not {format_word(v)}"
                )
        found += len(preds)
        sources += len(v) < max_len
        yield v, preds
    expected = len(pres.generators) * sources
    if found != expected:
        violations.append(f"{found} incoming edges found, expected {expected}")


def codeterminism_per_element(pres, max_len):
    violations = []
    for v, preds in per_element_sweep(pres, max_len, violations):
        if len({x for _, x in preds}) != len(preds):
            violations.append(f"duplicate incoming label at {format_word(v)}")
    return violations


def indegree_per_element(pres, max_len):
    violations = []
    for v, preds in per_element_sweep(pres, max_len, violations):
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


def test_sweep_counts_missing_predecessors(m2, monkeypatch, capsys):
    plant(monkeypatch, without_partners, m2)
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
    plant(monkeypatch, mislabeled, m1)
    unsound = "edge A1 --a--> reaches A1 a, not d a"
    assert unsound in codeterminism_violations(m1, 2)
    assert unsound in indegree_violations(m1, 2)
    for suite in ("codet", "indegree"):
        argv = ["verify", "-n", "1", "--suite", suite, "--max-len", "2"]
        assert run(argv) == 1
        assert f"violation: {unsound}" in capsys.readouterr().out


def test_sweep_expects_no_edges_at_max_len_zero(m1, monkeypatch):
    assert codeterminism_violations(m1, 0) == indegree_violations(m1, 0) == []
    plant(monkeypatch, self_loop, m1)
    assert codeterminism_violations(m1, 0) == [
        "edge 1 --a--> reaches a, not 1",
        "1 incoming edges found, expected 0",
    ]


@pytest.mark.parametrize(
    "fault",
    [None, without_partners, mislabeled, relabeled_b, self_loop],
    ids=["clean", "without-partners", "mislabeled", "relabeled-b", "self-loop"],
)
@pytest.mark.parametrize(
    "n, max_len",
    [(1, k) for k in range(5)] + [(2, k) for k in range(4)] + [(3, k) for k in range(4)],
)
def test_batched_sweeps_match_per_element_sweeps(
    request, monkeypatch, fault, n, max_len
):
    pres = request.getfixturevalue(f"m{n}")
    if fault is not None:
        plant(monkeypatch, fault, pres)
    found = codeterminism_violations(pres, max_len)
    assert found == codeterminism_per_element(pres, max_len)
    assert indegree_violations(pres, max_len) == indegree_per_element(pres, max_len)
    if fault is not None and max_len >= 2:
        assert found


@pytest.mark.parametrize("n, max_len", [(1, 4), (3, 3), (12, 2)])
def test_spelled_closed_form_matches_words(n, max_len):
    # one closed form for both spellings: the sweep's code-point strings
    # decode to the pairs that predecessors returns
    pres = build_presentation(n)
    codec = _Codec(pres)
    partners = {
        codec.encode(w): [codec.encode(r) for r in rs]
        for w, rs in pres.partners.items()
    }
    for v in enumerate_elements(pres, max_len):
        spelled = cayley._predecessors(codec.encode(v), partners)
        pairs = [(codec.decode(u), codec.letter[x]) for u, x in spelled]
        assert pairs == list(cayley._predecessors(v, pres.partners))
        assert frozenset(pairs) == predecessors(v, pres)


RELABEL_B = """
from malcev import cayley
from malcev.cli import run
from malcev.presentation import build_presentation
from malcev.rewriting import _Codec

b = _Codec(build_presentation(1)).code["b"]
closed_form = cayley._predecessors
cayley._predecessors = lambda v, partners: tuple(
    (u, b) for u, _ in closed_form(v, partners)
)
for suite in ("codet", "indegree"):
    run(["verify", "-n", "1", "--suite", suite, "--max-len", "2"])
"""


def test_violation_order_does_not_depend_on_the_hash_seed():
    # every label relabeled b: d a gets two bad edges, d b and A1 b; the
    # sweep names them in the closed form's order, which no set decides
    src = str(Path(malcev.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-c", RELABEL_B],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert (
        "violation: edge d --b--> reaches A1 D1, not d a\n"
        "violation: edge A1 --b--> reaches A1 b, not d a\n"
    ) in outputs[0]
