"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with its runtime; budgets are asserted,
so a slow or wrong run fails the corresponding criterion and nothing else.
Run with -rA (or -s) to see the lines for passing tests.
"""

import dataclasses
import time

import pytest

from malcev.cayley import codeterminism_violations, indegree_violations
from malcev.cli import run
from malcev.congruence import partition_agreement
from malcev.group_derivation import (
    OccurrenceMismatch,
    build_obstruction_script,
    validate_script,
    verify_obstruction,
)
from malcev.ideals import verify_alignment
from malcev.presentation import build_presentation, format_word, parse_word
from malcev.rewriting import (
    cancellativity_violations,
    count_elements,
    reduce_word,
)


def timed(budget, label, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"FAIL {label}: {elapsed:.3f}s over {budget}s budget"
    print(f"PASS {label} ({elapsed:.3f}s)")
    return result


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_presentation_construction():
    pres = build_presentation(5)
    assert len(pres.generators) == 24
    assert len(pres.relations) == 11

    small = build_presentation(1)
    rels = [
        (format_word(r.left), format_word(r.right)) for r in small.relations
    ]
    assert rels == [("d a", "A1 C1"), ("A1 D1", "d b"), ("c b", "B1 D1")]

    warm = best_of(5, lambda: build_presentation(5))
    assert warm < 0.001, f"FAIL criterion 1: {warm * 1000:.3f}ms per build"
    print(f"PASS criterion 1: family construction ({warm * 1000:.3f}ms warm)")


def test_criterion_2_normal_form_speed(m2):
    word = parse_word("a b a C2 d b c A1 B1 D1", m2)
    assert format_word(reduce_word(word, m2)) == "a b a C2 A2 D2 c A1 B2 C2"
    warm = best_of(5, lambda: reduce_word(word, m2))
    assert warm < 0.001, f"FAIL criterion 2: {warm * 1000:.3f}ms per reduction"
    print(f"PASS criterion 2: worked normal form ({warm * 1000:.3f}ms warm)")


def test_criterion_3_normal_forms_match_congruence(m1, m2):
    def check():
        assert partition_agreement(m1, 5) == []
        assert partition_agreement(m2, 4) == []

    timed(120, "criterion 3: rewriting vs search partitions", check)


def test_criterion_4_cancellativity_sweep(m1):
    def check():
        assert cancellativity_violations(m1, 3, 2) == []

    timed(300, "criterion 4: no cancellation failures", check)


def test_criterion_4_cancellativity_sweep_n2_max_len_4(m2):
    # 20,361 sides against 1,760 factors; only seam products are reduced
    def check():
        assert cancellativity_violations(m2, 4, 3) == []

    timed(60, "criterion 4: no cancellation failures at n = 2, max-len 4", check)


def test_criterion_4_cancellativity_sweep_n10000():
    # 40,005 sides and factors; each seam batch applies only the one or two
    # rules whose R word can sit on its seam, not all 20,001
    pres = build_presentation(10000)
    found = timed(
        5,
        "criterion 4: no cancellation failures at n = 10000, max-len 1",
        lambda: cancellativity_violations(pres, 1, 1),
    )
    assert found == []


def test_criterion_5_cayley_structure(m1, m2):
    def check():
        for pres in (m1, m2):
            assert codeterminism_violations(pres, 4) == []
            assert indegree_violations(pres, 4) == []

    timed(60, "criterion 5: co-determinism and in-degree law", check)


def test_criterion_5_cayley_structure_n10000():
    # 40,005 elements and 40,004 edges; each batch of edge words applies
    # only the rules whose R word occurs in it, not all 20,001
    pres = build_presentation(10000)
    for label, sweep in (
        ("co-determinism", codeterminism_violations),
        ("in-degree law", indegree_violations),
    ):
        found = timed(
            5,
            f"criterion 5: {label} at n = 10000, max-len 1",
            lambda: sweep(pres, 1),
        )
        assert found == []


@pytest.mark.parametrize("n, radius, budget", [(3, 4, 1), (1, 6, 3)])
def test_criterion_5_cayley_ball_dot(n, radius, budget, capsys):
    # 64,347 vertices and 66,208 edges at n = 3; 235,036 and 247,224 at
    # n = 1; the DOT has a line per vertex and per edge, and two braces
    argv = ["ball", "-n", str(n), "--radius", str(radius), "--dot", "-"]

    def command():
        code = run(argv)
        return code, capsys.readouterr().out

    code, out = timed(budget, f"criterion 5: {' '.join(argv)}", command)
    assert code == 0
    pres = build_presentation(n)
    edges = len(pres.generators) * count_elements(pres, radius - 1)
    assert out.count("\n") == count_elements(pres, radius) + edges + 2


def test_criterion_6_alignment_higher_n(m2, m3):
    def check():
        for pres in (m2, m3):
            report = verify_alignment(pres, max_len=2, samples=50, window=5)
            assert report.ok
            assert report.max_generators <= 1
            assert report.mismatches == ()
            assert report.sampled == 50

    timed(600, "criterion 6: principal intersections for n >= 2", check)


def test_criterion_7_alignment_n1(m1):
    def check():
        report = verify_alignment(m1, max_len=2, samples=50, window=5)
        assert report.ok
        assert report.mismatches == ()
        assert report.max_generators == 2
        entry = next(
            t for t in report.non_principal if t[:2] == ("A1", "d")
        )
        assert entry[2] == ("A1 D1", "d a")

    timed(300, "criterion 7: two-generator intersections at n = 1", check)


def test_criterion_8_obstruction_certificates():
    def check():
        start = None
        for n in range(1, 6):
            pres = build_presentation(n)
            cert = verify_obstruction(pres)
            assert cert.n == n
            assert len(cert.steps) == 4 * n + 3
            assert [format_word(w) for w in cert.monoid_witness] == [
                "c a",
                "B1 C1",
            ]
            start = cert.steps[0].before

        pres = build_presentation(2)
        script = list(build_obstruction_script(pres))
        pos = next(i for i, s in enumerate(script) if s.kind == "relator")
        wrong = (script[pos].relation_index + 1) % len(pres.relations)
        script[pos] = dataclasses.replace(script[pos], relation_index=wrong)
        with pytest.raises(OccurrenceMismatch):
            validate_script(script, pres, start)

    timed(60, "criterion 8: group derivations verified for n = 1..5", check)


def test_criterion_8_obstruction_certificate_n10000():
    # 40,003 steps; the relator product is built in one pass, not by
    # prepending each conjugate to the whole product
    pres = build_presentation(10000)
    cert = timed(
        5,
        "criterion 8: group derivation verified for n = 10000",
        lambda: verify_obstruction(pres),
    )
    assert len(cert.steps) == 4 * 10000 + 3


def test_criterion_9_alignment_sweep_sizes(m1, m3):
    # 17,123,044 and 16,507,969 ordered pairs; only those sharing a Q
    # extension are intersected
    for pres, max_len, samples, window in ((m3, 3, 50, 4), (m1, 4, 20, 5)):
        report = timed(
            3,
            f"criterion 9: alignment sweep at n = {pres.n}, max-len {max_len}",
            lambda: verify_alignment(pres, max_len, samples, window),
        )
        assert report.ok
    # 50 sampled pairs checked by the brute-force oracle; at window 5 the
    # ideal of a one-letter root is the closure of 69,905 seed words
    report = timed(
        5,
        "criterion 9: alignment oracle at n = 3, max-len 2, window 5",
        lambda: verify_alignment(m3, 2, 50, 5),
    )
    assert report.ok
    # 41,720 elements, whose partners are read off their normal forms
    m50 = build_presentation(50)
    report = timed(
        10,
        "criterion 9: alignment sweep at n = 50, max-len 2",
        lambda: verify_alignment(m50, 2, 20, 3),
    )
    assert report.ok
    # about 646,000 elements; each partner pair's shared extensions come
    # from the letter table, so no element's extensions are built
    m200 = build_presentation(200)
    report = timed(
        30,
        "criterion 9: alignment sweep at n = 200, max-len 2",
        lambda: verify_alignment(m200, 2, 1, 3),
    )
    assert report.ok
    # 40,005 elements; the letter table is read off the 20,001 relations
    m10000 = build_presentation(10000)
    report = timed(
        5,
        "criterion 9: alignment sweep at n = 10000, max-len 1",
        lambda: verify_alignment(m10000, 1, 1, 2),
    )
    assert report.ok
