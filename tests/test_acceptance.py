"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with its runtime; budgets are asserted,
so a slow or wrong run fails the corresponding criterion and nothing else.
Run with -rA (or -s) to see the lines for passing tests.
"""

import hashlib
import random
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


@pytest.mark.parametrize("n, max_len", [(1, 6), (2, 5), (5, 4)])
def test_criterion_3_nf_oracle_largest_admitted_sizes(n, max_len, capsys):
    # 299,593, 271,453 and 346,201 words, of which 121,914, 69,990 and
    # 38,610 hold a relation side: only the 57,357, 34,070 and 19,184
    # groups of two or more of those are searched, and the lone words are
    # counted, not scanned
    argv = ["verify", "-n", str(n), "--suite", "nf-oracle", "--max-len", str(max_len)]

    def command():
        code = run(argv)
        return code, capsys.readouterr().out

    code, out = timed(2, f"criterion 3: {' '.join(argv)}", command)
    assert code == 0
    assert out.splitlines()[-1] == "violations: 0"


@pytest.mark.parametrize(
    "n, max_len, count, digest",
    [
        (1, 6, 40622, "ae2af6294471debcf8d23ed5fdd8bae1e3194b12cc0a4e31dc058a7a16122cea"),
        (2, 5, 13998, "c714f912e082be329f9e816c2dad97e88b22694780930adcb647f2584f5b2137"),
        (5, 4, 3510, "94f9f9ab4b458b63f8d5f6eaca41aefd15b7569257d7b3cdd16545adb5388b3b"),
    ],
    ids=["n1-max-len-6", "n2-max-len-5", "n5-max-len-4"],
)
def test_criterion_3_nf_oracle_fault_path_largest_admitted_sizes(
    n, max_len, count, digest
):
    # with its first R word never rewritten, the reduction splits that
    # word's classes, so every lone word is searched as well; the digest of
    # the violations joined by newlines pins their text and order
    pres = build_presentation(n)
    del pres.rewrite_map[pres.relations[0].right]
    label = f"criterion 3: nf-oracle fault path, n={n}, max-len {max_len}"
    found = timed(5, label, lambda: partition_agreement(pres, max_len))
    assert len(found) == count
    assert hashlib.sha256("\n".join(found).encode()).hexdigest() == digest


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


@pytest.mark.parametrize("n, max_len", [(5, 4), (2, 5), (1, 6)])
def test_criterion_4_cancellativity_sweep_largest_admitted_sizes(n, max_len, capsys):
    # 326,775, 235,533 and 235,036 sides against 13,886, 20,361 and 30,903
    # factors: each seam letter is tested once, on its one-letter factor,
    # and no factor is walked
    argv = ["verify", "-n", str(n), "--suite", "cancellative", "--max-len", str(max_len)]

    def command():
        code = run(argv)
        return code, capsys.readouterr().out

    code, out = timed(5, f"criterion 4: {' '.join(argv)}", command)
    assert code == 0
    assert out.splitlines()[-1] == "violations: 0"


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


def test_criterion_5_cayley_structure_n200():
    # 646,820 elements; the closed form is read at 1,206 tails, the
    # identity, the 804 letters and the 401 L words
    pres = build_presentation(200)
    for label, sweep in (
        ("co-determinism", codeterminism_violations),
        ("in-degree law", indegree_violations),
    ):
        found = timed(
            5,
            f"criterion 5: {label} at n = 200, max-len 2",
            lambda: sweep(pres, 2),
        )
        assert found == []


@pytest.mark.parametrize("suite", ["codet", "indegree"])
@pytest.mark.parametrize("n, max_len", [(1, 6), (2, 5), (5, 4)])
def test_criterion_5_cayley_structure_largest_admitted_sizes(
    suite, n, max_len, capsys
):
    # 235,036, 235,533 and 326,775 elements: each batch of them is reduced
    # as one text, and the bases are built from the shorter elements
    argv = ["verify", "-n", str(n), "--suite", suite, "--max-len", str(max_len)]

    def command():
        code = run(argv)
        return code, capsys.readouterr().out

    code, out = timed(1, f"criterion 5: {' '.join(argv)}", command)
    assert code == 0
    assert out.splitlines()[-1] == "violations: 0"


@pytest.mark.parametrize("sweep", [codeterminism_violations, indegree_violations])
@pytest.mark.parametrize(
    "n, max_len, count, digest",
    [
        (1, 6, 4063, "1f592923d6cae28d0b01b982d4abaedc791ef781042214c96b98cd58b847969d"),
        (2, 5, 1760, "c92a2fc4af67cc94ee88f0e79b6ba1ac2cc1913a40eff39673eace7d1735f39f"),
        (5, 4, 590, "cf173f2fe5a5baa9bca56cc6f99777a6c4bb4a7821c6ecab98e1349f886525aa"),
    ],
    ids=["n1-max-len-6", "n2-max-len-5", "n5-max-len-4"],
)
def test_criterion_5_cayley_structure_fault_path_largest_admitted_sizes(
    sweep, n, max_len, count, digest
):
    # with its first R word sent to the least other L word, every base's
    # partner word reduces wrongly, so the clean texts disagree and every
    # element is walked; the digest of the violations joined by newlines
    # pins their text and order, the same for both suites
    pres = build_presentation(n)
    (right, left), *_ = pres.rewrite_map.items()
    pres.rewrite_map[right] = min(w for w in pres.l_words if w != left)
    label = f"criterion 5: {sweep.__name__} fault path, n={n}, max-len {max_len}"
    found = timed(5, label, lambda: sweep(pres, max_len))
    assert len(found) == count
    assert hashlib.sha256("\n".join(found).encode()).hexdigest() == digest


@pytest.mark.parametrize("sweep", [codeterminism_violations, indegree_violations])
def test_criterion_5_cayley_structure_fault_path_above_16_relations(sweep):
    # n = 12 has 25 relations, so each edge word is reduced through the
    # codec's regex filter of the R words; the same fault as above makes
    # 53 violations, the same text for both suites.  The walks took 0.47 s
    # and 0.69 s on a 2-core host with Python 3.11
    pres = build_presentation(12)
    (right, left), *_ = pres.rewrite_map.items()
    pres.rewrite_map[right] = min(w for w in pres.l_words if w != left)
    label = f"criterion 5: {sweep.__name__} fault path, n=12, max-len 3"
    found = timed(2, label, lambda: sweep(pres, 3))
    assert len(found) == 53
    digest = "051007437b03d0f9d915f0c0c5bbe2545f00c980f2c2952e47e82289423e76e6"
    assert hashlib.sha256("\n".join(found).encode()).hexdigest() == digest


@pytest.mark.parametrize("sweep", [codeterminism_violations, indegree_violations])
def test_criterion_5_cayley_structure_fault_path_n200(sweep):
    # 646,820 elements under 401 relations, each batch of their edge words
    # reduced as one text; the same fault as above makes one violation.
    # The walks took 0.82-0.90 s and 0.91-0.95 s on a 2-core host with
    # Python 3.11; 0.84-1.01 s and 1.37-1.38 s when indegree decoded each
    # element's last two letters for is_intersection_base, and 1.11 s and
    # 1.78 s with each edge word reduced on its own
    pres = build_presentation(200)
    (right, left), *_ = pres.rewrite_map.items()
    pres.rewrite_map[right] = min(w for w in pres.l_words if w != left)
    label = f"criterion 5: {sweep.__name__} fault path, n=200, max-len 2"
    found = timed(3, label, lambda: sweep(pres, 2))
    assert found == ["edge A1 --C1--> reaches A1 D1, not d a"]


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
            start = cert.trace[0]

        pres = build_presentation(2)
        script = list(build_obstruction_script(pres))
        pos = next(i for i, s in enumerate(script) if s.kind == "relator")
        wrong = (script[pos].relation_index + 1) % len(pres.relations)
        script[pos] = script[pos]._replace(relation_index=wrong)
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
    # 50 sampled pairs checked by the brute-force oracle; each ideal is the
    # class of its root and the words one letter longer, at any window
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


def test_criterion_9_alignment_oracle_largest_windows(m1, m2):
    # every pair at n = 1, max-len 2, at window 7, and 2,000 sampled pairs
    # at n = 2, max-len 3, window 6, each ideal held as its window-free
    # antichain: 0.014 s and 0.027 s on a 2-core
    # host with Python 3.11, against 11.7 s and 5.3 s end to end when each
    # ideal was its set of words
    for pres, max_len, samples, window in ((m1, 2, 4900, 7), (m2, 3, 2000, 6)):
        report = timed(
            2,
            f"criterion 9: alignment oracle at n = {pres.n}, max-len {max_len}, "
            f"window {window}, {samples} samples",
            lambda: verify_alignment(pres, max_len, samples, window),
        )
        assert report.ok and report.sampled == samples


def test_criterion_9_alignment_oracle_every_pair_n2(m2):
    # all 3,097,600 pairs at n = 2, max-len 3: the 13,758 that meet, listed
    # by closed-form divisors and by the ideals' antichains, are checked,
    # and the listings' agreement settles the rest; 0.10-0.16 s on a 2-core
    # host with Python 3.11, where a sample of 10^6 of them took 3.2-3.8 s
    # end to end
    report = timed(
        0.35,
        "criterion 9: alignment oracle on every pair at n = 2, max-len 3",
        lambda: verify_alignment(m2, 3, 3097600, 6),
    )
    assert report.ok and report.sampled == 3097600


def _criterion_10_queries():
    """2,000 fixed nf, eq, divides and intersect argvs at n <= 5."""
    rng = random.Random(2000)
    letters = {n: build_presentation(n).generators for n in range(1, 6)}
    argvs = []
    for i in range(2000):
        n = rng.randint(1, 5)
        w1, w2 = (
            " ".join(rng.choices(letters[n], k=rng.randint(1, 6))) for _ in "pq"
        )
        argvs.append(
            (
                ["nf", "-n", str(n), "-w", w1],
                ["eq", "-n", str(n), "-w", w1, "-w", w2],
                ["divides", "-n", str(n), "-p", w1, "-q", w2],
                ["intersect", "-n", str(n), "-p", w1, "-q", w2],
            )[i % 4]
        )
    return argvs


def test_criterion_10_cli_query_throughput(capsys):
    # 2,000 fixed queries through run() at n <= 5, each closed-form on normal
    # forms, so parsing and output dominate; one parser serves every call, and
    # one rebuilt per call (about 2.3 ms) would alone take 4.6 s
    argvs = _criterion_10_queries()
    codes = timed(
        1.5,
        "criterion 10: 2,000 nf, eq, divides and intersect queries in-process",
        lambda: [run(argv) for argv in argvs],
    )
    assert set(codes) <= {0, 1}
    assert capsys.readouterr().err == ""


def test_criterion_10_cli_query_throughput_json(capsys):
    # the same 2,000 queries with --format json, each answer a JSON document
    argvs = [argv + ["--format", "json"] for argv in _criterion_10_queries()]
    codes = timed(
        1.5,
        "criterion 10: 2,000 queries in-process with --format json",
        lambda: [run(argv) for argv in argvs],
    )
    assert set(codes) <= {0, 1}
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count('\n  "command": ') == 2000
