import random
import tracemalloc
from collections import Counter
from itertools import permutations, product

import pytest

from malcev import congruence, ideals, rewriting
from malcev.cayley import predecessors
from malcev.congruence import CapExceeded, left_divides
from malcev.ideals import (
    DEFAULT_SEED,
    EMPTY,
    GENERATORS,
    PRINCIPAL,
    AlignmentReport,
    AlignmentViolation,
    WindowTooSmall,
    brute_force_intersection,
    intersect_principal,
    minimal_elements,
    verify_alignment,
)
from malcev.presentation import (
    Presentation,
    PresentationError,
    build_presentation,
    format_word,
    parse_word,
    validate_generic,
)
from malcev.rewriting import (
    count_elements,
    element_key,
    enumerate_elements,
    is_intersection_base,
    left_normal_form,
    reduce_word,
)


def el(text, pres):
    return left_normal_form(parse_word(text, pres), pres)


def labelled_2(pres):
    """pres, labelled as the family member n = 2."""
    return Presentation(2, pres.generators, pres.relations)


def gen_strs(result):
    return [format_word(g) for g in result.generators]


def q_letters(pres):
    """The Q letters, in generator order."""
    return tuple(x for x in pres.generators if x in pres.q_set)


def q_extensions(nf, pres):
    """Reference: normal forms of nf times each Q letter, for a normal form
    nf, by one boundary step.  For a normal form p and a letter x, the
    normal form of p x is p[:-1] followed by the pair p[-1] x, or by its L
    partner when that pair is an R word, and is just (x,) when p is the
    identity; the L partner starts with a P letter, so it forms no R word
    with p[-2]."""
    rewrite = pres.rewrite_map
    head, tail = nf[:-1], nf[-1:]
    pairs = (tail + (x,) for x in q_letters(pres))
    return frozenset(head + rewrite.get(pair, pair) for pair in pairs)


def ideal_by_literal_extensions(root, window, pres):
    """Reference ideal: the closure of every literal extension of root of
    length <= window, the whole closure searched step by step."""
    seeds = (
        root + x
        for extra in range(window - len(root) + 1)
        for x in product(pres.generators, repeat=extra)
    )
    return frozenset(congruence.closure(seeds, pres.partners))


def ideal(root, pres):
    return ideals._ideal(root, pres, ideals._boundary_swaps(pres))


def ideal_words(root, window, pres):
    """Every word of root's ideal: each word of its antichain followed by
    each word over the generators that keeps it within the window."""
    return frozenset(
        a + x
        for a in ideal(root, pres).antichain
        for extra in range(window - len(a) + 1)
        for x in product(pres.generators, repeat=extra)
    )


def literal_common_multiples(p, q, window, pres):
    """Reference: the elements of length <= window that both p and q
    divide, by the closed-form divisibility, which reads no ideal."""
    return [
        e
        for e in enumerate_elements(pres, window)
        if rewriting.left_divides(p, e, pres) is not None
        and rewriting.left_divides(q, e, pres) is not None
    ]


def extension_letter_partners(pres, ext):
    """Reference letter table from all G·|Q| one-letter extensions that ext
    gives the letters: each letter a that shares one with another letter,
    mapped to {b: the extensions (a,) and (b,) share}, in token order."""
    having = {}  # two-letter Q extension -> letters that have it
    for b in pres.generators:
        for x in ext((b,), pres):
            having.setdefault(x, []).append(b)
    partners = {}
    for x, letters in having.items():
        for a, b in permutations(letters, 2):
            partners.setdefault(a, {}).setdefault(b, set()).add(x)
    return {a: dict(sorted(bs.items())) for a, bs in sorted(partners.items())}


def test_two_generators_at_n1(m1):
    res = intersect_principal(el("A1", m1), el("d", m1), m1)
    assert res.kind == GENERATORS
    assert gen_strs(res) == ["A1 D1", "d a"]
    assert res.provenance == "base-search"


def test_same_pair_is_principal_at_n2(m2):
    res = intersect_principal(el("A1", m2), el("d", m2), m2)
    assert res.kind == PRINCIPAL
    assert gen_strs(res) == ["d a"]
    assert res.provenance == "base-search"


def test_empty_intersection(m1):
    res = intersect_principal(el("a", m1), el("b", m1), m1)
    assert res.kind == EMPTY
    assert res.generators == ()


def test_reachable_pairs(m1):
    p = el("d", m1)
    res = intersect_principal(p, p, m1)
    assert res.kind == PRINCIPAL
    assert res.generators == (p,)
    assert res.provenance == "reachable-p-to-q"

    res = intersect_principal(el("1", m1), el("c a", m1), m1)
    assert (res.kind, gen_strs(res)) == (PRINCIPAL, ["c a"])

    res = intersect_principal(el("d", m1), el("A1 D1", m1), m1)
    assert (res.kind, gen_strs(res)) == (PRINCIPAL, ["A1 D1"])
    assert res.provenance == "reachable-p-to-q"

    res = intersect_principal(el("A1 C1", m1), el("d", m1), m1)
    assert (res.kind, gen_strs(res)) == (PRINCIPAL, ["d a"])
    assert res.provenance == "reachable-q-to-p"


def test_generators_are_incomparable(m1):
    # every ordered pair of length <= 2; the search-based divisibility judges
    elements = enumerate_elements(m1, 2)
    checked = 0
    for p in elements:
        for q in elements:
            gens = intersect_principal(p, q, m1).generators
            for g, h in permutations(gens, 2):
                assert left_divides(g, h, m1) is None, (p, q, g, h)
                checked += 1
    assert checked == 2 * 18  # the 18 non-principal pairs of the n = 1 sweep


def test_generators_are_bases_with_q_incoming(m1):
    res = intersect_principal(el("A1", m1), el("d", m1), m1)
    for g in res.generators:
        assert is_intersection_base(g, m1)
        preds = predecessors(g, m1)
        assert len(preds) >= 2
        assert all(x in m1.q_set for _, x in preds)


def test_requires_indexed_family():
    generic = validate_generic(_skew_relations())
    identity = left_normal_form((), generic)
    with pytest.raises(PresentationError):
        intersect_principal(identity, identity, generic)


def test_verify_alignment_requires_indexed_family():
    generic = validate_generic(_skew_relations())
    with pytest.raises(PresentationError, match="alignment verification needs"):
        verify_alignment(generic, max_len=1, samples=0, window=2)


def test_report_names_a_generator_count_over_the_bound(m1):
    report = verify_alignment(m1, max_len=1, samples=0, window=2)
    assert report.violations == ()
    over = report._replace(max_generators=3)
    assert over.violations == ("max generator count 3 exceeds bound 2",)


def test_brute_force_matches_fast_path(m1, m2):
    got = brute_force_intersection(el("A1", m1), el("d", m1), m1)
    assert [format_word(g) for g in got] == ["A1 D1", "d a"]

    got = brute_force_intersection(el("A1", m2), el("d", m2), m2)
    assert [format_word(g) for g in got] == ["d a"]

    assert brute_force_intersection(el("d", m1), el("d", m1), m1) == [el("d", m1)]
    assert brute_force_intersection(el("a", m1), el("b", m1), m1) == []


@pytest.mark.parametrize("window", [2, 3])
def test_brute_force_is_the_minimal_literal_common_multiples(m1, window):
    # every ordered pair of length <= 1, the identity included; no common
    # multiple of the larger window adds a generator
    elements = enumerate_elements(m1, 1)
    for p, q in product(elements, repeat=2):
        expected = minimal_elements(literal_common_multiples(p, q, window, m1), m1)
        assert brute_force_intersection(p, q, m1) == expected, (p, q)


def test_brute_force_with_identity_builds_no_ideal(m3, monkeypatch):
    # 1M and qM meet in qM, whose only generator is q, decided by definition
    monkeypatch.setattr(
        ideals, "_ideal", lambda root, *args: pytest.fail(f"ideal of {root}")
    )
    one, q = el("1", m3), el("d a", m3)
    assert brute_force_intersection(one, q, m3) == [q]
    assert brute_force_intersection(q, one, m3) == [q]
    assert brute_force_intersection(one, one, m3) == [one]


def test_generator_predecessors_are_not_common_multiples(m1):
    # minimality seen on the graph: no proper divisor of a generator lies in
    # both ideals
    p, q = el("A1", m1), el("d", m1)
    common = set(literal_common_multiples(p, q, 4, m1))
    for g in intersect_principal(p, q, m1).generators:
        assert g in common
        for source, _ in predecessors(g, m1):
            assert source not in common


def test_window_too_small(m1):
    with pytest.raises(WindowTooSmall):
        verify_alignment(m1, max_len=2, samples=5, window=2)


def test_minimal_elements(m1):
    assert minimal_elements(
        [el("d a", m1), el("d", m1), el("d a a", m1)], m1
    ) == [el("d", m1)]
    assert minimal_elements([el("a", m1), el("b", m1)], m1) == [
        el("a", m1),
        el("b", m1),
    ]
    assert minimal_elements([], m1) == []


def test_alignment_report_n1(m1):
    report = verify_alignment(m1, max_len=2, samples=20, window=4)
    assert report.n == 1
    assert report.bound == 2
    assert report.ok
    assert report.mismatches == ()
    assert report.max_generators == 2
    assert report.pair_count == len(enumerate_elements(m1, 2)) ** 2
    assert report.sampled == 20
    assert len(report.non_principal) == 18
    pairs = {(p, q) for p, q, _ in report.non_principal}
    assert ("A1", "d") in pairs
    assert {(q, p) for p, q in pairs} == pairs
    entry = next(t for t in report.non_principal if t[:2] == ("A1", "d"))
    assert entry[2] == ("A1 D1", "d a")


def test_exhaustive_sweep_matches_per_pair_oracle(m1):
    elements = enumerate_elements(m1, 1)
    report = verify_alignment(m1, max_len=1, samples=len(elements) ** 2, window=3)
    max_generators = 0
    non_principal, mismatches = [], []
    for p in elements:
        for q in elements:
            gens = list(intersect_principal(p, q, m1).generators)
            max_generators = max(max_generators, len(gens))
            if len(gens) >= 2:
                names = tuple(map(format_word, gens))
                non_principal.append((format_word(p), format_word(q), names))
            # minimal generators that divide every common multiple
            common = literal_common_multiples(p, q, 3, m1)
            if gens != brute_force_intersection(p, q, m1) or (
                minimal_elements(common + gens, m1) != gens
            ):
                mismatches.append(f"({format_word(p)}, {format_word(q)})")
    assert report == AlignmentReport(
        n=1,
        max_len=1,
        pair_count=len(elements) ** 2,
        max_generators=max_generators,
        non_principal=tuple(non_principal),
        sampled=len(elements) ** 2,
        window=3,
        seed=DEFAULT_SEED,
        mismatches=tuple(mismatches),
        expected_non_principal=ideals._non_principal_count(m1, 1),
    )
    assert max_generators == 2 and non_principal


@pytest.mark.parametrize("n", [1, 2, 3])
def test_q_extensions_match_reduction(n, request):
    pres = request.getfixturevalue(f"m{n}")
    for w in enumerate_elements(pres, 3):
        expected = {reduce_word(w + (x,), pres) for x in q_letters(pres)}
        assert q_extensions(w, pres) == expected, format_word(w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_q_extensions_are_the_last_letters_under_the_prefix(n, request):
    # the form the alignment sweep reads partners from: p[:-1] followed by
    # a two-letter tail that depends only on p[-1]
    pres = request.getfixturevalue(f"m{n}")
    for p in enumerate_elements(pres, 3)[1:]:
        tails = q_extensions(p[-1:], pres)
        assert all(len(e) == 2 for e in tails)
        assert q_extensions(p, pres) == {p[:-1] + e for e in tails}


@pytest.mark.parametrize(
    "plant, flagged",
    [
        ("drop", "(A1, d): fast generators ['A1 D1'] vs oracle ['A1 D1', 'd a']"),
        ("add", "(a, b): fast generators ['c c'] vs oracle []"),
    ],
)
def test_oracle_catches_a_planted_extension_fault(m1, monkeypatch, plant, flagged):
    # the planted extensions reach the letter table, which the sweep and
    # the oracle both read
    real = q_extensions
    cc = parse_word("c c", m1)

    def planted(nf, pres):
        if plant == "drop":
            return real(nf, pres) - {reduce_word(nf + q_letters(pres)[:1], pres)}
        return real(nf, pres) | {cc}

    monkeypatch.setattr(
        ideals, "_letter_partners", lambda _: extension_letter_partners(m1, planted)
    )
    report = verify_alignment(m1, max_len=1, samples=81, window=3)
    assert flagged in report.mismatches


def _all_pairs_report(pres, max_len, window, ext):
    """Reference sweep: every ordered pair through _meet, p outer and q
    inner, each sharing the extensions that ext gives both.  With no oracle
    sample, verify_alignment reports the sweep alone."""
    nfs = enumerate_elements(pres, max_len)
    extensions = {w: ext(w, pres) for w in nfs}
    max_generators = 0
    non_principal = []
    mismatches = []
    for p, p_ext in extensions.items():
        for q, q_ext in extensions.items():
            try:
                _, gens = ideals._meet(p, q, p_ext & q_ext, pres)
            except AlignmentViolation as exc:
                mismatches.append(f"({format_word(p)}, {format_word(q)}): {exc}")
                continue
            count = len(gens)
            if count > max_generators:
                max_generators = count
            if count >= 2:
                non_principal.append(
                    (
                        format_word(p),
                        format_word(q),
                        tuple(format_word(g) for g in sorted(gens, key=element_key)),
                    )
                )
    return AlignmentReport(
        n=pres.n,
        max_len=max_len,
        pair_count=len(nfs) ** 2,
        max_generators=max_generators,
        non_principal=tuple(non_principal),
        sampled=0,
        window=window,
        seed=DEFAULT_SEED,
        mismatches=tuple(mismatches),
        expected_non_principal=ideals._non_principal_count(pres, max_len),
    )


@pytest.mark.parametrize(
    "n, max_len",
    [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]
    + [("skew", max_len) for max_len in range(4)],
)
def test_shared_extension_sweep_matches_all_pairs(request, n, max_len):
    # "skew" is the foreign presentation labelled n = 2, whose letters d and
    # A1 share two extensions: every pair (u d, u A1) is reported
    if n == "skew":
        pres = labelled_2(validate_generic(_skew_relations()))
    else:
        pres = request.getfixturevalue(f"m{n}")
    window = max_len + 1
    report = verify_alignment(pres, max_len=max_len, samples=0, window=window)
    reference = _all_pairs_report(pres, max_len, window, q_extensions)
    assert report.to_dict() == reference.to_dict()
    if n == "skew":
        assert len(report.mismatches) == (0, 2, 14, 82)[max_len]


def _per_element_sweep(pres, max_len, window):
    """Reference sweep: every nonempty element p, each with every partner
    u + (b,), for u = p[:-1] and each letter b that the letter table pairs
    with p[-1], through _bases.  With no oracle sample, verify_alignment
    reports the sweep alone."""
    nfs = enumerate_elements(pres, max_len)
    partners = ideals._letter_partners(pres.relations)
    max_generators = 1
    non_principal = []
    mismatches = []
    for p in nfs[1:]:
        u = p[:-1]
        for b, tails in partners.get(p[-1], {}).items():
            q = u + (b,)
            try:
                gens = ideals._bases(p, q, {u + t for t in tails}, pres.n)
            except AlignmentViolation as exc:
                mismatches.append(f"({format_word(p)}, {format_word(q)}): {exc}")
                continue
            max_generators = max(max_generators, len(gens))
            if len(gens) >= 2:
                names = tuple(format_word(g) for g in sorted(gens, key=element_key))
                non_principal.append((format_word(p), format_word(q), names))
    return AlignmentReport(
        n=pres.n,
        max_len=max_len,
        pair_count=len(nfs) ** 2,
        max_generators=max_generators,
        non_principal=tuple(non_principal),
        sampled=0,
        window=window,
        seed=DEFAULT_SEED,
        mismatches=tuple(mismatches),
        expected_non_principal=ideals._non_principal_count(pres, max_len),
    )


@pytest.mark.parametrize(
    "n, max_len", [(1, 3), (2, 3), (3, 2), (12, 2), ("skew", 3), ("fork", 3)]
)
def test_sweep_intersects_only_the_letter_pairs_with_two_tails(
    monkeypatch, n, max_len
):
    # a letter pair with one tail gives one generator, never raises and adds
    # nothing to the report, so the sweep calls _bases once for each u of
    # length < max_len and each letter pair with two or more tails: none in
    # the family at n >= 2, nor in "fork", whose letter pairs share one L
    # word each; "skew" raises on every pair it sweeps
    if n in ("skew", "fork"):
        relations = _skew_relations() if n == "skew" else _FORK
        pres = labelled_2(validate_generic(relations))
    else:
        pres = build_presentation(n)
    reference = _per_element_sweep(pres, max_len, max_len + 1)
    table = ideals._letter_partners(pres.relations)
    heavy = sum(len(tails) >= 2 for bs in table.values() for tails in bs.values())
    calls = []
    real = ideals._bases

    def counting(p, q, shared, n):
        calls.append((p, q))
        return real(p, q, shared, n)

    monkeypatch.setattr(ideals, "_bases", counting)
    assert verify_alignment(pres, max_len, 0, max_len + 1) == reference
    assert len(calls) == heavy * count_elements(pres, max_len - 1)
    assert heavy == (2 if n in (1, "skew") else 0)


@pytest.mark.parametrize("n", [1, 2])
def test_shared_extension_sweep_matches_all_pairs_under_a_fault(
    request, monkeypatch, n
):
    # elements ending in a P letter gain three planted extensions, p[:-1]
    # followed by a fixed two-letter word, so those with the same prefix
    # share more than either bound and every incomparable pair of them must
    # be reported; the plant keeps the form the sweep reads partners from,
    # and reaches the sweep through the letter table of its extensions
    pres = request.getfixturevalue(f"m{n}")
    real = q_extensions
    planted = [parse_word(w, pres) for w in ("c c", "b b", "a a")]

    def faulty(nf, pres):
        if nf and nf[-1] in pres.p_set:
            return real(nf, pres) | {nf[:-1] + w for w in planted}
        return real(nf, pres)

    monkeypatch.setattr(
        ideals, "_letter_partners", lambda _: extension_letter_partners(pres, faulty)
    )
    report = verify_alignment(pres, max_len=2, samples=0, window=3)
    assert any(m.startswith("(A1, d): ") for m in report.mismatches)
    assert report.to_dict() == _all_pairs_report(pres, 2, 3, faulty).to_dict()
    assert len(report.mismatches) == {1: 108, 2: 390}[n]


@pytest.mark.parametrize("n, max_len", [(1, 4), (3, 3), (50, 2)])
def test_sweep_builds_the_letter_table_once(monkeypatch, n, max_len):
    # the sweep and the oracle take every pair's shared extensions from one
    # letter table
    pres = build_presentation(n)
    calls = []
    real = ideals._letter_partners

    def counting(relations):
        calls.append(relations)
        return real(relations)

    monkeypatch.setattr(ideals, "_letter_partners", counting)
    report = verify_alignment(pres, max_len=max_len, samples=5, window=max_len + 1)
    assert report.ok and report.sampled == 5
    assert calls == [pres.relations]


def test_non_principal_pairs_counted_exactly(m1, m2, m3):
    # at n = 1 the non-principal ordered pairs of length <= L are the pairs
    # (u d, u A1) and (u A1, u d) for every u of length < L
    counts = []
    for max_len in range(1, 5):
        report = verify_alignment(m1, max_len=max_len, samples=0, window=max_len + 1)
        shorter = len(enumerate_elements(m1, max_len - 1))
        assert len(report.non_principal) == 2 * shorter
        assert report.max_generators == 2
        counts.append(len(report.non_principal))
    assert counts == [2, 18, 140, 1068]
    for pres in (m2, m3):
        for max_len in range(4):
            report = verify_alignment(
                pres, max_len=max_len, samples=0, window=max_len + 1
            )
            assert report.non_principal == () and report.max_generators == 1
            assert report.mismatches == ()


def test_meet_check_rejects_comparable_generators(m1):
    d, da = el("d", m1), el("d a", m1)
    ideal_d, ideal_da = ideal(d, m1), ideal(da, m1)
    assert ideals._is_meet((d,), [ideal_d], ideal_d)
    assert not ideals._is_meet((d, da), [ideal_d, ideal_da], ideal_d)


@pytest.mark.parametrize(
    "n, max_len, window", [(1, 3, 5), (2, 2, 4), (3, 3, 4), (12, 2, 3)]
)
def test_ideal_matches_the_closure_of_every_literal_extension(n, max_len, window):
    # every nonempty element and 50 seeded raw words, at every window from
    # their length up; at n = 12 token order differs from index order
    pres = build_presentation(n)
    rng = random.Random(n)
    roots = enumerate_elements(pres, max_len)[1:] + [
        tuple(rng.choices(pres.generators, k=rng.randint(1, max_len)))
        for _ in range(50)
    ]
    for root in roots:
        for w in range(len(root), window + 1):
            expected = ideal_by_literal_extensions(root, w, pres)
            assert ideal_words(root, w, pres) == expected, (root, w)


def test_ideal_matches_the_closure_of_every_literal_extension_at_window_7(m1):
    # every letter and 20 seeded two-letter words at n = 1, whose closures
    # within window 7 hold 74,898 to 374,491 words
    rng = random.Random(7)
    roots = [(x,) for x in m1.generators]
    roots += [tuple(rng.choices(m1.generators, k=2)) for _ in range(20)]
    for root in roots:
        expected = ideal_by_literal_extensions(root, 7, m1)
        assert ideal_words(root, 7, m1) == expected, root


def test_an_ideal_over_the_cap_across_the_boundary_names_its_root(monkeypatch):
    # x y1 has the 19 other P·Q words over x, p1..p4 and y1..y4 as R
    # partners, so the closure of the boundary steps of x holds those 20
    # words, 16 of them reached across the boundary, that begin with a p
    # letter; a budget of 20 holds it, one of 19 overruns, and the overrun
    # names the root, not the first boundary step
    letters = ("x", "p1", "p2", "p3", "p4")
    rights = [(a, f"y{i}") for a in letters for i in range(1, 5)][1:]
    pres = validate_generic([(("x", "y1"), right) for right in rights])
    root = ("x",)
    assert len(ideal(root, pres).antichain) == 17
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 20)
    assert brute_force_intersection(root, root, pres) == [root]
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 19)
    with pytest.raises(CapExceeded, match="^closure of x exceeds 19 words"):
        brute_force_intersection(root, root, pres)


@pytest.mark.parametrize("n, max_len", [(1, 3), (2, 2), (12, 2)])
def test_sweep_calls_no_divisibility(monkeypatch, n, max_len):
    # a swept pair is u a, u b, two distinct normal forms of one length, so
    # neither divides the other and the sweep asks no divisibility at all
    pres = build_presentation(n)
    expected = verify_alignment(pres, max_len, 0, max_len + 1)
    calls = []
    real = ideals._left_divides_nf

    def counting(p, q, pres):
        calls.append((p, q))
        return real(p, q, pres)

    monkeypatch.setattr(ideals, "_left_divides_nf", counting)
    assert verify_alignment(pres, max_len, 0, max_len + 1) == expected
    assert calls == []


def test_oracle_builds_each_ideal_once(m1, monkeypatch):
    roots = Counter()
    real = ideals._ideal

    def counting(root, pres, swaps):
        roots[root] += 1
        return real(root, pres, swaps)

    monkeypatch.setattr(ideals, "_ideal", counting)
    report = verify_alignment(m1, max_len=2, samples=70 * 70, window=4)
    assert report.ok and report.sampled == 70 * 70
    assert roots and max(roots.values()) == 1
    assert () not in roots  # the identity's ideal is never built


def test_oracle_holds_each_ideal_as_an_antichain(m1, monkeypatch):
    # no word of an ideal the exhaustive oracle builds is a prefix of
    # another, each ideal's prefixes are those of its words, and every word
    # has the root's length or one more; the oracle builds the ideal of
    # every nonempty element, and of the generators of base-search meets
    built = {}
    real = ideals._ideal

    def kept(root, pres, swaps):
        built[root] = real(root, pres, swaps)
        return built[root]

    monkeypatch.setattr(ideals, "_ideal", kept)
    assert verify_alignment(m1, max_len=2, samples=70 * 70, window=5).ok
    assert set(built) > set(enumerate_elements(m1, 2)[1:])
    for root, found in built.items():
        words = found.antichain
        prefixes = {a[:k] for a in words for k in range(1, len(a))}
        assert words and words.isdisjoint(prefixes)
        assert found.prefixes == prefixes | words
        assert {len(a) for a in words} <= {len(root), len(root) + 1}


def test_window_7_oracle_memory_peak(m1):
    # every pair at n = 1, max-len 2, at window 7: 0.47 MiB traced on
    # Python 3.11; as word sets the ideals filled about 685 MB of peak RSS
    tracemalloc.start()
    try:
        report = verify_alignment(m1, 2, 70 * 70, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.sampled == 70 * 70
    assert peak < 50 * 2**20, f"{peak / 2**20:.2f} MiB"


_FAULTS = ["none", "p", "q", "extra"]


@pytest.mark.parametrize(
    "pairs, fault",
    [("all", f) for f in _FAULTS] + [("with-identity", f) for f in _FAULTS],
    ids=_FAULTS + [f"with-identity-{f}" for f in _FAULTS],
)
def test_oracle_reports_exactly_the_wrong_meets_of_each_kind(
    m1, monkeypatch, pairs, fault
):
    # on every pair at n = 1, max-len 2, in ascending position order, 400
    # seeded pairs get no generators, (p,), (q,) or one generator too many;
    # the oracle reports exactly those whose generators differ from the
    # brute-force minimal common multiples, in the order of the positions
    # given, whichever check decides the pair.  The 139 pairs that hold the
    # identity, shuffled, are all planted: each is decided by definition,
    # and only (1, 1) and a meet of the other element alone hold
    nfs = enumerate_elements(m1, 2)
    sample = list(product(nfs, repeat=2))
    if pairs == "all":
        planted = set(random.Random(fault).sample(sample, 400))
    else:
        sample = [(p, q) for p, q in sample if not (p and q)]
        random.Random(fault).shuffle(sample)
        planted = set(sample)
    real = ideals._meet

    def faulty(p, q, shared, pres):
        provenance, gens = real(p, q, shared, pres)
        if (p, q) in planted:
            extra = (*gens, left_normal_form(p + q + ("a",), pres))
            gens = {"none": (), "p": (p,), "q": (q,), "extra": extra}[fault]
        return provenance, gens

    monkeypatch.setattr(ideals, "_meet", faulty)
    partners = ideals._letter_partners(m1.relations)
    expected, oracle = [], {}
    for p, q in sample:
        if (p, q) not in planted:
            continue
        shared = ideals._shared(q, p[:-1], ideals._row(p, partners))
        gens = sorted(faulty(p, q, shared, m1)[1], key=element_key)
        minimal = oracle[p, q] = brute_force_intersection(p, q, m1)
        if gens != minimal:
            expected.append(
                f"({format_word(p)}, {format_word(q)}): fast generators "
                f"{[format_word(g) for g in gens]} vs "
                f"oracle {[format_word(m) for m in minimal]}"
            )
    if pairs == "with-identity":
        # the check builds no ideal, and a wrong pair's description reads
        # the minimal common multiples found above
        monkeypatch.setattr(
            ideals, "_ideal", lambda root, *args: pytest.fail(f"ideal of {root}")
        )
        monkeypatch.setattr(
            ideals, "brute_force_intersection", lambda p, q, pres: oracle[p, q]
        )
    index = {w: i for i, w in enumerate(nfs)}
    positions = [index[p] * len(nfs) + index[q] for p, q in sample]
    if pairs == "all":
        assert positions == sorted(positions)
    found = ideals._oracle_mismatches(positions, nfs, m1, partners)
    assert list(found.values()) == expected
    assert 0 < len(expected) <= len(planted)
    if pairs == "all":
        assert fault == "extra" or len(expected) < len(planted)
    else:  # a planted (p,) is wrong when p alone is the identity, (q,) likewise
        wrong = {"none": 139, "p": 69, "q": 69, "extra": 139}[fault]
        assert len(expected) == wrong


def test_ideal_over_a_cap_read_at_call_time_names_its_root(m1, monkeypatch):
    # the class of d is d alone, and the closure of its boundary steps A1 C1
    # and A1 D1 adds d a and d b, which d's class covers; that closure fits
    # a budget of 4 and overruns one of 3, both set after import, and the
    # overrun names the root, not the first boundary step
    d = el("d", m1)
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 4)
    raw = {parse_word(w, m1) for w in ("A1 C1", "A1 D1")}
    assert ideal(d, m1).antichain == {d} | raw
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 3)
    with pytest.raises(CapExceeded, match="^closure of d exceeds 3 words"):
        ideal(d, m1)


def test_oracle_does_not_depend_on_the_rewriting_code(m1, monkeypatch):
    # ideals are antichains of raw words, never reduced, so a planted fault
    # in reduce_word reaches neither an ideal nor the verdict of a clean
    # sweep; the oracle's listing of the pairs that meet reads only those
    # antichains, so faults in reduce_word and the closed-form divisibility
    # leave it unchanged
    root = el("d", m1)
    clean = ideal_words(root, 4, m1)
    nfs = enumerate_elements(m1, 2)
    meeting = ideals._oracle_meeting(nfs, m1, {})
    monkeypatch.setattr(ideals, "reduce_word", lambda w, pres: w[::-1])
    assert ideal_words(root, 4, m1) == clean
    assert verify_alignment(m1, 2, 4900, 4).ok
    monkeypatch.setattr(ideals, "_left_divides_nf", lambda p, q, pres: None)
    assert ideals._oracle_meeting(nfs, m1, {}) == meeting


def test_oracle_reports_mismatches_in_sample_order(m1, monkeypatch):
    # with no divisibility every meet is the shared extensions, so many
    # sampled meets are wrong; the ideals and each first element's row of
    # the letter table are shared across the sorted positions, and the
    # mismatches, read back in sample order, come back as a pair-by-pair
    # check reports them
    monkeypatch.setattr(ideals, "_left_divides_nf", lambda p, q, pres: None)
    nfs = enumerate_elements(m1, 2)
    rng = random.Random(11)
    index = {w: i for i, w in enumerate(nfs)}
    sample = [
        index[rng.choice(nfs)] * len(nfs) + index[rng.choice(nfs)] for _ in range(300)
    ]
    partners = ideals._letter_partners(m1.relations)
    found = ideals._oracle_mismatches(sorted(set(sample)), nfs, m1, partners)
    one_by_one = [
        m
        for pos in sample
        for m in ideals._oracle_mismatches([pos], nfs, m1, partners).values()
    ]
    assert len(found) >= 10
    assert [found[pos] for pos in sample if pos in found] == one_by_one


def test_exhaustive_clean_run_draws_no_sample(m1, monkeypatch):
    # a sample of every pair checks the pairs in position order; the seeded
    # draw would only order the failures, and a clean run has none
    def drawn(*args, **kwargs):
        pytest.fail("a sample was drawn")

    monkeypatch.setattr(random.Random, "sample", drawn)
    for samples in (4900, 10**9):
        report = verify_alignment(m1, 2, samples, 4)
        assert report.ok and report.sampled == 4900


@pytest.mark.parametrize("samples", [300, 4900], ids=["sampled", "exhaustive"])
def test_oracle_checks_each_pair_once_in_position_order(m1, monkeypatch, samples):
    # the pairs reach _meet once each, by ascending position i * 70 + j, so
    # grouped by their first element, whose row of the letter table is read
    # once; a check of every pair calls _meet only on the 372 pairs that
    # meet, each element with itself among them
    nfs = enumerate_elements(m1, 2)
    if samples < 4900:
        positions = sorted(random.Random(3).sample(range(4900), samples))
    else:
        positions = [
            i * 70 + j
            for i, p in enumerate(nfs)
            for j, q in enumerate(nfs)
            if intersect_principal(p, q, m1).kind != EMPTY
        ]
        assert len(positions) == 372
    expected = [(nfs[i // 70], nfs[i % 70]) for i in positions]
    calls, rows = [], Counter()
    real_meet, real_row = ideals._meet, ideals._row

    def meet(p, q, shared, pres):
        calls.append((p, q))
        return real_meet(p, q, shared, pres)

    def row(p, partners):
        rows[p] += 1
        return real_row(p, partners)

    monkeypatch.setattr(ideals, "_meet", meet)
    monkeypatch.setattr(ideals, "_row", row)
    assert verify_alignment(m1, 2, samples, 5, seed=3).ok
    assert calls == expected
    assert list(rows) == list(dict.fromkeys(p for p, _ in expected))
    assert set(rows.values()) == {1}


@pytest.mark.parametrize("n, max_len", [(1, 3), (2, 2), (3, 2)])
def test_left_divisors_in_closed_form(n, max_len, monkeypatch):
    # the listed left divisors of every element are exactly the elements
    # that divide it, by the closed form and by the search over classes,
    # whose classes are memoised here
    pres = build_presentation(n)
    nfs = enumerate_elements(pres, max_len)
    classes = {}
    search = congruence.equality_class

    def memoised(w, pres):
        if w not in classes:
            classes[w] = search(w, pres)
        return classes[w]

    monkeypatch.setattr(congruence, "equality_class", memoised)
    for m in nfs:
        listed = set(rewriting._left_divisors(m, pres))
        assert listed == {
            p for p in nfs if rewriting._left_divides_nf(p, m, pres) is not None
        }
        assert listed == {p for p in nfs if left_divides(p, m, pres) is not None}


@pytest.mark.parametrize("n, max_len", [(1, 2), (2, 2)])
def test_meeting_sets_are_the_pairs_that_meet(n, max_len, monkeypatch):
    # checked pair by pair: the fast listing holds exactly the pairs that
    # _meet gives a generator, and the oracle's exactly those whose minimal
    # common multiples are not empty; brute_force_intersection reads the
    # ideals the oracle's listing built
    pres = build_presentation(n)
    nfs = enumerate_elements(pres, max_len)
    count = len(nfs)
    partners = ideals._letter_partners(pres.relations)
    fast = ideals._fast_meeting(nfs, pres, partners, count**2)
    held = {}
    oracle = ideals._oracle_meeting(nfs, pres, held)
    monkeypatch.setattr(ideals, "_ideal", lambda root, pres, swaps: held[root])
    meets, common = set(), set()
    for i, p in enumerate(nfs):
        row = ideals._row(p, partners)
        for j, q in enumerate(nfs):
            if ideals._meet(p, q, ideals._shared(q, p[:-1], row), pres)[1]:
                meets.add(i * count + j)
            if brute_force_intersection(p, q, pres):
                common.add(i * count + j)
    assert fast == meets
    assert oracle == common
    assert len(common) == {1: 372, 2: 872}[n]


@pytest.mark.parametrize(
    "plant, flagged",
    [
        (
            "drop",  # d, a divisor of d a, dropped
            [
                "(d a, d): fast generators [] vs oracle ['d a']",
                "(d, d a): fast generators [] vs oracle ['d a']",
            ],
        ),
        (
            "add",  # c, whose ideal misses that of d a, listed as a divisor
            [
                "(c, d a): fast generators ['d a'] vs oracle []",
                "(d a, c): fast generators ['d a'] vs oracle []",
            ],
        ),
    ],
)
def test_oracle_reports_a_fault_in_the_fast_listing(m1, monkeypatch, plant, flagged):
    # a pair in one meeting listing only fails, though _meet decides it
    # right, and is reported in the standard form, with the generators the
    # listing gives it
    m, d, c = el("d a", m1), el("d", m1), el("c", m1)
    real = rewriting._left_divisors

    def planted(w, pres):
        listed = list(real(w, pres))
        if w != m:
            return listed
        if plant == "drop":
            return [x for x in listed if x != d]
        return listed + [c]

    monkeypatch.setattr(ideals, "_left_divisors", planted)
    report = verify_alignment(m1, 2, 4900, 4)
    assert sorted(report.mismatches) == flagged
    assert not report.ok


def test_oracle_misses_a_false_divisor_off_both_listings(m1, monkeypatch):
    # a check of every pair proves the pairs outside the two listings rather
    # than checking them, so a fault where _left_divides_nf finds c dividing
    # d a, a pair whose ideals are disjoint and which the closed-form
    # divisors do not list, reaches neither listing and passes; a sample
    # that draws the pair catches it
    c, m = el("c", m1), el("d a", m1)
    real = rewriting._left_divides_nf

    def planted(p, q, pres):
        return () if (p, q) == (c, m) else real(p, q, pres)

    monkeypatch.setattr(ideals, "_left_divides_nf", planted)
    assert verify_alignment(m1, 2, 4900, 4).ok
    assert sorted(verify_alignment(m1, 2, 4899, 4).mismatches) == [
        "(c, d a): fast generators ['d a'] vs oracle []",
        "(d a, c): fast generators ['d a'] vs oracle []",
    ]


def test_oracle_reports_by_position_every_pair_over_the_budget(m1, monkeypatch):
    # a check of every pair over DEFAULT_CAP pairs, whose meeting pairs fit
    # it, reports its failures by ascending position, with no draw of every
    # position; at or under the budget they keep the seeded draw's order
    monkeypatch.setattr(ideals, "_left_divides_nf", lambda p, q, pres: None)
    drawn = verify_alignment(m1, 2, 4900, 4).mismatches
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 372)

    def unreached(*args, **kwargs):
        pytest.fail("a sample was drawn")

    monkeypatch.setattr(random.Random, "sample", unreached)
    report = verify_alignment(m1, 2, 4900, 4)
    index = {format_word(w): i for i, w in enumerate(enumerate_elements(m1, 2))}
    positions = [
        index[p] * 70 + index[q]
        for p, q in (f[1 : f.index(")")].split(", ") for f in report.mismatches)
    ]
    assert len(drawn) >= 100
    assert sorted(report.mismatches) == sorted(drawn)
    assert list(report.mismatches) != list(drawn)
    assert positions == sorted(positions)


def test_oversized_oracle_sample_refused_before_listing(m1, monkeypatch):
    # at max-len 3 a sample of DEFAULT_CAP + 1 would ask for all 534^2 =
    # 285,156 pairs; at max-len 4 it asks for 1,000,001 of 16.5 million,
    # and is refused before any element is listed or index drawn
    def unreached(*args, **kwargs):
        pytest.fail("elements listed or a sample drawn")

    monkeypatch.setattr(ideals, "enumerate_elements", unreached)
    monkeypatch.setattr(random.Random, "sample", unreached)
    cap = congruence.DEFAULT_CAP
    message = f"^an oracle sample of {cap + 1} pairs is over the budget of {cap} pairs$"
    with pytest.raises(ValueError, match=message):
        verify_alignment(m1, 4, cap + 1, 5)
    with pytest.raises(ValueError, match="sample of 1000000000 pairs"):
        verify_alignment(m1, 6, 10**9, 7)


def test_oracle_sample_budget_read_at_call_time(m1, monkeypatch):
    # a check of every pair at max-len 2 is budgeted on its 372 meeting
    # pairs: it fits a budget of 372 and overruns one of 371, refused while
    # the pairs are listed, before any ideal is built; more samples than
    # pairs ask for every pair.  A sample of 4,899 of the 4,900 pairs fits a
    # budget of 4,899 and overruns one of 4,898
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 372)
    for samples in (4900, 10**9):
        report = verify_alignment(m1, 2, samples, 4)
        assert report.ok and report.sampled == 4900
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 371)
    monkeypatch.setattr(
        ideals, "_ideal", lambda root, *args: pytest.fail(f"ideal of {root}")
    )
    message = "^an oracle check of every pair is over the budget of 371 meeting pairs$"
    with pytest.raises(ValueError, match=message):
        verify_alignment(m1, 2, 4900, 4)
    monkeypatch.undo()
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 4899)
    assert verify_alignment(m1, 2, 4899, 4).ok
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 4898)
    with pytest.raises(ValueError, match="^an oracle sample of 4899 pairs is over"):
        verify_alignment(m1, 2, 4899, 4)


def test_oracle_reports_a_self_pair_with_a_wrong_meet(m1, monkeypatch):
    # a pair (p, p) shares no extension, so with no divisibility its meet is
    # empty and the oracle reports it; only a pair of distinct partners can
    # raise, and the sweep intersects and reports every such pair
    monkeypatch.setattr(ideals, "_left_divides_nf", lambda p, q, pres: None)
    report = verify_alignment(m1, 2, 300, 5, seed=3)
    for w in ("A1 a", "c b", "d c"):
        assert f"({w}, {w}): fast generators [] vs oracle ['{w}']" in report.mismatches
    assert len(report.mismatches) == 19


def test_oracle_memory_peak(m1):
    # each ideal is held as its prefix antichain: 0.07 MiB traced on Python
    # 3.11, against 4.09 MiB when each was its set of words, held for one
    # block of the sample, and 7.59 MiB when the ideals were sets of normal
    # forms; the bound is about 1.4 times 4.30 MiB, a reading with word sets
    tracemalloc.start()
    try:
        report = verify_alignment(m1, 2, 300, 5, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 6 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_alignment_report_n2(m2):
    report = verify_alignment(m2, max_len=2, samples=20, window=4)
    assert report.n == 2
    assert report.bound == 1
    assert report.ok
    assert report.max_generators == 1
    assert report.non_principal == ()
    assert report.mismatches == ()


def test_alignment_report_serializes(m1):
    report = verify_alignment(m1, max_len=1, samples=5, window=3)
    data = report.to_dict()
    assert data["n"] == 1
    assert data["bound"] == 2
    assert data["ok"] is True
    assert data["sampled"] == 5
    assert isinstance(data["non_principal"], list)


def test_alignment_sampling_is_seeded(m1):
    a = verify_alignment(m1, max_len=1, samples=5, window=3, seed=7)
    b = verify_alignment(m1, max_len=1, samples=5, window=3, seed=7)
    assert a == b


def _skew_relations():
    def word(text):
        return tuple(text.split())

    return [(word("d a"), word("A1 C1")), (word("d b"), word("A1 D1"))]


# the L word a b with two R partners
_FORK = [("ab", "cd"), ("ab", "ef")]


@pytest.mark.parametrize("n", list(range(1, 31)) + ["skew", "fork"])
def test_letter_partners_read_off_the_relations(n):
    # "fork" gives the L word a b two R partners, so c and e share it
    if n == "skew":
        pres = validate_generic(_skew_relations())
    elif n == "fork":
        pres = validate_generic(_FORK)
    else:
        pres = build_presentation(n)
    table = ideals._letter_partners(pres.relations)
    assert table == extension_letter_partners(pres, q_extensions)
    assert list(table) == sorted(table)
    assert all(list(bs) == sorted(bs) for bs in table.values())


def _outcome(meet):
    """meet(), or the message of the AlignmentViolation it raises."""
    try:
        return meet()
    except AlignmentViolation as exc:
        return str(exc)


@pytest.mark.parametrize(
    "n, max_len", [(1, 2), (2, 2), (3, 2), (12, 1), ("skew", 2), ("fork", 2)]
)
def test_intersect_principal_matches_the_extension_sets(n, max_len):
    # the letter table against each element's own extensions, on every
    # ordered pair; at n = 12 token order (A10 before A2) differs from
    # index order, "skew" must raise on the same pairs, and in "fork" the
    # letters c and e share a b through two R words
    if n == "skew":
        pres = labelled_2(validate_generic(_skew_relations()))
    elif n == "fork":
        pres = labelled_2(validate_generic(_FORK))
    else:
        pres = build_presentation(n)
    nfs = enumerate_elements(pres, max_len)
    extensions = {w: q_extensions(w, pres) for w in nfs}
    raised = 0
    for p, q in product(nfs, repeat=2):
        shared = extensions[p] & extensions[q]
        expected = _outcome(lambda: ideals._meet(p, q, shared, pres))
        found = _outcome(lambda: intersect_principal(p, q, pres))
        if isinstance(expected, str):
            raised += 1
            assert found == expected
        else:
            provenance, gens = expected
            assert isinstance(found, ideals.IntersectionResult)
            assert found.provenance == provenance
            assert found.generators == tuple(sorted(gens, key=element_key))
    assert bool(raised) == (n == "skew")


def test_foreign_presentation_trips_alignment_check():
    # d a = A1 C1 together with d b = A1 D1 gives the pair (d, A1) two
    # incomparable common extensions, which the family never does at n = 2
    fake = labelled_2(validate_generic(_skew_relations()))
    p = el("d", fake)
    q = el("A1", fake)
    with pytest.raises(AlignmentViolation):
        intersect_principal(p, q, fake)
