import random
import tracemalloc
from collections import Counter
from itertools import permutations, product

import pytest

from malcev import congruence, ideals
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
    common_multiples,
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


def q_extensions(nf, pres):
    """Reference: normal forms of nf times each Q letter, for a normal form
    nf, by one boundary step.  For a normal form p and a letter x, the
    normal form of p x is p[:-1] followed by the pair p[-1] x, or by its L
    partner when that pair is an R word, and is just (x,) when p is the
    identity; the L partner starts with a P letter, so it forms no R word
    with p[-2]."""
    rewrite = pres.rewrite_map
    head, tail = nf[:-1], nf[-1:]
    pairs = (tail + (x,) for x in pres.q_letters)
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


def ideal(root, window, pres):
    return ideals._ideal(root, window, pres, ideals._boundary_swaps(pres))


def ideal_words(root, window, pres):
    """Every word of root's ideal: each word of its antichain followed by
    each word over the generators that keeps it within the window."""
    return frozenset(
        a + x
        for a in ideal(root, window, pres).antichain
        for extra in range(window - len(a) + 1)
        for x in product(pres.generators, repeat=extra)
    )


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
    got = brute_force_intersection(el("A1", m1), el("d", m1), 4, m1)
    assert [format_word(g) for g in got] == ["A1 D1", "d a"]

    got = brute_force_intersection(el("A1", m2), el("d", m2), 4, m2)
    assert [format_word(g) for g in got] == ["d a"]

    assert brute_force_intersection(el("d", m1), el("d", m1), 2, m1) == [el("d", m1)]
    assert brute_force_intersection(el("a", m1), el("b", m1), 5, m1) == []


def test_common_multiples_match_divisibility(m1):
    d = el("d", m1)
    common = common_multiples(d, d, 3, m1)
    expected = [
        e
        for e in enumerate_elements(m1, 3)
        if left_divides(d, e, m1) is not None
    ]
    assert common == expected


def test_generator_predecessors_are_not_common_multiples(m1):
    # minimality seen on the graph: no proper divisor of a generator lies in
    # both ideals
    p, q = el("A1", m1), el("d", m1)
    common = set(common_multiples(p, q, 4, m1))
    for g in intersect_principal(p, q, m1).generators:
        assert g in common
        for source, _ in predecessors(g, m1):
            assert source not in common


def test_window_too_small(m1):
    with pytest.raises(WindowTooSmall):
        common_multiples(el("d", m1), el("d", m1), 1, m1)
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
            common = common_multiples(p, q, 3, m1)
            if gens != brute_force_intersection(p, q, 3, m1) or (
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
        expected = {reduce_word(w + (x,), pres) for x in pres.q_letters}
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
            return real(nf, pres) - {reduce_word(nf + pres.q_letters[:1], pres)}
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
    ideal_d, ideal_da = ideal(d, 3, m1), ideal(da, 3, m1)
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
    # the largest window the CLI admits at n = 1: every letter and 20
    # seeded two-letter words, whose closures hold 74,898 to 374,491 words
    rng = random.Random(7)
    roots = [(x,) for x in m1.generators]
    roots += [tuple(rng.choices(m1.generators, k=2)) for _ in range(20)]
    for root in roots:
        expected = ideal_by_literal_extensions(root, 7, m1)
        assert ideal_words(root, 7, m1) == expected, root


def test_common_multiples_count_the_whole_ideal_against_the_cap(m1, monkeypatch):
    # within window 4 the ideals of d and A1 hold 731 words each, 585 of
    # them literal extensions; the budget is read at call time, and an
    # overrun names the root whether the extensions alone exceed it or not
    d, a1 = el("d", m1), el("A1", m1)
    expected = common_multiples(d, a1, 4, m1)
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 731)
    assert common_multiples(d, a1, 4, m1) == expected
    for cap in (730, 600, 585, 584):
        monkeypatch.setattr(congruence, "DEFAULT_CAP", cap)
        with pytest.raises(CapExceeded, match=f"^closure of d exceeds {cap} words"):
            common_multiples(d, a1, 4, m1)
    # about 9.8 billion literal extensions within window 12: refused before
    # they fill memory
    with pytest.raises(CapExceeded, match="^closure of d exceeds 584 words"):
        common_multiples(d, a1, 12, m1)


def test_an_ideal_far_over_the_cap_builds_no_extension(m1, monkeypatch):
    # the literal extensions are counted, not listed, before any is built
    built = []
    real = ideals.product

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ideals, "product", counting)
    cap = congruence.DEFAULT_CAP
    with pytest.raises(CapExceeded, match=f"^closure of d exceeds {cap} words"):
        ideal(el("d", m1), 12, m1)
    assert built == []


def test_an_ideal_over_the_cap_across_the_boundary_names_its_root(monkeypatch):
    # x y1 has the 19 other P·Q words over x, p1..p4 and y1..y4 as R
    # partners, so within window 3 the 91 literal extensions of x reach 200
    # words across the boundary, and the search from there is what overruns
    letters = ("x", "p1", "p2", "p3", "p4")
    rights = [(a, f"y{i}") for a in letters for i in range(1, 5)][1:]
    pres = validate_generic([(("x", "y1"), right) for right in rights])
    root = ("x",)
    assert len(ideal_by_literal_extensions(root, 3, pres)) == 251
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 100)
    with pytest.raises(CapExceeded, match="^closure of x exceeds 100 words"):
        common_multiples(root, root, 3, pres)


def test_oracle_builds_each_ideal_once(m1, monkeypatch):
    roots = Counter()
    real = ideals._ideal

    def counting(root, window, pres, swaps):
        roots[root] += 1
        return real(root, window, pres, swaps)

    monkeypatch.setattr(ideals, "_ideal", counting)
    report = verify_alignment(m1, max_len=2, samples=70 * 70, window=4)
    assert report.ok and report.sampled == 70 * 70
    assert roots and max(roots.values()) == 1
    assert () not in roots  # the identity's ideal is never built


def test_oracle_holds_each_ideal_as_an_antichain(m1, monkeypatch):
    # no word of an ideal the exhaustive oracle builds is a prefix of
    # another, and each ideal's prefixes are those of its words; the
    # oracle builds the ideal of every nonempty element, and of the
    # generators of base-search meets
    built = {}
    real = ideals._ideal

    def kept(root, window, pres, swaps):
        built[root] = real(root, window, pres, swaps)
        return built[root]

    monkeypatch.setattr(ideals, "_ideal", kept)
    assert verify_alignment(m1, max_len=2, samples=70 * 70, window=5).ok
    assert set(built) > set(enumerate_elements(m1, 2)[1:])
    for found in built.values():
        words = found.antichain
        prefixes = {a[:k] for a in words for k in range(1, len(a))}
        assert words and words.isdisjoint(prefixes)
        assert found.prefixes == prefixes | words


def test_window_7_oracle_memory_peak(m1):
    # every pair at n = 1, max-len 2, at the largest window the CLI admits:
    # 0.47 MiB traced on Python 3.11; as word sets the ideals filled about
    # 685 MB of peak RSS
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
    # on the exhaustive n = 1, window 4 sample, 400 seeded pairs get no
    # generators, (p,), (q,) or one generator too many; the oracle reports
    # exactly those whose generators differ from the brute-force minimal
    # common multiples, in sample order, whichever check decides the pair.
    # The 139 pairs that hold the identity, shuffled, are all planted: each
    # is decided by definition, and only (1, 1) and a meet of the other
    # element alone hold
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
        shared = ideals._shared(p, q, partners)
        gens = sorted(faulty(p, q, shared, m1)[1], key=element_key)
        minimal = oracle[p, q] = brute_force_intersection(p, q, 4, m1)
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
            ideals, "brute_force_intersection", lambda p, q, w, pres: oracle[p, q]
        )
    assert ideals._oracle_mismatches(sample, 4, m1, partners) == expected
    assert 0 < len(expected) <= len(planted)
    if pairs == "all":
        assert fault == "extra" or len(expected) < len(planted)
    else:  # a planted (p,) is wrong when p alone is the identity, (q,) likewise
        wrong = {"none": 139, "p": 69, "q": 69, "extra": 139}[fault]
        assert len(expected) == wrong


def test_window_refusal_names_the_budget_read_at_call_time(m1, monkeypatch):
    # the ideal of a within window 4 has 585 seed words, over a budget of
    # 100 set after import, and the refusal names that budget
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 100)
    with pytest.raises(ValueError) as raised:
        verify_alignment(m1, 1, 5, 4)
    assert str(raised.value) == (
        "window 4 is too large for the oracle: the ideal of a has 585 seed "
        "words, over the closure cap of 100"
    )


def test_oracle_does_not_depend_on_the_rewriting_code(m1, monkeypatch):
    # ideals are antichains of raw words, never reduced, so a planted fault
    # in reduce_word reaches neither an ideal nor the verdict of a clean sweep
    root = el("d", m1)
    clean = ideal_words(root, 4, m1)
    monkeypatch.setattr(ideals, "reduce_word", lambda w, pres: w[::-1])
    assert ideal_words(root, 4, m1) == clean
    assert verify_alignment(m1, 2, 4900, 4).ok


def test_oracle_reports_mismatches_in_sample_order(m1, monkeypatch):
    # with no divisibility every meet is the shared extensions, so many
    # sampled meets are wrong; the ideals are shared across the sample, and
    # the mismatches come back as a pair-by-pair check reports them
    monkeypatch.setattr(ideals, "_left_divides_nf", lambda p, q, pres: None)
    nfs = enumerate_elements(m1, 2)
    rng = random.Random(11)
    sample = [(rng.choice(nfs), rng.choice(nfs)) for _ in range(300)]
    partners = ideals._letter_partners(m1.relations)
    found = ideals._oracle_mismatches(sample, 5, m1, partners)
    one_by_one = [
        m
        for pair in sample
        for m in ideals._oracle_mismatches([pair], 5, m1, partners)
    ]
    assert len(found) >= 10
    assert found == one_by_one


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


def test_common_multiples_with_identity(m3):
    # the identity's ideal holds every word of the window (1,118,481 at n=3,
    # window 5, over the closure cap), so the meet is the other ideal
    one, q = el("1", m3), el("d a", m3)
    expected = sorted(
        {
            left_normal_form(q + w, m3)
            for extra in range(4)
            for w in product(m3.generators, repeat=extra)
        },
        key=element_key,
    )
    assert common_multiples(one, q, 5, m3) == expected
    assert common_multiples(q, one, 5, m3) == expected


def test_common_multiples_of_identity_with_itself(m1):
    one = el("1", m1)
    assert common_multiples(one, one, 3, m1) == enumerate_elements(m1, 3)
