from collections import defaultdict
from itertools import count, product
from types import SimpleNamespace

import pytest

from malcev import congruence
from malcev.congruence import (
    DEFAULT_CAP,
    CapExceeded,
    closure,
    equality_class,
    left_divides,
    partition_agreement,
    word_count,
)
from malcev.presentation import ForeignLetter, format_word, parse_word
from malcev.rewriting import _Codec, enumerate_elements, equal, reduce_word


def w(text, pres):
    return parse_word(text, pres)


def words_set(texts, pres):
    return {w(t, pres) for t in texts}


def test_class_of_relation_side(m1):
    cls = equality_class(w("d a", m1), m1)
    assert cls[0] == w("d a", m1)
    assert set(cls) == words_set(["d a", "A1 C1"], m1)
    assert len(cls) == 2
    assert w("A1 C1", m1) in cls
    assert w("c b", m1) not in cls


def test_class_of_identity_and_irreducibles(m1):
    assert set(equality_class((), m1)) == {()}
    assert set(equality_class(w("c a", m1), m1)) == {w("c a", m1)}
    assert set(equality_class(w("d", m1), m1)) == {w("d", m1)}


def test_class_chains_through_relations(m1):
    # d b ~ A1 D1 and c b ~ B1 D1, each a two-step orbit
    assert set(equality_class(w("d b", m1), m1)) == words_set(
        ["d b", "A1 D1"], m1
    )
    assert set(equality_class(w("c b", m1), m1)) == words_set(
        ["c b", "B1 D1"], m1
    )


def test_members_preserve_length_and_position_classes(m2):
    start = w("a b a C2 d b c A1 B1 D1", m2)
    cls = equality_class(start, m2)
    pattern = tuple(x in m2.p_set for x in start)
    for member in cls:
        assert len(member) == len(start)
        assert tuple(x in m2.p_set for x in member) == pattern


def class_size(nf, pres):
    """The product, over the L-word factors of a normal form, of 1 + its
    number of R partners: each factor is one slot, and the slots are chosen
    independently."""
    size = 1
    for i in range(len(nf) - 1):
        if nf[i : i + 2] in pres.l_words:
            size *= 1 + len(pres.partners[nf[i : i + 2]])
    return size


def test_class_size_is_a_product_over_slots(m1, m2, m3):
    for pres, max_len in ((m1, 4), (m2, 3), (m3, 3)):
        for e in enumerate_elements(pres, max_len):
            assert len(equality_class(e, pres)) == class_size(e, pres), e


def test_class_sizes_sum_to_all_words(m1, m2, m3):
    for pres in (m1, m2, m3):
        sizes = [0] * 5
        for e in enumerate_elements(pres, 4):
            sizes[len(e)] += class_size(e, pres)
        assert sizes == [len(pres.generators) ** k for k in range(5)]


def test_class_rejects_foreign_letters(m1, m2):
    with pytest.raises(ForeignLetter):
        equality_class(w("A2 D2", m2), m1)


def test_cap_exceeded(m1, monkeypatch):
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 1)
    with pytest.raises(CapExceeded):
        equality_class(w("d a", m1), m1)


def test_closure_reads_seeds_lazily_against_cap(m1, monkeypatch):
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 10)
    a = w("a", m1)
    endless = (a * k for k in count(1))  # distinct, and no relation applies
    with pytest.raises(CapExceeded, match="closure of a exceeds 10 words"):
        closure(endless, m1)


def test_cap_exceeded_names_the_fixed_budget(m1, monkeypatch):
    monkeypatch.setattr(congruence, "DEFAULT_CAP", 1)
    with pytest.raises(CapExceeded) as info:
        equality_class(w("d a", m1), m1)
    assert str(info.value) == (
        "closure of d a exceeds 1 words, the fixed word budget "
        "congruence.DEFAULT_CAP"
    )


def test_word_count_against_the_budget(m1, m3, m5):
    for pres in (m1, m3):
        for max_len in range(4):
            lengths = range(max_len + 1)
            words = [u for k in lengths for u in product(pres.generators, repeat=k)]
            assert word_count(pres, max_len) == len(words)
    assert word_count(m1, -1) == 0
    # G = 16 at n = 3: radius 4 is the largest that fits, 5 is over
    assert word_count(m3, 4) == 69905 <= DEFAULT_CAP
    assert word_count(m3, 5) == 1118481 > DEFAULT_CAP
    assert word_count(m1, 6) == 299593 <= DEFAULT_CAP < word_count(m1, 7) == 2396745
    assert word_count(m5, 6) == 199411801


def test_closure_of_seeds_is_union_of_classes(m1, m2):
    for pres, texts in (
        (m1, ["d a", "A1 C1", "d b d b", "c", "d a"]),
        (m2, ["B2 C2 d", "c b", "B2 C2 d", "1"]),
    ):
        seeds = [w(t, pres) for t in texts]
        words = closure(iter(seeds), pres)
        assert words[: len(set(seeds))] == list(dict.fromkeys(seeds))
        assert len(words) == len(set(words))
        assert set(words) == set().union(
            *(set(equality_class(s, pres)) for s in seeds)
        )


def test_transitions_order_and_content(m1):
    # the search lists the seed, then its one-step neighbours: positions
    # scan left to right, partners in presentation order
    out = equality_class(w("d a d b", m1), m1)[:3]
    assert out == (
        w("d a d b", m1),
        w("A1 C1 d b", m1),  # (d a, A1 C1) applied at 0
        w("d a A1 D1", m1),  # (A1 D1, d b) applied backwards at 2
    )


def test_left_divides_witness(m1):
    assert left_divides(w("d", m1), w("A1 C1", m1), m1) == w("a", m1)
    assert left_divides(w("A1", m1), w("d a", m1), m1) == w("C1", m1)
    assert left_divides(w("c", m1), w("B1 D1", m1), m1) == w("b", m1)


def test_left_divides_identity_and_self(m1):
    q = w("d b", m1)
    assert left_divides((), q, m1) == q
    assert left_divides(q, q, m1) == ()


def test_left_divides_negative(m1):
    assert left_divides(w("a", m1), w("b a", m1), m1) is None
    assert left_divides(w("d a", m1), w("d", m1), m1) is None
    assert left_divides(w("c", m1), w("d a", m1), m1) is None


def all_words(pres, max_len):
    out = []
    for length in range(max_len + 1):
        out.extend(product(pres.generators, repeat=length))
    return out


def test_left_divides_matches_exhaustive_search(m1):
    # relations preserve length, so p w = q forces |w| = |q| - |p|
    words = all_words(m1, 2)
    by_len = {}
    for s in words:
        by_len.setdefault(len(s), []).append(s)
    for p in words:
        for q in words:
            witness = left_divides(p, q, m1)
            if witness is None:
                gap = len(q) - len(p)
                assert gap < 0 or not any(
                    equal(p + s, q, m1) for s in by_len[gap]
                ), f"{format_word(p)} divides {format_word(q)}"
            else:
                assert len(p) + len(witness) == len(q)
                assert equal(p + witness, q, m1)


def test_left_divisibility_is_transitive(m1):
    words = [v for v in all_words(m1, 2)]
    divisors = {
        q: frozenset(p for p in words if left_divides(p, q, m1) is not None)
        for q in words
    }
    for r in words:
        for q in divisors[r]:
            assert divisors[q] <= divisors[r]


def test_partitions_agree_small(m1, m2):
    assert partition_agreement(m1, 3) == []
    assert partition_agreement(m2, 2) == []


def plant(monkeypatch, fault):
    """Plant the word reduction fault(word, pres) on partition_agreement.

    The sweep reduces code-point strings in joined batches, by the
    reduce_joined of the congruence module's _Codec, so that is replaced by
    an adapter: it decodes each word of a batch, reduces it with fault, and
    encodes the result back."""

    class Planted(_Codec):
        def __init__(self, pres):
            super().__init__(pres)
            self.pres = pres

        def reduce_joined(self, text, rules=None):
            return [
                self.encode(fault(self.decode(s), self.pres))
                for s in text.split("\n")
            ]

    monkeypatch.setattr(congruence, "_Codec", Planted)


def test_partition_agreement_reports_a_split_class(m1, monkeypatch):
    # a reduction that never applies A1 C1 -> d a splits the class
    # {d a, A1 C1} into two normal-form groups
    skipped = w("A1 C1", m1)
    stripped = SimpleNamespace(
        rewrite_map={r: l for r, l in m1.rewrite_map.items() if r != skipped}
    )
    plant(monkeypatch, lambda word, pres: reduce_word(word, stripped))
    assert partition_agreement(m1, 2) == [
        "class of d a has 2 words but its normal-form group has 1",
        "class of A1 C1 has 2 words but its normal-form group has 1",
    ]


def _per_group_partition_agreement(pres, max_len, reduce=reduce_word):
    """Reference: one class search per normal-form group, lone words too,
    each word reduced on its own by reduce."""
    by_nf = defaultdict(list)
    for length in range(max_len + 1):
        for u in product(pres.generators, repeat=length):
            by_nf[reduce(u, pres)].append(u)
    violations = []
    for group in by_nf.values():
        cls = set(closure((group[0],), pres))
        if cls != set(group):
            violations.append(
                f"class of {format_word(group[0])} has {len(cls)} words but its "
                f"normal-form group has {len(group)}"
            )
    return violations


def _skip_one_rewrite(pres):
    # never rewrites the first R word: its class splits into two groups
    skipped = pres.relations[0].right
    stripped = SimpleNamespace(
        rewrite_map={r: l for r, l in pres.rewrite_map.items() if r != skipped}
    )
    return lambda word, pres: reduce_word(word, stripped)


def _merge_two_lone_forms(pres):
    # c and c c are lone normal forms; both land in one shared group
    def merged(word, pres):
        nf = reduce_word(word, pres)
        return ("c",) if nf == ("c", "c") else nf

    return merged


def _identity_reduction(pres):
    # every word is its own lone group, including those a relation acts on
    return lambda word, pres: word


@pytest.mark.parametrize(
    "fault",
    [None, _skip_one_rewrite, _merge_two_lone_forms, _identity_reduction],
    ids=["clean", "skip", "merge", "identity"],
)
@pytest.mark.parametrize(
    "n, max_len",
    [(1, k) for k in range(5)] + [(2, k) for k in range(4)] + [(3, k) for k in range(4)],
)
def test_partition_agreement_matches_one_search_per_group(
    request, monkeypatch, fault, n, max_len
):
    pres = request.getfixturevalue(f"m{n}")
    reduce = reduce_word if fault is None else fault(pres)
    if fault is not None:
        plant(monkeypatch, reduce)
    expected = _per_group_partition_agreement(pres, max_len, reduce)
    assert partition_agreement(pres, max_len) == expected
    if fault is not None and max_len >= 2:
        assert expected


def test_partition_agreement_searches_only_shared_groups(m3, monkeypatch):
    # at n = 3, max-len 4: 64,347 normal forms, of which 5,460 are shared by
    # two or more words; no relation acts on any lone word
    calls = []

    def counted(seeds, pres):
        calls.append(None)
        return closure(seeds, pres)

    monkeypatch.setattr(congruence, "closure", counted)
    assert partition_agreement(m3, 4) == []
    assert len(calls) == 5460
