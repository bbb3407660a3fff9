from itertools import count, product

import pytest

from malcev import congruence
from malcev.congruence import (
    DEFAULT_CAP,
    CapExceeded,
    closure,
    equality_class,
    left_divides,
    partition_agreement,
    transitions,
    word_count,
)
from malcev.presentation import ForeignLetter, format_word, parse_word
from malcev.rewriting import equal


def w(text, pres):
    return parse_word(text, pres)


def words_set(texts, pres):
    return {w(t, pres) for t in texts}


def test_class_of_relation_side(m1):
    cls = equality_class(w("d a", m1), m1)
    assert cls.representative == w("d a", m1)
    assert cls.members[0] == cls.representative
    assert cls.member_set == words_set(["d a", "A1 C1"], m1)
    assert len(cls) == 2
    assert w("A1 C1", m1) in cls
    assert w("c b", m1) not in cls


def test_class_of_identity_and_irreducibles(m1):
    assert equality_class((), m1).member_set == {()}
    assert equality_class(w("c a", m1), m1).member_set == {w("c a", m1)}
    assert equality_class(w("d", m1), m1).member_set == {w("d", m1)}


def test_class_chains_through_relations(m1):
    # d b ~ A1 D1 and c b ~ B1 D1, each a two-step orbit
    assert equality_class(w("d b", m1), m1).member_set == words_set(
        ["d b", "A1 D1"], m1
    )
    assert equality_class(w("c b", m1), m1).member_set == words_set(
        ["c b", "B1 D1"], m1
    )


def test_members_preserve_length_and_position_classes(m2):
    start = w("a b a C2 d b c A1 B1 D1", m2)
    cls = equality_class(start, m2)
    pattern = tuple(x in m2.p_set for x in start)
    for member in cls:
        assert len(member) == len(start)
        assert tuple(x in m2.p_set for x in member) == pattern


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
            *(equality_class(s, pres).member_set for s in seeds)
        )


def test_transitions_order_and_content(m1):
    # positions scan left to right, partners in presentation order
    out = list(transitions(w("d a d b", m1), m1))
    assert out == [
        w("A1 C1 d b", m1),  # (d a, A1 C1) applied at 0
        w("d a A1 D1", m1),  # (A1 D1, d b) applied backwards at 2
    ]


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
