import pytest

from malcev.congruence import word_count
from malcev.presentation import (
    AmbiguousRewrite,
    ForeignLetter,
    IndexOutOfRange,
    Letter,
    LROverlap,
    NotBalanced,
    PQOverlap,
    Presentation,
    PresentationError,
    UnknownToken,
    _free_words,
    build_presentation,
    format_word,
    parse_word,
    validate_generic,
)


def rel_strings(pres):
    return [(format_word(r.left), format_word(r.right)) for r in pres.relations]


def test_smallest_member_exactly(m1):
    assert len(m1.generators) == 8
    assert rel_strings(m1) == [
        ("d a", "A1 C1"),
        ("A1 D1", "d b"),
        ("c b", "B1 D1"),
    ]


def test_counts_through_n6():
    for n in range(1, 7):
        pres = build_presentation(n)
        assert len(pres.generators) == 4 + 4 * n
        assert len(pres.relations) == 2 * n + 1
        assert len(pres.l_words) == 2 * n + 1
        assert len(pres.r_words) == 2 * n + 1


def test_n5_has_24_generators_11_relations(m5):
    assert len(m5.generators) == 24
    assert len(m5.relations) == 11


def test_n2_relations(m2):
    assert rel_strings(m2) == [
        ("d a", "A1 C1"),
        ("A1 D1", "A2 C2"),
        ("A2 D2", "d b"),
        ("c b", "B2 D2"),
        ("B2 C2", "B1 D1"),
    ]


def test_letter_classes_n2(m2):
    assert {x for x in m2.p_set} == {"c", "d", "A1", "A2", "B1", "B2"}
    assert {x for x in m2.q_set} == {"a", "b", "C1", "C2", "D1", "D2"}


def test_derived_structure_invariants():
    for n in range(1, 7):
        pres = build_presentation(n)
        assert not pres.p_set & pres.q_set
        assert pres.p_set | pres.q_set == pres.generator_set
        assert not pres.l_words & pres.r_words
        for rel in pres.relations:
            assert rel.left in pres.l_words and rel.right in pres.r_words
            for side in rel:
                assert side[0] in pres.p_set and side[1] in pres.q_set
        assert set(pres.rewrite_map) == set(pres.r_words)
        assert set(pres.rewrite_map.values()) == set(pres.l_words)
        for rel in pres.relations:
            assert pres.rewrite_map[rel.right] == rel.left
        # partners, against the relations alone: each side of a relation
        # lists the other, in presentation order, both directions
        sides = {side for rel in pres.relations for side in rel}
        assert set(pres.partners) == sides
        for word in sides:
            assert list(pres.partners[word]) == [
                other
                for rel in pres.relations
                for side, other in (rel, rel[::-1])
                if side == word
            ]
        q_letters = tuple(x for x in pres.generators if x in pres.q_set)
        indices = range(1, n + 1)
        assert q_letters == ("a", "b", *(f"{k}{i}" for k in "CD" for i in indices))


def test_relation_layout_through_n50():
    # the indices build_presentation's docstring gives, which
    # build_obstruction_script reads without searching; from n = 10 on,
    # token order (A10 before A2) differs from index order
    for n in range(1, 51):
        rels = build_presentation(n).relations
        assert len(rels) == 2 * n + 1
        assert rels[0] == (("d", "a"), ("A1", "C1"))
        for i in range(1, n):
            j = i + 1
            assert rels[i] == ((f"A{i}", f"D{i}"), (f"A{j}", f"C{j}"))
            assert rels[2 * n + 1 - i] == ((f"B{j}", f"C{j}"), (f"B{i}", f"D{i}"))
        assert rels[n] == ((f"A{n}", f"D{n}"), ("d", "b"))
        assert rels[n + 1] == (("c", "b"), (f"B{n}", f"D{n}"))


@pytest.mark.parametrize(
    "generators, relations, error, message",
    [
        # a foreign letter in the first relation, an unbalanced side later
        (
            "x u z v",
            [("x w", "z v"), ("x u v", "z v")],
            NotBalanced,
            "relation sides must have length 2: x u v = z v",
        ),
        # u both first and second in the first relation, w foreign later
        (
            "x u z v",
            [("x u", "u v"), ("x w", "z v")],
            ForeignLetter,
            "relation letters outside the generators: w",
        ),
        # z v on both sides first, u both first and second later
        (
            "x u z v y w",
            [("x u", "z v"), ("z v", "y w"), ("u w", "z w")],
            PQOverlap,
            "letters occur in both positions: u",
        ),
        # z v given two left partners first, then z v on both sides
        (
            "x u z v y w",
            [("x u", "z v"), ("y w", "z v"), ("z v", "x w")],
            LROverlap,
            "words occur on both sides: z v",
        ),
        # two generators share a token, and a side is unbalanced
        (
            "x u x",
            [("x u u", "x u")],
            PresentationError,
            "generators must have distinct tokens",
        ),
    ],
    ids=["balance-foreign", "foreign-pq", "pq-lr", "lr-ambiguous", "tokens-balance"],
)
def test_constructor_raises_the_earlier_refusal(generators, relations, error, message):
    rels = tuple((tok(left), tok(right)) for left, right in relations)
    with pytest.raises(PresentationError) as caught:
        Presentation(None, tok(generators), rels)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("bad", [0, -1, "2", 1.5, None])
def test_build_rejects_bad_index(bad):
    with pytest.raises(PresentationError):
        build_presentation(bad)


def test_parse_word_basic(m1):
    w = parse_word("d a", m1)
    assert [x for x in w] == ["d", "a"]
    assert parse_word("1", m1) == ()


def test_parse_word_errors(m2):
    with pytest.raises(IndexOutOfRange):
        parse_word("A3", m2)
    with pytest.raises(IndexOutOfRange):
        parse_word("A0", m2)
    with pytest.raises(UnknownToken):
        parse_word("e", m2)
    with pytest.raises(UnknownToken):
        parse_word("d 1", m2)
    with pytest.raises(PresentationError):
        parse_word("   ", m2)


def test_format_round_trip(m2):
    for text in ("1", "d a", "a b a C2 d b c A1 B1 D1", "B2 C2"):
        assert format_word(parse_word(text, m2)) == text


def test_validate_generic_accepts_family_relations(m2):
    pres = validate_generic(list(m2.relations))
    assert pres.n is None
    assert pres.relations == m2.relations
    assert pres.p_set == m2.p_set and pres.q_set == m2.q_set
    assert set(pres.generators) == set(m2.generators)
    # generators come in order of first appearance in the relations
    two = validate_generic([(tok("s u"), tok("t v")), (tok("s w"), tok("t x"))])
    assert [g for g in two.generators] == ["s", "u", "t", "v", "w", "x"]


def tok(text):
    return tuple(text.split())


def test_validate_generic_rejects_position_overlap():
    with pytest.raises(PQOverlap):
        validate_generic([(tok("a b"), tok("b a"))])
    with pytest.raises(PQOverlap):  # the constructor itself validates
        Presentation(None, tok("a b"), ((tok("a b"), tok("b a")),))


def test_constructor_rejects_relation_letters_outside_generators():
    with pytest.raises(ForeignLetter):
        Presentation(None, tok("a c"), ((tok("a b"), tok("c d")),))


def test_constructor_rejects_generators_sharing_a_token():
    x, v = tok("x v")
    with pytest.raises(PresentationError, match="distinct tokens"):
        Presentation(None, ("A1", Letter("A1"), x, v), ())
    with pytest.raises(PresentationError, match="distinct tokens"):
        Presentation(None, (x, v, x), ())


def test_validate_generic_rejects_unbalanced():
    with pytest.raises(NotBalanced):
        validate_generic([(tok("a b c"), tok("d e"))])


def test_validate_generic_rejects_side_overlap():
    with pytest.raises(LROverlap):
        validate_generic([(tok("x u"), tok("y v")), (tok("y v"), tok("x u"))])


def test_validate_generic_rejects_ambiguous_rewrite():
    with pytest.raises(AmbiguousRewrite):
        validate_generic([(tok("x u"), tok("z v")), (tok("y w"), tok("z v"))])



def test_repeated_relation_adds_no_partner():
    # a relation given twice is one relation: each word keeps one partner,
    # so the Cayley graph gains no second, parallel edge into x u
    once = validate_generic([(tok("x u"), tok("z v"))])
    twice = validate_generic([(tok("x u"), tok("z v"))] * 2)
    assert twice.partners == once.partners == {tok("x u"): (tok("z v"),), tok("z v"): (tok("x u"),)}
    assert twice.rewrite_map == once.rewrite_map


def test_free_words_without_pairs_counts_every_word(m1, m3):
    for pres in (m1, m3):
        for max_len in range(-1, 6):
            assert _free_words(pres.generators, (), max_len) == word_count(
                pres, max_len
            )
