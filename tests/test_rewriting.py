import random
import time
from itertools import product

import pytest

from malcev import congruence, rewriting
from malcev.presentation import (
    ForeignLetter,
    build_presentation,
    format_word,
    letter_from_token,
    parse_word,
    validate_generic,
)
from malcev.rewriting import (
    _Codec,
    cancellativity_violations,
    count_elements,
    element_key,
    enumerate_elements,
    equal,
    is_intersection_base,
    left_divides,
    left_normal_form,
    reduce_word,
)


def el(text, pres):
    return left_normal_form(parse_word(text, pres), pres)


def nf_str(text, pres):
    return format_word(el(text, pres))


def test_worked_example(m2):
    assert nf_str("a b a C2 d b c A1 B1 D1", m2) == "a b a C2 A2 D2 c A1 B2 C2"


def test_single_relation_rewrites():
    for n in (1, 2, 3):
        pres = build_presentation(n)
        assert nf_str("A1 C1", pres) == "d a"
        assert nf_str("d b", pres) == f"A{n} D{n}"
        assert nf_str(f"B{n} D{n}", pres) == "c b"


def test_identity_and_irreducible(m1):
    assert nf_str("1", m1) == "1"
    assert nf_str("c a", m1) == "c a"
    assert nf_str("d a", m1) == "d a"


def test_foreign_letter(m1, m2):
    w = parse_word("A2 D2", m2)
    with pytest.raises(ForeignLetter):
        left_normal_form(w, m1)
    with pytest.raises(ForeignLetter):
        equal(w, w, m1)


def test_plain_string_words(m1):
    # a word is a tuple of tokens; anything else in it is a foreign letter
    assert left_normal_form(("d", "b"), m1) == ("A1", "D1")
    for bad in ("zz", 7):
        with pytest.raises(ForeignLetter, match=f"^{bad!r} is not a generator"):
            left_normal_form(("a", bad), m1)


def all_words(pres, max_len):
    for length in range(max_len + 1):
        yield from product(pres.generators, repeat=length)


def position_pattern(w, pres):
    return tuple(x in pres.p_set for x in w)


def test_reduction_preserves_length_and_classes(m1):
    for w in all_words(m1, 4):
        out = reduce_word(w, m1)
        assert len(out) == len(w)
        assert position_pattern(out, m1) == position_pattern(w, m1)


def test_reduction_idempotent(m1, m2):
    for w in all_words(m1, 4):
        out = reduce_word(w, m1)
        assert reduce_word(out, m1) == out
    for w in all_words(m2, 3):
        out = reduce_word(w, m2)
        assert reduce_word(out, m2) == out


def reduce_one_at_a_time(w, pres, pick):
    """Oracle reducer: apply one replacement per pass until none applies."""
    while True:
        spots = [
            i for i in range(len(w) - 1) if (w[i], w[i + 1]) in pres.rewrite_map
        ]
        if not spots:
            return w
        i = pick(spots)
        w = w[:i] + pres.rewrite_map[(w[i], w[i + 1])] + w[i + 2 :]


def test_reduction_order_independent(m1, m2):
    for pres, max_len in ((m1, 4), (m2, 3)):
        for w in all_words(pres, max_len):
            expected = reduce_word(w, pres)
            assert reduce_one_at_a_time(w, pres, min) == expected
            assert reduce_one_at_a_time(w, pres, max) == expected


def test_reduction_compatible_with_concatenation(m1):
    words = list(all_words(m1, 2))
    for u in words:
        nu = reduce_word(u, m1)
        for v in words:
            assert reduce_word(u + v, m1) == reduce_word(nu + reduce_word(v, m1), m1)


def test_equal(m1):
    assert equal(parse_word("d a", m1), parse_word("A1 C1", m1), m1)
    assert not equal(parse_word("c a", m1), parse_word("B1 C1", m1), m1)
    w = parse_word("c b", m1)
    assert equal(w, w, m1)


def test_only_identity_equals_identity(m1):
    for w in all_words(m1, 3):
        assert equal(w, (), m1) == (len(w) == 0)


def test_element_equality_ignores_presentation_handle(m1, m2):
    assert el("d a", m1) == el("d a", m2)
    assert el("d a", m1) != el("d b", m1)


def test_intersection_base(m1, m2):
    assert is_intersection_base(el("a b a C2 d b c A1 B1 D1", m2), m2)
    assert is_intersection_base(el("d a", m1), m1)
    assert is_intersection_base(el("c b", m1), m1)
    assert not is_intersection_base(el("c a", m1), m1)
    assert not is_intersection_base(el("d", m1), m1)
    assert not is_intersection_base(el("1", m1), m1)
    # right-hand sides reduce first, so their elements are bases too
    assert is_intersection_base(el("d b", m1), m1)


def test_enumerate_elements_matches_deduplicated_words(m1):
    elements = enumerate_elements(m1, 3)
    assert len(elements) == len(set(elements))
    assert elements == sorted(elements, key=lambda w: (len(w), [x for x in w]))
    from_words = {reduce_word(w, m1) for w in all_words(m1, 3)}
    assert set(elements) == from_words
    for e in elements:
        assert reduce_word(e, m1) == e


@pytest.mark.parametrize("n, max_len", [(2, 4), (3, 3)])
def test_enumerate_elements_already_in_key_order(n, max_len):
    pres = build_presentation(n)
    products = [
        w
        for w in all_words(pres, max_len)
        if all((w[i], w[i + 1]) not in pres.rewrite_map for i in range(len(w) - 1))
    ]
    assert enumerate_elements(pres, max_len) == sorted(products, key=element_key)
    assert enumerate_elements(pres, 0) == [()]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_count_elements_matches_enumeration(n):
    # the elements shorter than L, for L = 0..5; L = 0 asks for max_len -1,
    # where both give the identity alone
    pres = build_presentation(n)
    for shorter_than in range(6):
        max_len = shorter_than - 1
        assert count_elements(pres, max_len) == len(enumerate_elements(pres, max_len))


def test_short_enumerations_skip_the_follow_table():
    # the G^2 pairs that decide which letter may follow which are tested
    # only for normal forms of length >= 2
    pres = build_presentation(3000)
    g = len(pres.generators)
    start = time.perf_counter()
    assert enumerate_elements(pres, 0) == [()]
    assert len(enumerate_elements(pres, 1)) == 1 + g
    assert count_elements(pres, 0) == 1
    assert count_elements(pres, 1) == 1 + g
    assert time.perf_counter() - start < 2


def test_element_has_no_instance_dict(m1, m2):
    e = el("d a", m1)
    assert not hasattr(e, "__dict__")
    assert hash(e) == hash(el("A1 C1", m2)) and e == el("A1 C1", m2)


def test_element_key_orders_by_length_then_tokens(m1):
    seq = [el("d a", m1), el("d", m1), el("A1 D1", m1)]
    assert [format_word(e) for e in sorted(seq, key=element_key)] == [
        "d",
        "A1 D1",
        "d a",
    ]


def test_token_order_differs_from_index_order_at_n12():
    m12 = build_presentation(12)
    first = [format_word(e) for e in enumerate_elements(m12, 1)[:7]]
    assert first == ["1", "A1", "A10", "A11", "A12", "A2", "A3"]
    assert element_key(("A10",)) < element_key(("A2",))


def test_no_cancellation_failures_small(m1, m2):
    assert cancellativity_violations(m1, 2, 1) == []
    assert cancellativity_violations(m2, 2, 1) == []


def test_cancellation_sweep_detects_planted_failure():
    # sanity-check the checker itself on a system that is not cancellative:
    # the relation x v = z v merges two elements after appending v
    from malcev.presentation import letter_from_token, validate_generic

    def tok(text):
        return tuple(letter_from_token(t) for t in text.split())

    broken = validate_generic([(tok("x v"), tok("z v"))])
    found = cancellativity_violations(broken, 1, 1)
    assert len(found) == 1
    assert found[0].startswith("right:")


@pytest.mark.parametrize("n", [1, 2, 3, 8, 50])
def test_batch_reduction_matches_reduce_word(n):
    pres = build_presentation(n)
    codec = _Codec(pres)
    rng = random.Random(1729 + n)
    words = [()] + [
        tuple(rng.choices(pres.generators, k=length))
        for length in range(65)
        for _ in range(8)
    ]
    # every R word planted twice at a random spot, so every rule fires
    for w, right in zip(words[1:], sorted(pres.rewrite_map) * 2):
        i = rng.randrange(len(w) + 1)
        words.append(w[:i] + right + w[i:])
    keys = codec.reduce_joined("\n".join(codec.encode(w) for w in words))
    assert [codec.decode(k) for k in keys] == [reduce_word(w, pres) for w in words]
    assert codec.reduce_joined("") == [""]


@pytest.mark.parametrize("n, max_len", [(1, 4), (2, 4), (3, 4), (10, 3)])
def test_batch_reduction_matches_reduce_word_on_all_short_words(n, max_len):
    # reduce_word backs nf, eq and divides, and the batch reduction the
    # structure sweeps: both agree on every word of length <= max_len,
    # reduced one length at a time as the nf-oracle sweep does; at n = 10
    # there are 21 relations, so each batch first scans for the R words
    pres = build_presentation(n)
    codec = _Codec(pres)
    assert (codec.pairs is None) == (n < 10)
    for length in range(max_len + 1):
        words = list(product(pres.generators, repeat=length))
        keys = codec.reduce_joined("\n".join(map(codec.encode, words)))
        assert list(map(codec.decode, keys)) == [reduce_word(w, pres) for w in words]


@pytest.mark.parametrize("n, max_len", [(1, 4), (3, 3), (12, 2)])
def test_spelled_enumeration_matches_words(n, max_len):
    # one enumerator for both spellings, index for index
    pres = build_presentation(n)
    codec = _Codec(pres)
    spelled = rewriting._normal_forms(pres, max_len, codec.encode)
    assert list(map(codec.decode, spelled)) == enumerate_elements(pres, max_len)


def plain_cancellativity_sweep(pres, max_ab, max_c, elements=enumerate_elements):
    """The sweep written out pair by pair with reduce_word."""
    violations = []
    sides = elements(pres, max_ab)
    for c in elements(pres, max_c):
        seen_right, seen_left = {}, {}
        for x in sides:
            for seen, key, side, verb in (
                (seen_right, reduce_word(x + c, pres), "right", "appending"),
                (seen_left, reduce_word(c + x, pres), "left", "prepending"),
            ):
                other = seen.setdefault(key, x)
                if other != x:
                    violations.append(
                        f"{side}: {format_word(other)} != {format_word(x)} but "
                        f"both give {format_word(key)} after {verb} {format_word(c)}"
                    )
    return violations


def tok(text):
    return tuple(letter_from_token(t) for t in text.split())


def test_cancellation_sweep_two_sided_failures_match_plain_sweep():
    # x v = z v breaks right cancellation and u y = u w left cancellation
    broken = validate_generic([(tok("x v"), tok("z v")), (tok("u y"), tok("u w"))])
    found = cancellativity_violations(broken, 2, 2)
    assert found == plain_cancellativity_sweep(broken, 2, 2)
    assert "right: x != z but both give x v after appending v" in found
    assert "left: w != y but both give u y after prepending u" in found


def make_presentation(relations):
    if isinstance(relations, int):
        return build_presentation(relations)
    return validate_generic([(tok(l), tok(r)) for l, r in relations])


# x v = z v: the changed product z v collides with the unchanged x v
RIGHT_COLLISION = [("x v", "z v")]
# c d and e d share the L partner a b: two changed products collide
SHARED_PARTNER = [("a b", "c d"), ("a b", "e d")]
# u y = u w: u w collides with the unchanged u y, on the left only
LEFT_COLLISION = [("u y", "u w")]


@pytest.mark.parametrize(
    "relations, max_ab, max_c",
    [
        (1, 3, 2),
        (2, 2, 2),
        (3, 2, 1),
        (RIGHT_COLLISION, 2, 2),
        (SHARED_PARTNER, 2, 2),
        (LEFT_COLLISION, 2, 2),
        # sides of length 0 with factors of length 1: verify --max-len 0
        (1, 0, 1),
        (RIGHT_COLLISION, 0, 1),
        (LEFT_COLLISION, 0, 1),
    ],
)
def test_seam_sweep_matches_plain_sweep(relations, max_ab, max_c):
    pres = make_presentation(relations)
    found = cancellativity_violations(pres, max_ab, max_c)
    assert found == plain_cancellativity_sweep(pres, max_ab, max_c)
    if relations is SHARED_PARTNER and max_ab:
        assert "right: c != e but both give a b after appending d" in found
    if relations is LEFT_COLLISION and max_ab:
        assert found and all(v.startswith("left:") for v in found)


@pytest.mark.parametrize(
    "relations, max_ab, max_c, planted",
    [
        pytest.param(
            1, 2, 1, "right: A1 C1 != d a but both give d a after appending 1",
            id="sides",
        ),
        pytest.param(
            RIGHT_COLLISION, 1, 3,
            "right: x != z but both give x v x v after appending v z v",
            id="factor",
        ),
    ],
)
def test_sweep_checks_its_premise(monkeypatch, relations, max_ab, max_c, planted):
    # words that are not normal forms take full batches, so the sweep still
    # equals the plain one: as sides, d a and A1 C1 collide already under the
    # identity factor; as a factor, v z v reduces inside z v z v and x v z v
    # alike, and z, a seam side, collides with x, an unchanged one
    def words(pres, max_len):
        return sorted(all_words(pres, max_len), key=element_key)

    pres = make_presentation(relations)
    # the sweep spells its sides and factors as code-point strings
    monkeypatch.setattr(
        rewriting, "_normal_forms", lambda pres, k, spell: list(map(spell, words(pres, k)))
    )
    found = cancellativity_violations(pres, max_ab, max_c)
    assert found == plain_cancellativity_sweep(pres, max_ab, max_c, words)
    assert planted in found


@pytest.mark.parametrize(
    "n, max_ab, max_c", [(1, 3, 2), (2, 2, 2), (3, 2, 1), (1, 0, 1)]
)
def test_sweep_reduces_only_seam_products(monkeypatch, n, max_ab, max_c):
    # one batch of every side for the identity factor, then one product per
    # (x, c, side) whose seam pair is an R word, counted here pair by pair
    pres = build_presentation(n)
    reduced = []
    reduce_joined = _Codec.reduce_joined

    def counting(self, text, rules=None):
        reduced.append(text.count("\n") + 1)
        return reduce_joined(self, text, rules)

    monkeypatch.setattr(_Codec, "reduce_joined", counting)
    assert cancellativity_violations(pres, max_ab, max_c) == []
    sides = enumerate_elements(pres, max_ab)
    seams = sum(
        (x[-1:] + c[:1] in pres.rewrite_map) + (c[-1:] + x[:1] in pres.rewrite_map)
        for x in sides
        for c in enumerate_elements(pres, max_c)
    )
    assert sum(reduced) == len(sides) + seams
    assert seams or max_ab == 0


@pytest.mark.parametrize("n, max_ab, max_c", [(1, 3, 2), (3, 2, 2), (50, 1, 1)])
def test_seam_batches_apply_only_their_seam_rules(monkeypatch, n, max_ab, max_c):
    # the R word across the seam of x c ends in c[0], and the one across c x
    # begins with c[-1]: a seam batch is given only those rules, one or two
    # for the family, each of which occurs in it
    pres = build_presentation(n)
    given = []
    reduce_joined = _Codec.reduce_joined

    def recording(self, text, rules=None):
        if rules is not None:
            given.append((text, [right for right, _ in rules]))
        return reduce_joined(self, text, rules)

    monkeypatch.setattr(_Codec, "reduce_joined", recording)
    assert cancellativity_violations(pres, max_ab, max_c) == []
    assert given
    for text, rights in given:
        assert 1 <= len(rights) <= 2
        assert len({r[1] for r in rights}) == 1 or len({r[0] for r in rights}) == 1
        assert all(right in text for right in rights)


def assert_divides_like_search(p, q, pres):
    witness = left_divides(p, q, pres)
    expected = congruence.left_divides(p, q, pres)
    assert (witness is None) == (expected is None), (p, q)
    if witness is not None:
        assert reduce_word(witness, pres) == witness
        assert reduce_word(p + witness, pres) == reduce_word(q, pres)


@pytest.mark.parametrize("n", [1, 2])
def test_left_divides_matches_search_on_all_pairs(n):
    pres = build_presentation(n)
    elements = enumerate_elements(pres, 2)
    for p in elements:
        for q in elements:
            assert_divides_like_search(p, q, pres)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_left_divides_matches_search_on_random_words(n):
    pres = build_presentation(n)
    rng = random.Random(1729 + n)

    def word(max_len):
        return tuple(rng.choices(pres.generators, k=rng.randint(0, max_len)))

    for i in range(300):
        p = word(6)
        q = p + word(6) if i % 2 else word(12)
        assert_divides_like_search(p, q, pres)


def test_left_divides_witness_is_normal_form(m1):
    d, q = parse_word("d", m1), parse_word("d b d b", m1)
    assert left_divides(d, q, m1) == parse_word("b A1 D1", m1)
    assert left_divides((), q, m1) == parse_word("A1 D1 A1 D1", m1)
    assert left_divides(q, d, m1) is None


def random_word(rng, pres, max_len):
    """A uniform random word, with an R word planted at a random spot in
    half the draws so that rewrites happen at every n."""
    w = tuple(rng.choices(pres.generators, k=rng.randint(0, max_len)))
    if rng.random() < 0.5:
        i = rng.randrange(len(w) + 1)
        w = w[:i] + rng.choice(list(pres.rewrite_map)) + w[i:]
    return w


@pytest.mark.parametrize("n", [1, 2, 5, 50])
def test_boundary_lemma_on_random_normal_forms(n):
    # nf(u v) = u[:-1] + nf(u[-1] v[0]) + v[1:] for nonempty normal forms
    pres = build_presentation(n)
    rng = random.Random(1729 + n)
    rights = list(pres.rewrite_map)
    for i in range(2000):
        u = reduce_word(random_word(rng, pres, 31), pres)
        v = reduce_word(random_word(rng, pres, 31), pres)
        if i % 2:  # an R word across the boundary; a P letter ends u
            r = rng.choice(rights)
            u = reduce_word(u + r[:1], pres)
            v = reduce_word(r[1:] + v, pres)
        if u and v:
            joint = reduce_word(u[-1:] + v[:1], pres)
            assert reduce_word(u + v, pres) == u[:-1] + joint + v[1:], (u, v)


@pytest.mark.parametrize("n", [1, 2, 5, 50])
def test_reduction_is_a_homomorphism_on_random_words(n):
    # nf(a b) = nf(nf(a) nf(b))
    pres = build_presentation(n)
    rng = random.Random(1729 + n)
    for _ in range(2000):
        a = random_word(rng, pres, 64)
        b = random_word(rng, pres, 64)
        expected = reduce_word(reduce_word(a, pres) + reduce_word(b, pres), pres)
        assert reduce_word(a + b, pres) == expected, (a, b)
