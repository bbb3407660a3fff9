import random
from itertools import product

import pytest

from malcev import congruence
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
    assert elements == sorted(elements, key=lambda w: (len(w), [x.token for x in w]))
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


def plain_cancellativity_sweep(pres, max_ab, max_c):
    """The sweep written out pair by pair with reduce_word."""
    violations = []
    sides = enumerate_elements(pres, max_ab)
    for c in enumerate_elements(pres, max_c):
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
