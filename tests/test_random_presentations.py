"""Seeded property sweeps over random presentations.

The family is one corner of what validate_generic accepts: any balanced
two-letter system whose R words have one L partner each.  The rewriting
module claims that a single pass and reduce_joined are exact on all of them,
and the sweeps decide cancellativity and the Cayley graph laws from the seam
letters alone.  Here every such fast path is compared with its plain
reference on presentations drawn from a fixed seed.  Most draws are not
cancellative, so the sweeps' violation paths run on natural failures, not
only on planted ones.  The draws are not hand-picked: a draw that exposes a
defect stays in the sweep.
"""

import random

import pytest

from malcev import ideals
from malcev.cayley import codeterminism_violations, indegree_violations, predecessors
from malcev.congruence import _side_words, partition_agreement
from malcev.presentation import PresentationError, validate_generic
from malcev.rewriting import (
    _FEW_RULES,
    _Codec,
    cancellativity_violations,
    count_elements,
    enumerate_elements,
    reduce_word,
)
from test_cayley import (
    bases_by_filter,
    checked_bases,
    codeterminism_per_element,
    indegree_per_element,
    predecessors_by_search,
)
from test_congruence import _per_group_partition_agreement, side_words_by_brute_force
from test_ideals import ideal_by_literal_extensions, ideal_words
from test_rewriting import (
    assert_texts_spell_elements,
    plain_cancellativity_sweep,
    recorded_seam_batches,
    seam_batches_by_brute_force,
    spelled_partners_as_words,
)


def draws(seed, count, p_letters, q_letters, relations):
    """count presentations that validate, each drawn from rng seeded by
    seed: the numbers of P letters, Q letters and relations are drawn from
    the given ranges, and each relation pairs two random P·Q words.  Draws
    that validate_generic refuses are dropped and counted."""
    rng = random.Random(seed)
    kept, refused = [], 0
    while len(kept) < count:
        ps = [f"x{i}" for i in range(rng.choice(p_letters))]
        qs = [f"y{i}" for i in range(rng.choice(q_letters))]

        def word():
            return (rng.choice(ps), rng.choice(qs))

        try:
            kept.append(
                validate_generic([(word(), word()) for _ in range(rng.choice(relations))])
            )
        except PresentationError:
            refused += 1
    return kept, refused


def large_draws(seed, count):
    """count presentations of 17-20 relations between 5-6 P letters and 5-6
    Q letters.  Drawn as above, almost every one would be refused, so the
    draw is made valid: the R words are distinct P·Q words, and each L
    partner is drawn from the words that are no R word."""
    rng = random.Random(seed)
    kept = []
    for _ in range(count):
        ps = [f"x{i}" for i in range(rng.choice((5, 6)))]
        qs = [f"y{i}" for i in range(rng.choice((5, 6)))]
        words = [(p, q) for p in ps for q in qs]
        rng.shuffle(words)
        k = rng.choice((17, 18, 19, 20))
        rights, lefts = words[:k], words[k:]
        kept.append(validate_generic([(rng.choice(lefts), right) for right in rights]))
    return kept


# 2-3 P letters, 1-3 Q letters and 1-4 relations: smaller than M_1
SMALL, SMALL_REFUSED = draws(1729, 300, (2, 3), (1, 2, 3), (1, 2, 3, 4))
# more than _FEW_RULES relations: each reduce_joined without rules first
# scans for the R words that occur (_Codec.pairs)
LARGE = large_draws(4104, 20)


def test_the_draws_cover_both_reduction_paths_and_failures():
    assert SMALL_REFUSED
    assert all(len(pres.rewrite_map) <= _FEW_RULES for pres in SMALL)
    assert all(len(pres.rewrite_map) > _FEW_RULES for pres in LARGE)
    # the sweeps' violation paths: 234 draws are not cancellative, and 164
    # of them have two incoming edges with one label
    broken = sum(cancellativity_violations(pres, 2, 1) != [] for pres in SMALL)
    assert broken > len(SMALL) // 2
    assert sum(codeterminism_violations(pres, 2) != [] for pres in SMALL) > 100


def random_words(rng, pres, count, max_len):
    return [
        tuple(rng.choices(pres.generators, k=rng.randrange(max_len + 1)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("draw", ["small", "large"])
def test_batch_reduction_matches_reduce_word(draw):
    presentations = SMALL if draw == "small" else LARGE
    rng = random.Random(draw)
    for pres in presentations:
        codec = _Codec(pres)
        assert (codec.pairs is None) == (draw == "small")
        words = random_words(rng, pres, 60, 12)
        keys = codec.reduce_joined("\n".join(map(codec.encode, words)))
        assert list(map(codec.decode, keys)) == [reduce_word(w, pres) for w in words]


@pytest.mark.parametrize("draw", ["small", "large"])
def test_codec_partners_spell_the_partner_index(draw):
    for i, pres in enumerate(SMALL if draw == "small" else LARGE):
        spelled = spelled_partners_as_words(_Codec(pres))
        assert list(spelled.items()) == list(pres.partners.items()), i


@pytest.mark.parametrize("draw", ["small", "large"])
def test_cancellativity_sweep_matches_every_product(draw):
    # strings and order too: the sweep names the same collisions as the
    # pair-by-pair reference, which reduces every product with reduce_word
    presentations = SMALL if draw == "small" else LARGE[:5]
    max_ab, max_c = (3, 2) if draw == "small" else (2, 1)
    for i, pres in enumerate(presentations):
        found = cancellativity_violations(pres, max_ab, max_c)
        assert found == plain_cancellativity_sweep(pres, max_ab, max_c), i


def test_seam_batches_are_the_sides_across_each_r_word(monkeypatch):
    # on every small draw, cancellative or not, the seam batches built from
    # the shorter sides are those picked from every side by its seam letter
    for i, pres in enumerate(SMALL):
        expected = seam_batches_by_brute_force(pres, 3)
        assert recorded_seam_batches(monkeypatch, pres, 3, 2) == expected, i


@pytest.mark.parametrize("draw", ["small", "large"])
def test_structure_sweeps_match_per_element_references(draw):
    presentations = SMALL if draw == "small" else LARGE[:5]
    max_len = 3 if draw == "small" else 2
    for i, pres in enumerate(presentations):
        assert codeterminism_violations(pres, max_len) == codeterminism_per_element(
            pres, max_len
        ), i
        assert indegree_violations(pres, max_len) == indegree_per_element(
            pres, max_len
        ), i


@pytest.mark.parametrize("draw", ["small", "large"])
def test_closed_form_bases_match_filtered_elements(monkeypatch, draw):
    # every draw's indegree sweep is clean: its verdicts hold for any
    # presentation, and only the codet verdict fails on the draws
    presentations = SMALL if draw == "small" else LARGE
    for i, pres in enumerate(presentations):
        for max_len in range(4):
            assert checked_bases(pres, max_len, monkeypatch) == bases_by_filter(
                pres, max_len
            ), (i, max_len)


def test_closed_form_predecessors_match_search():
    # the references above read the closed form too; here it meets the
    # equality-class search, on every element of length <= 3
    for i, pres in enumerate(SMALL):
        for v in enumerate_elements(pres, 3):
            assert predecessors(v, pres) == predecessors_by_search(v, pres), (i, v)


@pytest.mark.parametrize("draw", ["small", "large"])
def test_element_count_matches_enumeration(draw):
    presentations = SMALL if draw == "small" else LARGE
    for i, pres in enumerate(presentations):
        for max_len in range(-1, 4):
            assert count_elements(pres, max_len) == len(
                enumerate_elements(pres, max_len)
            ), (i, max_len)


@pytest.mark.parametrize("draw", ["small", "large"])
def test_normal_form_texts_match_enumeration(draw):
    # tokens x0, y0, ... take code points in order of first appearance, so
    # token order and code-point order differ on many draws
    presentations = SMALL if draw == "small" else LARGE
    for pres in presentations:
        assert_texts_spell_elements(pres, 4 if draw == "small" else 3)


@pytest.mark.parametrize("draw", ["small", "large"])
def test_side_word_count_matches_brute_force(draw):
    presentations = SMALL if draw == "small" else LARGE
    for i, pres in enumerate(presentations):
        for max_len in range(4):
            assert _side_words(pres, max_len) == side_words_by_brute_force(
                pres, max_len
            ), (i, max_len)


@pytest.mark.parametrize("draw", ["small", "large"])
def test_partition_agreement_matches_one_search_per_group(draw):
    # the reference searches every group, lone words too, and reduces each
    # word on its own with reduce_word
    presentations = SMALL if draw == "small" else LARGE[:5]
    max_len = 3 if draw == "small" else 2
    for i, pres in enumerate(presentations):
        assert partition_agreement(pres, max_len) == _per_group_partition_agreement(
            pres, max_len
        ), i


@pytest.mark.parametrize("draw", ["small", "large"])
def test_ideal_matches_the_closure_of_every_literal_extension(draw):
    # 30 raw words of one to three letters per draw, each at every window
    # from its length to two letters past it
    rng = random.Random(draw)
    for i, pres in enumerate(SMALL if draw == "small" else LARGE):
        for _ in range(30):
            root = tuple(rng.choices(pres.generators, k=rng.randint(1, 3)))
            for window in range(len(root), len(root) + 3):
                expected = ideal_by_literal_extensions(root, window, pres)
                assert ideal_words(root, window, pres) == expected, (i, root)
