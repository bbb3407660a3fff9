import dataclasses
from collections import Counter

import pytest

from malcev import group_derivation
from malcev.group_derivation import (
    CANCEL,
    INSERT,
    LEFT_TO_RIGHT,
    NEG,
    POS,
    RELATOR,
    RIGHT_TO_LEFT,
    DerivationStep,
    OccurrenceMismatch,
    apply_step,
    build_obstruction_script,
    certificate_text,
    format_group_word,
    free_reduce,
    is_relator_product,
    relator_conjugates,
    validate_script,
    verify_obstruction,
)
from malcev.presentation import Letter, Relation, build_presentation, format_word


def gw(text):
    """Signed word from tokens like "c b^-1"."""
    out = []
    for token in text.split():
        if token.endswith("^-1"):
            out.append((_letter(token[:-3]), NEG))
        else:
            out.append((_letter(token), POS))
    return tuple(out)


def _letter(token):
    from malcev.presentation import letter_from_token

    return letter_from_token(token)


def test_format_group_word():
    assert format_group_word(()) == "1"
    assert format_group_word(gw("c b b^-1 a")) == "c b b^-1 a"


def test_gw_round_trips():
    assert gw("B1 D1 D1^-1 A1^-1 d a") == (
        ("B1", POS),
        ("D1", POS),
        ("D1", NEG),
        ("A1", NEG),
        (Letter("d"), POS),
        (Letter("a"), POS),
    )


def test_free_reduce():
    assert free_reduce(gw("b b^-1")) == ()
    assert free_reduce(gw("a b b^-1 a^-1")) == ()
    assert free_reduce(gw("c b b^-1 a")) == gw("c a")
    assert free_reduce(gw("c a")) == gw("c a")
    reduced = free_reduce(gw("B1 D1 D1^-1 A1^-1 A1 C1"))
    assert reduced == gw("B1 C1")
    assert free_reduce(reduced) == reduced


def test_abelianized_difference_never_vanishes():
    # no relation of the family holds in a free abelian group
    for n in (1, 2, 3, 5):
        for rel in build_presentation(n).relations:
            assert Counter(rel.left) != Counter(rel.right)


def step_for(kind, position, **kw):
    return DerivationStep(kind=kind, position=position, before=(), after=(), **kw)


def test_apply_insert(m1):
    step = step_for(INSERT, 1, letter=Letter("b"), sign=POS)
    assert apply_step(gw("c a"), step, m1) == gw("c b b^-1 a")
    neg = dataclasses.replace(step, sign=NEG)
    assert apply_step(gw("c a"), neg, m1) == gw("c b^-1 b a")
    with pytest.raises(OccurrenceMismatch):
        apply_step(gw("c a"), dataclasses.replace(step, position=5), m1)


def test_apply_cancel(m1):
    step = step_for(CANCEL, 1)
    assert apply_step(gw("c b b^-1 a"), step, m1) == gw("c a")
    assert apply_step(gw("c b^-1 b a"), step, m1) == gw("c a")
    with pytest.raises(OccurrenceMismatch):
        apply_step(gw("c b b a"), step, m1)
    with pytest.raises(OccurrenceMismatch):
        apply_step(gw("c b"), step, m1)


def test_apply_relator(m1):
    # index 2 is c b = B1 D1
    step = step_for(RELATOR, 0, relation_index=2, direction=LEFT_TO_RIGHT)
    assert apply_step(gw("c b a"), step, m1) == gw("B1 D1 a")
    back = step_for(RELATOR, 0, relation_index=2, direction=RIGHT_TO_LEFT)
    assert apply_step(gw("B1 D1 a"), back, m1) == gw("c b a")
    with pytest.raises(OccurrenceMismatch):
        apply_step(gw("c a b"), step, m1)
    with pytest.raises(OccurrenceMismatch):
        apply_step(gw("c b"), step_for(RELATOR, 0, relation_index=9), m1)
    with pytest.raises(OccurrenceMismatch):
        apply_step(
            gw("c b"), step_for(RELATOR, 0, relation_index=2, direction="XY"), m1
        )


def test_apply_relator_inverted(m1):
    # index 1 is A1 D1 = d b; right-to-left inverted rewrites b^-1 d^-1
    step = step_for(
        RELATOR, 0, relation_index=1, direction=RIGHT_TO_LEFT, inverted=True
    )
    assert apply_step(gw("b^-1 d^-1"), step, m1) == gw("D1^-1 A1^-1")
    with pytest.raises(OccurrenceMismatch):
        apply_step(gw("d^-1 b^-1"), step, m1)


def test_apply_unknown_kind(m1):
    with pytest.raises(OccurrenceMismatch):
        apply_step(gw("c a"), step_for("transmute", 0), m1)


def test_script_shape(m1):
    script = build_obstruction_script(m1)
    assert len(script) == 7
    kinds = [s.kind for s in script]
    assert kinds == [INSERT, INSERT, RELATOR, RELATOR, RELATOR, CANCEL, CANCEL]
    stages = [format_group_word(s.after) for s in script]
    assert stages == [
        "c b b^-1 a",
        "c b b^-1 d^-1 d a",
        "B1 D1 b^-1 d^-1 d a",
        "B1 D1 D1^-1 A1^-1 d a",
        "B1 D1 D1^-1 A1^-1 A1 C1",
        "B1 A1^-1 A1 C1",
        "B1 C1",
    ]
    assert script[0].before == gw("c a")
    for prev, nxt in zip(script, script[1:]):
        assert nxt.before == prev.after


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_script_size_grows_linearly(n):
    pres = build_presentation(n)
    script = build_obstruction_script(pres)
    assert len(script) == 4 * n + 3
    kinds = [s.kind for s in script]
    assert kinds.count(INSERT) == n + 1
    assert kinds.count(RELATOR) == 2 * n + 1
    assert kinds.count(CANCEL) == n + 1


def test_validate_script_replays(m1, m2):
    for pres in (m1, m2):
        script = build_obstruction_script(pres)
        final = validate_script(script, pres, gw("c a"))
        assert final == gw("B1 C1")


def test_validate_script_rejects_wrong_start(m1):
    script = build_obstruction_script(m1)
    with pytest.raises(OccurrenceMismatch, match="step 0"):
        validate_script(script, m1, gw("c b"))


def test_validate_script_rejects_tampered_index(m1):
    script = list(build_obstruction_script(m1))
    script[2] = dataclasses.replace(script[2], relation_index=0)
    with pytest.raises(OccurrenceMismatch, match="step 2"):
        validate_script(script, m1, gw("c a"))


def test_validate_script_rejects_tampered_result(m1):
    script = list(build_obstruction_script(m1))
    script[5] = dataclasses.replace(script[5], after=gw("B1 C1"))
    with pytest.raises(OccurrenceMismatch, match="step 5"):
        validate_script(script, m1, gw("c a"))


def test_validate_script_rejects_broken_chain(m1):
    script = list(build_obstruction_script(m1))
    del script[3]
    with pytest.raises(OccurrenceMismatch, match="step 3"):
        validate_script(script, m1, gw("c a"))


def test_relator_conjugates_of_m1(m1):
    # relator steps 2, 3 and 4: c b -> B1 D1, then b^-1 d^-1 -> D1^-1 A1^-1
    # (relation 1, A1 D1 = d b, right to left and inverted), then d a -> A1 C1
    assert relator_conjugates(build_obstruction_script(m1), m1) == [
        ((), 2, -1),
        (gw("B1 D1 D1^-1 A1^-1"), 1, -1),
        (gw("B1 D1 D1^-1 A1^-1"), 0, -1),
    ]


def tampered(conjugates, count):
    """Every single-factor tamper: flipped exponent, shifted relation index,
    dropped factor."""
    for j, (x, i, e) in enumerate(conjugates):
        yield conjugates[:j] + [(x, i, -e)] + conjugates[j + 1 :]
        yield conjugates[:j] + [(x, (i + 1) % count, e)] + conjugates[j + 1 :]
        yield conjugates[:j] + conjugates[j + 1 :]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_relator_product_checks_the_script(n):
    pres = build_presentation(n)
    conjugates = relator_conjugates(build_obstruction_script(pres), pres)
    start, target = gw("c a"), gw("B1 C1")
    assert len(conjugates) == 2 * n + 1
    assert is_relator_product(start, target, conjugates, pres)
    assert not is_relator_product(start, gw("c b"), conjugates, pres)
    for bad in tampered(conjugates, len(pres.relations)):
        assert not is_relator_product(start, target, bad, pres)


def test_verify_obstruction_runs_the_product_check(m1, monkeypatch):
    real = group_derivation.relator_conjugates

    def flipped(steps, pres):
        (x, i, e), *rest = real(steps, pres)
        return [(x, i, -e), *rest]

    monkeypatch.setattr(group_derivation, "relator_conjugates", flipped)
    with pytest.raises(OccurrenceMismatch, match="relator conjugates"):
        verify_obstruction(m1)


def test_verify_obstruction_refuses_a_monoid_that_identifies_the_witness(m1):
    # the script still replays and the product check still holds, since
    # the added relation comes after the ones the script uses
    fused = dataclasses.replace(
        m1, relations=m1.relations + (Relation(("c", "a"), ("B1", "C1")),)
    )
    with pytest.raises(OccurrenceMismatch, match="identifies c a with B1 C1"):
        verify_obstruction(fused)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_obstruction(n):
    pres = build_presentation(n)
    cert = verify_obstruction(pres)
    assert cert.n == n
    assert len(cert.steps) == 4 * n + 3
    assert free_reduce(cert.steps[-1].after) == gw("B1 C1")
    w1, w2 = cert.monoid_witness
    assert format_word(w1) == "c a"
    assert format_word(w2) == "B1 C1"


def test_certificate_serialization(m1):
    cert = verify_obstruction(m1)
    data = cert.to_dict()
    assert data["n"] == 1
    assert data["step_count"] == 7
    assert data["monoid_witness"] == ["c a", "B1 C1"]
    assert data["steps"][0] == {
        "kind": "insert",
        "position": 1,
        "before": "c a",
        "after": "c b b^-1 a",
        "letter": "b",
        "sign": POS,
    }
    assert data["steps"][2]["relation_index"] == 2
    assert data["steps"][2]["direction"] == LEFT_TO_RIGHT
    assert data["steps"][2]["inverted"] is False


def test_certificate_text(m1):
    cert = verify_obstruction(m1)
    text = certificate_text(cert, m1)
    lines = text.splitlines()
    assert lines[0] == "group derivation for n=1: 7 steps"
    assert lines[1] == "  1. insert b b^-1 at 1: c a => c b b^-1 a"
    assert lines[-1] == "monoid witness: normal forms 'c a' and 'B1 C1' differ"
    assert len(lines) == 9
