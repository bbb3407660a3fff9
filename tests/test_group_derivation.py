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
from malcev.presentation import (
    Letter,
    Presentation,
    PresentationError,
    Relation,
    build_presentation,
    format_word,
    validate_generic,
)


def gw(text):
    """Signed word from tokens like "c b^-1"."""
    out = []
    for token in text.split():
        if token.endswith("^-1"):
            out.append((token[:-3], NEG))
        else:
            out.append((token, POS))
    return tuple(out)


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
    return DerivationStep(kind=kind, position=position, **kw)


def test_apply_insert(m1):
    step = step_for(INSERT, 1, letter=Letter("b"), sign=POS)
    assert apply_step(gw("c a"), step, m1) == gw("c b b^-1 a")
    neg = step._replace(sign=NEG)
    assert apply_step(gw("c a"), neg, m1) == gw("c b^-1 b a")
    with pytest.raises(OccurrenceMismatch):
        apply_step(gw("c a"), step._replace(position=5), m1)


def test_apply_cancel(m1):
    step = step_for(CANCEL, 1)
    assert apply_step(gw("c b b^-1 a"), step, m1) == gw("c a")
    assert apply_step(gw("c b^-1 b a"), step, m1) == gw("c a")
    with pytest.raises(OccurrenceMismatch):
        apply_step(gw("c b b a"), step, m1)
    with pytest.raises(OccurrenceMismatch):
        apply_step(gw("c b"), step, m1)
    # a negative position indexes from the end: at -1 the pair would be
    # a^-1 a, and at -2 the slices around it would overlap
    with pytest.raises(OccurrenceMismatch, match="negative"):
        apply_step(gw("a b a^-1"), step_for(CANCEL, -1), m1)
    with pytest.raises(OccurrenceMismatch, match="negative"):
        apply_step(gw("a b b^-1"), step_for(CANCEL, -2), m1)


def test_apply_relator(m1):
    # index 2 is c b = B1 D1
    step = step_for(RELATOR, 0, relation_index=2, direction=LEFT_TO_RIGHT)
    assert apply_step(gw("c b a"), step, m1) == gw("B1 D1 a")
    back = step_for(RELATOR, 0, relation_index=2, direction=RIGHT_TO_LEFT)
    assert apply_step(gw("B1 D1 a"), back, m1) == gw("c b a")
    with pytest.raises(OccurrenceMismatch):
        apply_step(gw("c a b"), step, m1)
    with pytest.raises(OccurrenceMismatch, match="negative"):
        apply_step(gw("c b a"), step._replace(position=-1), m1)
    with pytest.raises(OccurrenceMismatch, match="negative"):
        apply_step(gw("a c b"), step._replace(position=-2), m1)
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
    trace = verify_obstruction(m1).trace
    assert len(trace) == len(script) + 1
    assert trace[0] == gw("c a")
    stages = [format_group_word(g) for g in trace[1:]]
    assert stages == [
        "c b b^-1 a",
        "c b b^-1 d^-1 d a",
        "B1 D1 b^-1 d^-1 d a",
        "B1 D1 D1^-1 A1^-1 d a",
        "B1 D1 D1^-1 A1^-1 A1 C1",
        "B1 A1^-1 A1 C1",
        "B1 C1",
    ]


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
        trace = validate_script(script, pres, gw("c a"))
        assert trace[0] == gw("c a")
        assert len(trace) == len(script) + 1
        assert trace[-1] == gw("B1 C1")


def test_validate_script_rejects_wrong_start(m1):
    # the inserts apply to any word; the first relator step that reads the
    # start's last letter is the first move that cannot apply
    script = build_obstruction_script(m1)
    with pytest.raises(OccurrenceMismatch, match="step 4: expected d a at position 4"):
        validate_script(script, m1, gw("c b"))


def test_validate_script_rejects_tampered_index(m1):
    script = list(build_obstruction_script(m1))
    script[2] = script[2]._replace(relation_index=0)
    with pytest.raises(OccurrenceMismatch, match="step 2"):
        validate_script(script, m1, gw("c a"))


def test_validate_script_rejects_broken_chain(m1):
    # without the inverted relator step, step 3 (d a -> A1 C1) still
    # applies, and the cancel after it meets D1 b^-1
    script = list(build_obstruction_script(m1))
    del script[3]
    with pytest.raises(OccurrenceMismatch, match=r"step 4: .* cancel: D1 b\^-1"):
        validate_script(script, m1, gw("c a"))


def test_relator_conjugates_of_m1(m1):
    # relator steps 2, 3 and 4: c b -> B1 D1, then b^-1 d^-1 -> D1^-1 A1^-1
    # (relation 1, A1 D1 = d b, right to left and inverted), then d a -> A1 C1
    script = build_obstruction_script(m1)
    trace = validate_script(script, m1, gw("c a"))
    assert relator_conjugates(script, trace, m1) == [
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
    script = build_obstruction_script(pres)
    start, target = gw("c a"), gw("B1 C1")
    conjugates = relator_conjugates(script, validate_script(script, pres, start), pres)
    assert len(conjugates) == 2 * n + 1
    assert is_relator_product(start, target, conjugates, pres)
    assert not is_relator_product(start, gw("c b"), conjugates, pres)
    for bad in tampered(conjugates, len(pres.relations)):
        assert not is_relator_product(start, target, bad, pres)


def test_verify_obstruction_runs_the_product_check(m1, monkeypatch):
    real = group_derivation.relator_conjugates

    def flipped(steps, trace, pres):
        (x, i, e), *rest = real(steps, trace, pres)
        return [(x, i, -e), *rest]

    monkeypatch.setattr(group_derivation, "relator_conjugates", flipped)
    with pytest.raises(OccurrenceMismatch, match="relator conjugates"):
        verify_obstruction(m1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_obstruction_applies_each_step_once(n, monkeypatch):
    # the one replay is the only caller: the script lists moves without
    # applying them, and the certificate's words are the replay's trace
    pres = build_presentation(n)
    calls = []
    real = group_derivation.apply_step

    def counted(g, step, pres):
        calls.append(step)
        return real(g, step, pres)

    monkeypatch.setattr(group_derivation, "apply_step", counted)
    verify_obstruction(pres)
    assert len(calls) == 4 * n + 3


def test_verify_obstruction_checks_where_the_script_ends(m2, monkeypatch):
    # the first 6 steps replay, but stop short of B1 C1
    real = group_derivation.build_obstruction_script
    monkeypatch.setattr(
        group_derivation, "build_obstruction_script", lambda pres: real(pres)[:6]
    )
    with pytest.raises(
        OccurrenceMismatch, match=r"^script ends at B2 A2\^-1 A1 C1, not B1 C1$"
    ):
        verify_obstruction(m2)


def test_obstruction_script_requires_indexed_family():
    generic = validate_generic([(("x", "y"), ("z", "w"))])
    with pytest.raises(PresentationError, match="need the indexed family"):
        build_obstruction_script(generic)


def test_verify_obstruction_refuses_a_monoid_that_identifies_the_witness(m1):
    # the script still replays and the product check still holds, since
    # the added relation comes after the ones the script uses
    fused = Presentation(
        m1.n, m1.generators, m1.relations + (Relation(("c", "a"), ("B1", "C1")),)
    )
    with pytest.raises(OccurrenceMismatch, match="identifies c a with B1 C1"):
        verify_obstruction(fused)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_obstruction(n):
    pres = build_presentation(n)
    cert = verify_obstruction(pres)
    assert cert.n == n
    assert len(cert.steps) == 4 * n + 3
    assert len(cert.trace) == 4 * n + 4
    assert free_reduce(cert.trace[-1]) == gw("B1 C1")
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
