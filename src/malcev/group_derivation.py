"""Machine-checked group derivations witnessing non-embeddability.

In any group satisfying the defining relations of M_n, the equation
c a = B1 C1 is forced, yet the two words are distinct in the monoid itself.
This module builds the forcing derivation as an explicit script of free
insertions, free cancellations and relator substitutions over signed words,
and checks it twice: by replaying every step once, which yields every
intermediate word, and by freely reducing (B1 C1)(c a)^-1 to the product of
the relator conjugates the script uses.  The script holds only the moves; the
result is packaged with the replay's words and the monoid-side witness.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .presentation import (
    InvariantViolation,
    Letter,
    Presentation,
    PresentationError,
    Word,
    format_word,
)
from .rewriting import reduce_word

__all__ = [
    "CANCEL",
    "DerivationStep",
    "GroupWord",
    "INSERT",
    "LEFT_TO_RIGHT",
    "NEG",
    "ObstructionCertificate",
    "OccurrenceMismatch",
    "POS",
    "RELATOR",
    "RIGHT_TO_LEFT",
    "apply_step",
    "build_obstruction_script",
    "certificate_text",
    "describe_step",
    "format_group_word",
    "free_reduce",
    "is_relator_product",
    "relator_conjugates",
    "validate_script",
    "verify_obstruction",
]

POS = 1
NEG = -1

GroupWord = tuple  # tuple of (Letter, sign) with sign +1 or -1

INSERT = "insert"
CANCEL = "cancel"
RELATOR = "relator"
LEFT_TO_RIGHT = "LR"
RIGHT_TO_LEFT = "RL"


class OccurrenceMismatch(InvariantViolation, ValueError):
    """A derivation step does not apply where it claims to."""


class DerivationStep(NamedTuple):
    """One move on a signed word; the words it acts on come from replay.

    insert: place letter^sign letter^-sign at position.
    cancel: remove the cancelling pair at position.
    relator: replace one side of relations[relation_index] (or its formal
    inverse, when inverted) by the other, direction LR meaning left side
    out, RL meaning right side out.
    """

    kind: str
    position: int
    letter: Optional[Letter] = None
    sign: int = POS
    relation_index: Optional[int] = None
    direction: Optional[str] = None
    inverted: bool = False


def format_group_word(g: GroupWord) -> str:
    if not g:
        return "1"
    return " ".join(letter if sign > 0 else f"{letter}^-1" for letter, sign in g)


def free_reduce(g: GroupWord) -> GroupWord:
    """Free normal form: cancel adjacent inverse pairs until none remain."""
    out = []
    for letter, sign in g:
        if out and out[-1][0] == letter and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((letter, sign))
    return tuple(out)


def _positive(w: Word) -> GroupWord:
    return tuple((letter, POS) for letter in w)


def _inverse(g: GroupWord) -> GroupWord:
    return tuple((letter, -sign) for letter, sign in reversed(g))


def apply_step(g: GroupWord, step: DerivationStep, pres: Presentation) -> GroupWord:
    """Apply one move to g, validating the stated occurrence."""
    position = step.position
    if position < 0 and step.kind in (CANCEL, RELATOR):
        raise OccurrenceMismatch(f"position {position} is negative")
    if step.kind == INSERT:
        if not 0 <= position <= len(g):
            raise OccurrenceMismatch(
                f"insert position {position} outside word of length {len(g)}"
            )
        pair = ((step.letter, step.sign), (step.letter, -step.sign))
        return g[:position] + pair + g[position:]
    if step.kind == CANCEL:
        if position + 2 > len(g):
            raise OccurrenceMismatch(f"no pair at position {position}")
        (x, s), (y, t) = g[position], g[position + 1]
        if x != y or s != -t:
            raise OccurrenceMismatch(
                f"pair at position {position} does not cancel: "
                f"{format_group_word(g[position : position + 2])}"
            )
        return g[:position] + g[position + 2 :]
    if step.kind == RELATOR:
        index = step.relation_index
        if index is None or not 0 <= index < len(pres.relations):
            raise OccurrenceMismatch(f"relation index {index!r} out of range")
        rel = pres.relations[index]
        if step.direction == LEFT_TO_RIGHT:
            src, dst = rel.left, rel.right
        elif step.direction == RIGHT_TO_LEFT:
            src, dst = rel.right, rel.left
        else:
            raise OccurrenceMismatch(f"unknown direction {step.direction!r}")
        occurrence, replacement = _positive(src), _positive(dst)
        if step.inverted:
            occurrence, replacement = _inverse(occurrence), _inverse(replacement)
        if g[position : position + 2] != occurrence:
            raise OccurrenceMismatch(
                f"expected {format_group_word(occurrence)} at position "
                f"{position}, found "
                f"{format_group_word(g[position : position + 2])}"
            )
        return g[:position] + replacement + g[position + 2 :]
    raise OccurrenceMismatch(f"unknown step kind {step.kind!r}")


def validate_script(steps, pres: Presentation, start: GroupWord) -> list:
    """Replay a script from start, checking each occurrence; returns the
    trace: start, then the word after each step."""
    trace = [start]
    for i, step in enumerate(steps):
        try:
            trace.append(apply_step(trace[-1], step, pres))
        except OccurrenceMismatch as exc:
            raise OccurrenceMismatch(f"step {i}: {exc}") from exc
    return trace


def relator_conjugates(steps, trace, pres: Presentation) -> list:
    """One (x, i, e) per relator step, in script order: the step multiplies
    its word on the left by x·ρ_i^e·x⁻¹, where ρ_i = left_i·right_i⁻¹.  x is
    the prefix, before the occurrence, of the step's source word in trace; e
    is -1 for LR and +1 for RL; an inverted step flips e and appends the
    inverse of the side it puts in to x."""
    out = []
    for step, before in zip(steps, trace):
        if step.kind != RELATOR:
            continue
        x = before[: step.position]
        e = -1 if step.direction == LEFT_TO_RIGHT else 1
        if step.inverted:
            rel = pres.relations[step.relation_index]
            x += _inverse(_positive(rel.right if e < 0 else rel.left))
            e = -e
        out.append((x, step.relation_index, e))
    return out


def is_relator_product(
    start: GroupWord, target: GroupWord, conjugates, pres: Presentation
) -> bool:
    """Whether target·start⁻¹ freely equals the product, latest factor first,
    of x·ρ_i^e·x⁻¹ over conjugates.  Free reduction is the only tool: every
    such product is trivial in any group satisfying the relations, so a true
    answer proves target = start there without replaying a single step."""
    product = []
    for x, i, e in reversed(conjugates):
        rel = pres.relations[i]
        rho = _positive(rel.left) + _inverse(_positive(rel.right))
        product += x + (rho if e > 0 else _inverse(rho)) + _inverse(x)
    return free_reduce(target + _inverse(start)) == free_reduce(product)


def build_obstruction_script(pres: Presentation):
    """The derivation forcing c a = B1 C1 in any group satisfying the
    relations: expand across the c b = B_n D_n and d-side relations, then
    walk the index ladder down from n to 1.  It reads each relation's index
    off the layout that build_presentation states; apply_step checks that
    the relation is there when the script is replayed."""
    n = pres.n
    if n is None:
        raise PresentationError("obstruction scripts need the indexed family")
    steps = []

    def push(kind, position, **kw):
        steps.append(DerivationStep(kind=kind, position=position, **kw))

    push(INSERT, 1, letter="b", sign=POS)
    push(INSERT, 3, letter="d", sign=NEG)
    # c b = B_n D_n, A_n D_n = d b and d a = A1 C1
    push(RELATOR, 0, relation_index=n + 1, direction=LEFT_TO_RIGHT)
    push(RELATOR, 2, relation_index=n, direction=RIGHT_TO_LEFT, inverted=True)
    push(RELATOR, 4, relation_index=0, direction=LEFT_TO_RIGHT)
    push(CANCEL, 1)
    for k in range(n, 1, -1):
        # B_k C_k = B_{k-1} D_{k-1} and A_{k-1} D_{k-1} = A_k C_k
        push(INSERT, 1, letter=f"C{k}", sign=POS)
        push(RELATOR, 0, relation_index=2 * n + 2 - k, direction=LEFT_TO_RIGHT)
        push(
            RELATOR, 2, relation_index=k - 1, direction=RIGHT_TO_LEFT, inverted=True
        )
        push(CANCEL, 1)
    push(CANCEL, 1)
    return tuple(steps)


class ObstructionCertificate(NamedTuple):
    """A replayed derivation of c a = B1 C1 over groups, paired with the
    normal forms showing the two words differ in the monoid.  trace[i] and
    trace[i + 1] are the words before and after steps[i]."""

    n: int
    steps: tuple
    trace: list  # len(steps) + 1 signed words, from c a
    monoid_witness: tuple  # (Word, Word), both already normal forms

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "step_count": len(self.steps),
            "steps": [
                _step_dict(s, before, after)
                for s, before, after in zip(self.steps, self.trace, self.trace[1:])
            ],
            "monoid_witness": [format_word(w) for w in self.monoid_witness],
        }


def _step_dict(step: DerivationStep, before: GroupWord, after: GroupWord) -> dict:
    out = {
        "kind": step.kind,
        "position": step.position,
        "before": format_group_word(before),
        "after": format_group_word(after),
    }
    if step.kind == INSERT:
        out["letter"] = step.letter
        out["sign"] = step.sign
    if step.kind == RELATOR:
        out["relation_index"] = step.relation_index
        out["direction"] = step.direction
        out["inverted"] = step.inverted
    return out


def describe_step(step: DerivationStep, pres: Presentation) -> str:
    if step.kind == INSERT:
        tok = step.letter
        pair = f"{tok} {tok}^-1" if step.sign > 0 else f"{tok}^-1 {tok}"
        return f"insert {pair} at {step.position}"
    if step.kind == CANCEL:
        return f"cancel at {step.position}"
    rel = pres.relations[step.relation_index]
    arrow = "->" if step.direction == LEFT_TO_RIGHT else "<-"
    inv = ", inverted" if step.inverted else ""
    return (
        f"relation {step.relation_index} "
        f"({format_word(rel.left)} {arrow} {format_word(rel.right)}{inv}) "
        f"at {step.position}"
    )


def certificate_text(cert: ObstructionCertificate, pres: Presentation) -> str:
    lines = [f"group derivation for n={cert.n}: {len(cert.steps)} steps"]
    steps = zip(cert.steps, cert.trace, cert.trace[1:])
    for i, (step, before, after) in enumerate(steps, 1):
        lines.append(
            f"{i:3d}. {describe_step(step, pres)}: "
            f"{format_group_word(before)} => {format_group_word(after)}"
        )
    w1, w2 = cert.monoid_witness
    lines.append(
        f"monoid witness: normal forms {format_word(w1)!r} and "
        f"{format_word(w2)!r} differ"
    )
    return "\n".join(lines)


def verify_obstruction(pres: Presentation) -> ObstructionCertificate:
    """Build the script, check it by one replay and by its relator product,
    and confirm the monoid keeps c a and B1 C1 apart."""
    script = build_obstruction_script(pres)
    ca: Word = ("c", "a")
    bc: Word = ("B1", "C1")
    start, target = _positive(ca), _positive(bc)
    trace = validate_script(script, pres, start)
    if free_reduce(trace[-1]) != target:
        raise OccurrenceMismatch(
            f"script ends at {format_group_word(trace[-1])}, not B1 C1"
        )
    conjugates = relator_conjugates(script, trace, pres)
    if not is_relator_product(start, target, conjugates, pres):
        raise OccurrenceMismatch(
            "B1 C1 (c a)^-1 is not the product of the script's relator conjugates"
        )
    witness = (reduce_word(ca, pres), reduce_word(bc, pres))
    if witness[0] == witness[1]:
        raise OccurrenceMismatch(
            "the monoid identifies c a with B1 C1; no obstruction"
        )
    return ObstructionCertificate(pres.n, script, trace, witness)
