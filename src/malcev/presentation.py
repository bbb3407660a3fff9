"""Balanced two-letter monoid presentations: the indexed family M_n and
user-supplied systems.

The n-th member of the family has generators a, b, c, d, A_1..A_n, B_1..B_n,
C_1..C_n, D_1..D_n and 2n+1 relations, each pairing two two-letter words.
A generator is its token, the string the paper and the output spell it with
("a", "A2"), and a word is a tuple of tokens.  Every algorithm downstream
consumes the derived structure computed here: the first-letter class P, the
second-letter class Q, the left/right relation word sets L and R, the
rewrite map sending each R word to its L partner, and the two-way index
partners listing, for every relation word, the words it can be swapped for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

__all__ = [
    "AmbiguousRewrite",
    "ForeignLetter",
    "IndexOutOfRange",
    "LROverlap",
    "Letter",
    "NotBalanced",
    "PQOverlap",
    "Presentation",
    "PresentationError",
    "Relation",
    "UnknownToken",
    "Word",
    "build_presentation",
    "check_letters",
    "format_word",
    "letter_from_token",
    "parse_word",
    "validate_generic",
]


class PresentationError(ValueError):
    """Structural problem with a presentation, word or token."""


class UnknownToken(PresentationError):
    """A token does not name a generator."""


class IndexOutOfRange(PresentationError):
    """An indexed generator token lies outside 1..n."""


class NotBalanced(PresentationError):
    """A relation side does not have length 2."""


class PQOverlap(PresentationError):
    """Some letter occurs both first and second in relation words."""


class LROverlap(PresentationError):
    """Some two-letter word occurs on both sides of relations."""


class AmbiguousRewrite(PresentationError):
    """A right-hand side word has two distinct left partners."""


class ForeignLetter(PresentationError):
    """A word uses letters outside the presentation's generators."""


BASE_KINDS = ("a", "b", "c", "d")
INDEXED_KINDS = ("A", "B", "C", "D")

_TOKEN_RE = re.compile(r"([A-Za-z]+?)(\d+)?")


Letter = str  # a generator's token: a bare kind ("a") or a kind and index ("A2")
Word = tuple  # tuple of Letter; the empty tuple is the identity


class Relation(NamedTuple):
    left: Word
    right: Word


def letter_from_token(token: str) -> Letter:
    """Validate one token: alphabetic kind plus optional decimal index suffix."""
    if _TOKEN_RE.fullmatch(token) is None:
        raise UnknownToken(f"malformed token {token!r}")
    return token


@dataclass(frozen=True, eq=False)
class Presentation:
    """A balanced two-letter presentation together with its derived structure.

    Construction validates the relations: every side has length 2 and uses
    only the generators, P and Q are disjoint, L and R are disjoint, and the
    rewrite map is functional.  The generators must be distinct tokens, so
    that token order is a total order on them.
    """

    n: Optional[int]
    generators: tuple
    relations: tuple

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("generators must have distinct tokens")
        for left, right in self.relations:
            if len(left) != 2 or len(right) != 2:
                raise NotBalanced(
                    f"relation sides must have length 2: "
                    f"{format_word(left)} = {format_word(right)}"
                )
        sides = [side for rel in self.relations for side in rel]
        generator_set = frozenset(self.generators)
        foreign = {x for side in sides for x in side} - generator_set
        if foreign:
            raise ForeignLetter(
                "relation letters outside the generators: "
                + " ".join(sorted(foreign))
            )
        p_set = frozenset(side[0] for side in sides)
        q_set = frozenset(side[1] for side in sides)
        if p_set & q_set:
            raise PQOverlap(
                "letters occur in both positions: "
                + " ".join(sorted(p_set & q_set))
            )
        l_words = frozenset(left for left, _ in self.relations)
        r_words = frozenset(right for _, right in self.relations)
        if l_words & r_words:
            raise LROverlap(
                "words occur on both sides: "
                + ", ".join(sorted(format_word(w) for w in l_words & r_words))
            )
        rewrite_map = {}
        partners = {}
        for left, right in self.relations:
            if rewrite_map.setdefault(right, left) != left:
                raise AmbiguousRewrite(
                    f"{format_word(right)} has two distinct left partners"
                )
            partners.setdefault(left, []).append(right)
            partners.setdefault(right, []).append(left)
        derived = {
            "generator_set": generator_set,
            "p_set": p_set,
            "q_set": q_set,
            "q_letters": tuple(x for x in self.generators if x in q_set),
            "l_words": l_words,
            "r_words": r_words,
            "rewrite_map": rewrite_map,
            "partners": {w: tuple(ws) for w, ws in partners.items()},
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return (
            f"Presentation(n={self.n}, {len(self.generators)} generators, "
            f"{len(self.relations)} relations)"
        )


def build_presentation(n: int) -> Presentation:
    """Construct the n-th presentation of the family (4+4n generators,
    2n+1 relations)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise PresentationError(f"n must be a positive integer, got {n!r}")
    A, B, C, D = ({i: f"{k}{i}" for i in range(1, n + 1)} for k in INDEXED_KINDS)
    a, b, c, d = BASE_KINDS
    generators = (*BASE_KINDS, *A.values(), *B.values(), *C.values(), *D.values())
    relations = [Relation((d, a), (A[1], C[1]))]
    relations += [
        Relation((A[i], D[i]), (A[i + 1], C[i + 1])) for i in range(1, n)
    ]
    relations.append(Relation((A[n], D[n]), (d, b)))
    relations.append(Relation((c, b), (B[n], D[n])))
    relations += [
        Relation((B[i + 1], C[i + 1]), (B[i], D[i])) for i in range(n - 1, 0, -1)
    ]
    return Presentation(n, generators, tuple(relations))


def validate_generic(relations) -> Presentation:
    """Validate a user-supplied list of relations as a presentation.

    Accepts any iterable of (left, right) word pairs.  The generator set is
    the letters occurring in the relations, in order of first appearance.
    """
    rels = tuple(Relation(tuple(left), tuple(right)) for left, right in relations)
    letters = (letter for rel in rels for side in rel for letter in side)
    return Presentation(None, tuple(dict.fromkeys(letters)), rels)


def check_letters(w: Word, pres: Presentation) -> None:
    for letter in w:
        if letter not in pres.generator_set:
            raise ForeignLetter(f"{letter!r} is not a generator of {pres!r}")


def parse_word(text: str, pres: Presentation) -> Word:
    """Tokenize whitespace-separated generator tokens; the single token "1"
    denotes the identity."""
    tokens = text.split()
    if not tokens:
        raise PresentationError("empty word text; write 1 for the identity")
    if tokens == ["1"]:
        return ()
    for token in tokens:
        if token not in pres.generator_set:
            m = _TOKEN_RE.fullmatch(token)
            if (
                m is not None
                and pres.n is not None
                and m.group(1) in INDEXED_KINDS
                and m.group(2) is not None
                and not 1 <= int(m.group(2)) <= pres.n
            ):
                raise IndexOutOfRange(f"{token!r}: index outside 1..{pres.n}")
            raise UnknownToken(f"{token!r} is not a generator")
    return tuple(tokens)


def format_word(w: Word) -> str:
    """Inverse of parse_word; the empty word renders as "1"."""
    if not w:
        return "1"
    return " ".join(w)

