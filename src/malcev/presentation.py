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
from typing import NamedTuple, Optional

__all__ = [
    "AmbiguousRewrite",
    "CapExceeded",
    "DEFAULT_SEED",
    "ForeignLetter",
    "IndexOutOfRange",
    "InvariantViolation",
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


# Errors and defaults that the CLI names or reads before any command runs
# live here, so that it need not import the modules that raise or use them.


class InvariantViolation(Exception):
    """A result broke an invariant of the family; the CLI exits 3."""


class CapExceeded(RuntimeError):
    """A closure grew past its cap on the number of words."""


DEFAULT_SEED = 1729  # the alignment oracle's sampling seed


BASE_KINDS = ("a", "b", "c", "d")
INDEXED_KINDS = ("A", "B", "C", "D")

_TOKEN_RE = re.compile(r"([A-Za-z]+?)(\d+)?")


Letter = str  # a generator's token: a bare kind ("a") or a kind and index ("A2")
Word = tuple  # tuple of Letter; the empty tuple is the identity


class Relation(NamedTuple):
    left: Word
    right: Word


class Presentation:
    """A balanced two-letter presentation together with its derived structure.

    Construction validates the relations: every side has length 2 and uses
    only the generators, P and Q are disjoint, L and R are disjoint, and the
    rewrite map is functional.  The generators must be distinct tokens, so
    that token order is a total order on them.
    """

    def __init__(self, n: Optional[int], generators: tuple, relations: tuple):
        self.n = n
        self.generators = generators
        self.relations = relations
        if len(set(generators)) != len(generators):
            raise PresentationError("generators must have distinct tokens")
        for left, right in relations:
            if len(left) != 2 or len(right) != 2:
                raise NotBalanced(
                    f"relation sides must have length 2: "
                    f"{format_word(left)} = {format_word(right)}"
                )
        sides = [side for rel in relations for side in rel]
        generator_set = frozenset(generators)
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
        l_words = frozenset(left for left, _ in relations)
        r_words = frozenset(right for _, right in relations)
        if l_words & r_words:
            raise LROverlap(
                "words occur on both sides: "
                + ", ".join(sorted(format_word(w) for w in l_words & r_words))
            )
        rewrite_map = {}
        partners = {}
        for left, right in relations:
            if right in rewrite_map:
                if rewrite_map[right] != left:
                    raise AmbiguousRewrite(
                        f"{format_word(right)} has two distinct left partners"
                    )
                continue  # a relation given twice adds no partner
            rewrite_map[right] = left
            partners.setdefault(left, []).append(right)
            partners.setdefault(right, []).append(left)
        self.generator_set = generator_set
        self.p_set = p_set
        self.q_set = q_set
        self.q_letters = tuple(x for x in generators if x in q_set)
        self.l_words = l_words
        self.r_words = r_words
        self.rewrite_map = rewrite_map
        self.partners = {w: tuple(ws) for w, ws in partners.items()}

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


def _free_words(generators, pairs, max_len: int) -> int:
    """Number of words of length <= max_len over generators with no factor
    in pairs, distinct two-letter words.  Those of length k that end in y
    are those of length k-1, less those that end in a letter x with (x, y)
    in pairs, so the count takes O(max_len (G + pairs)) steps for G
    generators and lists no word."""
    before = {}  # y -> the letters x with (x, y) in pairs
    for x, y in pairs:
        before.setdefault(y, []).append(x)
    ending = dict.fromkeys(generators, 0)  # free words, by last letter
    layer = 1  # free words of the current length: the identity
    free = 0
    for length in range(max_len + 1):
        if length:
            ending = {
                y: layer - sum(ending[x] for x in before.get(y, ())) for y in ending
            }
            layer = sum(ending.values())
        free += layer
    return free


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

