"""Equality classes by exhaustive relation application.

Relations preserve length, so the class of a word under the generated
congruence is finite and breadth-first search enumerates it exactly.  One
search, closure, serves both equality classes and the ideal oracle of the
ideals module.  It never reduces a word: this module is deliberately
independent of the normal-form machinery, the oracle the rewriting module is
checked against.  Its search-based left divisibility backs the brute-force
alignment oracle and its cross-check; production callers use the closed form
in the rewriting module.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from typing import Optional

from .presentation import Presentation, Word, check_letters, format_word
from .rewriting import reduce_word

__all__ = [
    "CapExceeded",
    "DEFAULT_CAP",
    "EqualityClass",
    "closure",
    "count_over_budget",
    "equality_class",
    "left_divides",
    "partition_agreement",
    "transitions",
    "word_count",
]

DEFAULT_CAP = 10**6


def word_count(pres: Presentation, max_len: int) -> int:
    """Number of words of length <= max_len, the sum of G^k for k <= max_len
    with G generators: what a sweep over all of them iterates through."""
    return sum(len(pres.generators) ** k for k in range(max_len + 1))


def count_over_budget(pres: Presentation, max_len: int) -> Optional[str]:
    """word_count as text when it exceeds DEFAULT_CAP, else None.  Lengths
    over 64 mean at least 2^65 words and are not counted: the sum would take
    seconds and print with more digits than int-to-str conversion allows."""
    if max_len > 64:
        return "more than 2^64"
    count = word_count(pres, max_len)
    return str(count) if count > DEFAULT_CAP else None


class CapExceeded(RuntimeError):
    """A closure grew past its cap on the number of words."""


@dataclass(frozen=True)
class EqualityClass:
    """All words equal to the representative, in BFS discovery order."""

    representative: Word
    members: tuple

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, w: Word) -> bool:
        return w in self.member_set

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _steps(words, pres: Presentation):
    """Words one relation application away from each of words in turn, both
    directions, positions left to right and partners in presentation order.
    words may grow while this runs: closure feeds it its own queue, so the
    whole search runs in one generator."""
    swaps_at = pres.partners.get
    for w in words:
        for i in range(len(w) - 1):
            swaps = swaps_at((w[i], w[i + 1]))
            if swaps:
                for repl in swaps:
                    yield w[:i] + repl + w[i + 2 :]


def transitions(w: Word, pres: Presentation):
    """Words one relation application away from w."""
    return _steps((w,), pres)


def closure(seeds, pres: Presentation) -> list:
    """The deduplicated seeds, then every other word reachable from them by
    relation applications, in breadth-first discovery order.  Seeds are read
    lazily and count against DEFAULT_CAP, read at call time, so a huge stream
    of them raises CapExceeded (naming the first seed) before it fills
    memory."""
    seen = set()
    order = []  # also the queue that _steps reads while it grows
    for v in chain(seeds, _steps(order, pres)):
        if v not in seen:
            if len(order) >= DEFAULT_CAP:
                raise CapExceeded(
                    f"closure of {format_word(order[0])} exceeds {DEFAULT_CAP} "
                    "words, the fixed word budget congruence.DEFAULT_CAP"
                )
            seen.add(v)
            order.append(v)
    return order


def equality_class(w: Word, pres: Presentation) -> EqualityClass:
    """Enumerate the full equality class of w by breadth-first search."""
    check_letters(w, pres)
    return EqualityClass(w, tuple(closure((w,), pres)))


def left_divides(p: Word, q: Word, pres: Presentation) -> Optional[Word]:
    """Witness w with p w = q in the monoid, or None.

    Every member of the class of q is split after |p| letters; the first one
    in BFS order whose prefix equals p yields the witness.  Completeness:
    if q = p w then the concatenation of p's word and w lies in the class of
    q and has p as a literal prefix.
    """
    if len(p) > len(q):
        return None
    prefix_class = equality_class(p, pres).member_set
    k = len(p)
    for u in equality_class(q, pres):
        if u[:k] in prefix_class:
            return u[k:]
    return None


def partition_agreement(pres: Presentation, max_len: int):
    """Check that normal forms and BFS classes partition all words of length
    <= max_len identically.  Returns violation strings (empty when they agree)."""
    violations = []
    words = []
    for length in range(max_len + 1):
        words.extend(product(pres.generators, repeat=length))
    by_nf = defaultdict(set)
    for w in words:
        by_nf[reduce_word(w, pres)].add(w)
    seen = set()
    for w in words:
        if w in seen:
            continue
        cls = equality_class(w, pres).member_set
        seen |= cls
        group = by_nf.get(reduce_word(w, pres), frozenset())
        if cls != group:
            violations.append(
                f"class of {format_word(w)} has {len(cls)} words but its "
                f"normal-form group has {len(group)}"
            )
    return violations
