"""Equality classes by exhaustive relation application.

Relations preserve length, so the class of a word under the generated
congruence is finite and breadth-first search enumerates it exactly.  This
module is deliberately independent of the normal-form machinery: it is the
oracle the rewriting module is checked against.  Its search-based left
divisibility backs the brute-force alignment oracle and its cross-check;
production callers use the closed form in the rewriting module.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional

from .presentation import Presentation, Word, check_letters, format_word
from .rewriting import reduce_word

__all__ = [
    "CapExceeded",
    "DEFAULT_CAP",
    "EqualityClass",
    "equality_class",
    "left_divides",
    "partition_agreement",
    "transitions",
]

DEFAULT_CAP = 10**6


class CapExceeded(RuntimeError):
    """The class enumeration grew past the configured cap."""


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


def transitions(w: Word, relations):
    """Words one relation application away from w, both directions, relations
    in presentation order and positions left to right."""
    for left, right in relations:
        for i in range(len(w) - 1):
            pair = (w[i], w[i + 1])
            if pair == left:
                yield w[:i] + right + w[i + 2 :]
            elif pair == right:
                yield w[:i] + left + w[i + 2 :]


def equality_class(w: Word, pres: Presentation, cap: int = DEFAULT_CAP) -> EqualityClass:
    """Enumerate the full equality class of w by breadth-first search."""
    check_letters(w, pres)
    seen = {w}
    order = [w]
    queue = deque((w,))
    while queue:
        u = queue.popleft()
        for v in transitions(u, pres.relations):
            if v not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(
                        f"class of {format_word(w)} exceeds {cap} words"
                    )
                seen.add(v)
                order.append(v)
                queue.append(v)
    return EqualityClass(w, tuple(order))


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
