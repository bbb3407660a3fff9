"""Left normal forms and the word problem.

A word is reduced by replacing each two-letter factor that is the right side
of a relation with its left partner.  Factors start with a P letter and end
with a Q letter, P and Q are disjoint, and replacements preserve the letter
class at each position, so redexes never overlap and a replacement never
exposes a new one: a single left-to-right scan reaches the normal form, and
two words are equal in the monoid exactly when their normal forms coincide.
Left divisibility is likewise a prefix test on normal forms, up to the one
pair at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .presentation import Presentation, Word, check_letters, format_word

__all__ = [
    "Element",
    "cancellativity_violations",
    "element_key",
    "enumerate_elements",
    "equal",
    "is_intersection_base",
    "left_divides",
    "left_normal_form",
    "reduce_word",
]


@dataclass(frozen=True)
class Element:
    """A monoid element, held as its left normal form.

    Two elements are equal exactly when their normal forms agree letter for
    letter; the presentation handle takes no part in comparison.
    """

    nf: Word
    pres: Presentation = field(compare=False, repr=False)

    def __str__(self) -> str:
        return format_word(self.nf)

    def __repr__(self) -> str:
        return f"Element({format_word(self.nf)!r})"


def reduce_word(w: Word, pres: Presentation) -> Word:
    """Single left-to-right reduction pass; returns the normal form of w."""
    rewrite = pres.rewrite_map
    out = list(w)
    i, last = 0, len(out) - 1
    while i < last:
        repl = rewrite.get((out[i], out[i + 1]))
        if repl is None:
            i += 1
        else:
            # the replacement is irreducible and keeps both position classes,
            # so nothing before or across it can become a redex
            out[i], out[i + 1] = repl
            i += 2
    return tuple(out)


def left_normal_form(w: Word, pres: Presentation) -> Element:
    """Canonical representative of the word's equality class."""
    check_letters(w, pres)
    return Element(reduce_word(w, pres), pres)


def equal(w1: Word, w2: Word, pres: Presentation) -> bool:
    """Decide the word problem."""
    check_letters(w1, pres)
    check_letters(w2, pres)
    return reduce_word(w1, pres) == reduce_word(w2, pres)


def left_divides(p: Word, q: Word, pres: Presentation) -> Optional[Word]:
    """Witness w with p w = q as a normal form, or None."""
    return _left_divides_nf(reduce_word(p, pres), reduce_word(q, pres), pres)


def _left_divides_nf(p: Word, q: Word, pres: Presentation) -> Optional[Word]:
    """left_divides for normal forms p and q.  Reducing p w can rewrite only
    the pair across the boundary, an R word into its L partner.  That pair of
    q is never an R word, so its partners are R words."""
    k = len(p)
    if q[:k] == p:
        return q[k:]
    for right in pres.partners.get(q[k - 1 : k + 1], ()):
        if right[0] == p[-1] and q[: k - 1] == p[:-1]:
            return right[1:] + q[k + 1 :]
    return None


def is_intersection_base(e: Element) -> bool:
    """True when the normal form ends in a left-hand relation word; these are
    exactly the elements with in-degree at least two in the Cayley graph."""
    return len(e.nf) >= 2 and e.nf[-2:] in e.pres.l_words


def element_key(e: Element):
    """Sort key: normal-form length, then token-lexicographic."""
    return (len(e.nf), tuple(letter.token for letter in e.nf))


def enumerate_elements(pres: Presentation, max_len: int):
    """All distinct elements of normal-form length <= max_len, ordered by
    element_key.  Normal forms are the words with no right-side factor."""
    rewrite = pres.rewrite_map
    out = [Element((), pres)]
    for length in range(1, max_len + 1):
        for combo in product(pres.generators, repeat=length):
            if all(
                (combo[i], combo[i + 1]) not in rewrite for i in range(length - 1)
            ):
                out.append(Element(combo, pres))
    return sorted(out, key=element_key)


def cancellativity_violations(pres: Presentation, max_ab: int, max_c: int):
    """Search for cancellativity failures among elements of bounded length.

    Checks both implications xc = yc => x = y and cx = cy => x = y for all
    elements x, y of length <= max_ab and c of length <= max_c.  Equality of
    words only depends on their normal forms, so sweeping elements covers
    every word of the same bounds.  Returns human-readable violation strings.
    """
    violations = []
    sides = [e.nf for e in enumerate_elements(pres, max_ab)]
    factors = [e.nf for e in enumerate_elements(pres, max_c)]
    for c in factors:
        seen_right = {}
        seen_left = {}
        for x in sides:
            key = reduce_word(x + c, pres)
            other = seen_right.setdefault(key, x)
            if other != x:
                violations.append(
                    f"right: {format_word(other)} != {format_word(x)} but both "
                    f"give {format_word(key)} after appending {format_word(c)}"
                )
            key = reduce_word(c + x, pres)
            other = seen_left.setdefault(key, x)
            if other != x:
                violations.append(
                    f"left: {format_word(other)} != {format_word(x)} but both "
                    f"give {format_word(key)} after prepending {format_word(c)}"
                )
    return violations
