"""Left normal forms and the word problem.

A word is reduced by replacing each two-letter factor that is the right side
of a relation with its left partner.  Factors start with a P letter and end
with a Q letter, P and Q are disjoint, and replacements preserve the letter
class at each position, so redexes never overlap and a replacement never
exposes a new one: a single left-to-right scan reaches the normal form, and
two words are equal in the monoid exactly when their normal forms coincide.
So every module holds an element as its normal form, a plain Word, and
passes the presentation alongside it.  Left divisibility is likewise a
prefix test on normal forms, up to the one pair at the boundary.

The cancellativity sweep reduces a whole batch of words at once.  Each
generator becomes one code point, the batch is joined into one string with a
separator that is no letter, and every R word is replaced by its L partner
with one ``str.replace`` per relation, in any order.  This equals
``reduce_word`` on each word for every validated presentation, the generic
ones included: an R word is a P letter then a Q letter, so two occurrences
cannot overlap; an L word is also P then Q and is never an R word, so a
replacement creates no occurrence inside or across its boundaries; and no
occurrence spans the separator.
"""

from __future__ import annotations

from typing import Optional

from .presentation import Presentation, Word, check_letters, format_word

__all__ = [
    "cancellativity_violations",
    "count_elements",
    "element_key",
    "enumerate_elements",
    "equal",
    "is_intersection_base",
    "left_divides",
    "left_normal_form",
    "reduce_word",
]


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


def left_normal_form(w: Word, pres: Presentation) -> Word:
    """Canonical representative of the word's equality class; elements are
    held as these words throughout the package."""
    check_letters(w, pres)
    return reduce_word(w, pres)


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


def is_intersection_base(w: Word, pres: Presentation) -> bool:
    """True when the normal form w ends in a left-hand relation word; these
    are exactly the elements with in-degree at least two in the Cayley graph."""
    return len(w) >= 2 and w[-2:] in pres.l_words


def element_key(w: Word):
    """Sort key for normal forms: length, then token-lexicographic."""
    return (len(w), tuple(letter.token for letter in w))


def _follow(pres: Presentation):
    """The generators in token order, and for each the letters that may
    follow it in a normal form: those that form no right side with it."""
    letters = sorted(pres.generators, key=lambda g: g.token)
    rewrite = pres.rewrite_map
    return letters, {x: [g for g in letters if (x, g) not in rewrite] for x in letters}


def enumerate_elements(pres: Presentation, max_len: int):
    """The normal forms of length <= max_len, one per element, ordered by
    element_key.  Normal forms are the words with no right-side factor, so
    those of length k are those of length k-1 extended by every letter that
    forms no right side with their last letter.  Extending in token order
    keeps each length sorted, since generators' tokens are distinct."""
    letters, follow = _follow(pres)
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [w + (g,) for w in layer for g in (follow[w[-1]] if w else letters)]
        out += layer
    return out


def count_elements(pres: Presentation, max_len: int) -> int:
    """len(enumerate_elements(pres, max_len)), without building the normal
    forms: those of length k+1 ending in g number the sum, over every letter
    x that g may follow, of those of length k ending in x."""
    letters, follow = _follow(pres)
    total = 1  # the identity
    ending = {}  # normal forms of the current length, counted by last letter
    for _ in range(max_len):
        # the identity has no last letter, and every letter may follow it
        longer = dict.fromkeys(letters, 0 if ending else 1)
        for x, count in ending.items():
            for g in follow[x]:
                longer[g] += count
        ending = longer
        total += sum(ending.values())
    return total


class _Codec:
    r"""Words as strings of one code point per generator, for batch reduction.

    The code points start at U+0100, so the separator "\n" is never a letter;
    the CLI's bound of 10^6 generators keeps them below U+10FFFF.
    reduce_joined(text) reduces every "\n"-separated word of text at once
    with one str.replace per relation; see the module docstring for why this
    equals reduce_word on each word.
    """

    def __init__(self, pres: Presentation):
        self.code = {g: chr(0x100 + i) for i, g in enumerate(pres.generators)}
        self.letter = {ch: g for g, ch in self.code.items()}
        self.rules = [
            (self.encode(right), self.encode(left))
            for right, left in pres.rewrite_map.items()
        ]

    def encode(self, w: Word) -> str:
        return "".join(self.code[x] for x in w)

    def decode(self, s: str) -> Word:
        return tuple(self.letter[ch] for ch in s)

    def reduce_joined(self, text: str) -> list:
        for right, left in self.rules:
            text = text.replace(right, left)
        return text.split("\n")


def cancellativity_violations(pres: Presentation, max_ab: int, max_c: int):
    """Search for cancellativity failures among elements of bounded length.

    Checks both implications xc = yc => x = y and cx = cy => x = y for all
    elements x, y of length <= max_ab and c of length <= max_c.  Equality of
    words only depends on their normal forms, so sweeping elements covers
    every word of the same bounds.  Returns human-readable violation strings,
    per c and per x, the right failure before the left one.

    For each c, all the products x c are reduced together in one joined
    string, and so are all the products c x.  Only a c whose products
    collide is walked pair by pair to name the colliding elements.
    """
    codec = _Codec(pres)
    sides = enumerate_elements(pres, max_ab)
    encoded = [codec.encode(x) for x in sides]
    violations = []
    for c in enumerate_elements(pres, max_c):
        ec = codec.encode(c)
        right_keys = codec.reduce_joined((ec + "\n").join(encoded) + ec)
        left_keys = codec.reduce_joined(ec + ("\n" + ec).join(encoded))
        if len(set(right_keys)) == len(set(left_keys)) == len(sides):
            continue
        seen_right = {}
        seen_left = {}
        for x, right_key, left_key in zip(sides, right_keys, left_keys):
            other = seen_right.setdefault(right_key, x)
            if other != x:
                violations.append(
                    f"right: {format_word(other)} != {format_word(x)} but both "
                    f"give {format_word(codec.decode(right_key))} after "
                    f"appending {format_word(c)}"
                )
            other = seen_left.setdefault(left_key, x)
            if other != x:
                violations.append(
                    f"left: {format_word(other)} != {format_word(x)} but both "
                    f"give {format_word(codec.decode(left_key))} after "
                    f"prepending {format_word(c)}"
                )
    return violations
