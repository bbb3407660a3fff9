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
occurrence spans the separator.  Only the products whose seam, the pair
where a side meets its factor, is an R word go into a batch: any other
product of two normal forms is a normal form already.  The codet,
indegree and nf-oracle sweeps reduce their words in the same batches.
"""

from __future__ import annotations

import re
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
    return (len(w), w)


def _follow(pres: Presentation, max_len: int):
    """The generators in token order, and for each the letters that may
    follow it in a normal form: those that form no right side with it.
    Those sets take all G^2 pairs of the G generators to build and are
    read only for normal forms of length >= 2, so they are left empty
    when max_len < 2."""
    letters = sorted(pres.generators)
    if max_len < 2:
        return letters, {}
    rewrite = pres.rewrite_map
    return letters, {x: [g for g in letters if (x, g) not in rewrite] for x in letters}


def enumerate_elements(pres: Presentation, max_len: int):
    """The normal forms of length <= max_len, one per element, ordered by
    element_key."""
    return _normal_forms(pres, max_len, tuple)


def _normal_forms(pres: Presentation, max_len: int, spell):
    """The normal forms of enumerate_elements, in its order, each spelled
    as spell spells a Word: tuple gives the Words themselves, and a
    _Codec's encode gives their code-point strings.  Normal forms are the
    words with no right-side factor, so those of length k are those of
    length k-1 extended by every letter that forms no right side with their
    last letter.  Extending in token order keeps each length sorted by
    element_key, since the generators are distinct."""
    letters, follow = _follow(pres, max_len)
    spelled = spell(tuple(letters))
    # one-letter slices are the spelled letters; after is keyed by what
    # w[-1] gives for a spelled word w: the letter, or its code point
    first = [spelled[i : i + 1] for i in range(len(letters))]
    one = dict(zip(letters, first))
    after = {one[x][0]: [one[g] for g in gs] for x, gs in follow.items()}
    layer = [spelled[:0]]
    out = layer[:]
    for _ in range(max_len):
        layer = [w + g for w in layer for g in (after[w[-1]] if w else first)]
        out += layer
    return out


def count_elements(pres: Presentation, max_len: int) -> int:
    """len(enumerate_elements(pres, max_len)), without building the normal
    forms: those of length k+1 ending in g number the sum, over every letter
    x that g may follow, of those of length k ending in x."""
    letters, follow = _follow(pres, max_len)
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


# above this many relations, reduce_joined first finds the R words that
# occur: the regex scan that finds them costs as much as 8 to 20
# str.replace scans of the same text (measured on the nf-oracle batches at
# n = 1 and n = 3), so up to here every relation is simply replaced
_FEW_RULES = 16


class _Codec:
    r"""Words as strings of one code point per generator, for batch reduction.

    The code points start at U+0100, so the separator "\n" is never a letter;
    the CLI's bound of 10^6 generators keeps them below U+10FFFF.
    reduce_joined(text) reduces every "\n"-separated word of text at once
    with one str.replace per relation; see the module docstring for why this
    equals reduce_word on each word.  Given rules, some (R word, L word)
    pairs of self.rewrite, it applies only those: enough when no other R
    word can occur in text.  Given none, in a presentation of more than
    _FEW_RULES relations, it applies only those whose R word occurs, found
    by one scan of self.pairs, so that a batch takes time linear in its
    text, not in its text times the relations.
    """

    def __init__(self, pres: Presentation):
        self.code = {g: chr(0x100 + i) for i, g in enumerate(pres.generators)}
        self.letter = {ch: g for g, ch in self.code.items()}
        code = self.code
        self.rewrite = {  # R word -> L word; relation words have two letters
            code[p] + code[q]: code[x] + code[y]
            for (p, q), (x, y) in pres.rewrite_map.items()
        }
        self.pairs = None
        if len(self.rewrite) > _FEW_RULES:
            self.pairs = self.pair_scan(self.rewrite)

    @staticmethod
    def pair_scan(words):
        """A regex for the two-letter strings whose first letter begins one
        of words and whose second letter ends one: every occurrence of the
        words is a match.  Each letter class is written as runs of
        consecutive code points, which keeps it short for the family."""

        def letter_class(letters):
            runs = []
            for point in sorted(map(ord, letters)):
                if runs and point == runs[-1][1] + 1:
                    runs[-1][1] = point
                else:
                    runs.append([point, point])
            return "[" + "".join(f"{chr(a)}-{chr(b)}" for a, b in runs) + "]"

        firsts = letter_class({w[0] for w in words})
        return re.compile(firsts + letter_class({w[1] for w in words}))

    def encode(self, w: Word) -> str:
        return "".join(map(self.code.__getitem__, w))

    def decode(self, s: str) -> Word:
        return tuple(map(self.letter.__getitem__, s))

    def reduce_joined(self, text: str, rules=None) -> list:
        if rules is None:
            rules = self.rewrite.items()
            if self.pairs is not None:
                found = self.rewrite.keys() & set(self.pairs.findall(text))
                rules = [(right, self.rewrite[right]) for right in found]
        for right, left in rules:
            text = text.replace(right, left)
        return text.split("\n")


def cancellativity_violations(pres: Presentation, max_ab: int, max_c: int):
    """Search for cancellativity failures among elements of bounded length.

    Checks both implications xc = yc => x = y and cx = cy => x = y for all
    elements x, y of length <= max_ab and c of length <= max_c.  Equality of
    words only depends on their normal forms, so sweeping elements covers
    every word of the same bounds.  Returns human-readable violation strings,
    per c and per x, the right failure before the left one.

    Only the products whose seam is an R word are reduced.  A two-letter
    factor of x c lies inside x, inside c or across the seam (x[-1], c[0]).
    The sides and the factors are R-free, so every other product x c is left
    unchanged by reduction, and these unchanged products are pairwise
    distinct because the sides are.  So the products x c collide exactly
    when two reduced seam products are equal, or when one of them is y c for
    an unchanged side y: it ends in c and the rest is a side.  The products
    c x are the mirror image, with the seam (c[-1], x[0]).  For each c the
    seam products on each side are reduced in one joined string, by the
    only rules whose R word can sit on that seam: those ending in c[0] on
    the right, those beginning with c[-1] on the left.

    The premise is checked, not assumed: the identity factor's batch reduces
    every side, and if any side changes, every factor takes the full batch
    of its products, by every rule; so does a factor that contains an R
    word.  A factor whose products collide is walked pair by pair over the
    full batch, to name the colliding elements.  Sides and factors are
    swept as code-point strings and decoded only to be named.
    """
    codec = _Codec(pres)
    rewrite = codec.rewrite
    sides = _normal_forms(pres, max_ab, codec.encode)
    side_set = set(sides)
    # the identity factor's batch: its products are the sides themselves
    sides_r_free = codec.reduce_joined("\n".join(sides)) == sides
    ending, starting = {}, {}
    for s in sides:
        if s:
            ending.setdefault(s[-1], []).append(s)
            starting.setdefault(s[0], []).append(s)
    # by the first letter of c, the sides x with an R word across x c and
    # the rules of those R words; by its last letter, the same across c x
    right_seam, left_seam = {}, {}
    right_rules, left_rules = {}, {}
    for rule in rewrite.items():
        p, q = rule[0]
        if p in ending:
            right_seam.setdefault(q, []).extend(ending[p])
            right_rules.setdefault(q, []).append(rule)
        if q in starting:
            left_seam.setdefault(p, []).extend(starting[q])
            left_rules.setdefault(p, []).append(rule)

    def name(s):
        return format_word(codec.decode(s))

    violations = []
    for c in _normal_forms(pres, max_c, codec.encode):
        if sides_r_free and not any(c[i : i + 2] in rewrite for i in range(len(c) - 1)):
            if not c:  # its products are the sides, found R-free above
                continue
            k = len(c)
            right = left = ()
            if c[0] in right_seam:
                right = codec.reduce_joined(
                    (c + "\n").join(right_seam[c[0]]) + c, right_rules[c[0]]
                )
            if c[-1] in left_seam:
                left = codec.reduce_joined(
                    c + ("\n" + c).join(left_seam[c[-1]]), left_rules[c[-1]]
                )
            if (
                len(set(right)) == len(right)
                and len(set(left)) == len(left)
                and side_set.isdisjoint([key[:-k] for key in right if key.endswith(c)])
                and side_set.isdisjoint([key[k:] for key in left if key.startswith(c)])
            ):
                continue
        right_keys = codec.reduce_joined((c + "\n").join(sides) + c)
        left_keys = codec.reduce_joined(c + ("\n" + c).join(sides))
        seen_right = {}
        seen_left = {}
        for x, right_key, left_key in zip(sides, right_keys, left_keys):
            other = seen_right.setdefault(right_key, x)
            if other != x:
                violations.append(
                    f"right: {name(other)} != {name(x)} but both "
                    f"give {name(right_key)} after appending {name(c)}"
                )
            other = seen_left.setdefault(left_key, x)
            if other != x:
                violations.append(
                    f"left: {name(other)} != {name(x)} but both "
                    f"give {name(left_key)} after prepending {name(c)}"
                )
    return violations
