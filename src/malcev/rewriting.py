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
product of two normal forms is a normal form already.  Whether a factor's
seam products collide depends only on its letter at the seam, so those
batches are made once per letter, on one-letter factors.  Their sides are
built, not searched for: the sides that end in the P letter p of an R word
p g are every side one letter shorter followed by p, since a P letter never
ends an R word, and those that begin with the Q letter q of an R word g q
are q followed by every shorter side, since a Q letter never begins one.
The codet, indegree and nf-oracle sweeps reduce their words in the same
batches.

The sweeps hold the normal forms in the same spelling, one text per
length, joined by "\\n" (_normal_form_texts).  Each text is built from the
one a length shorter by slicing and one str.replace per letter, so no
normal form is listed: the codet and indegree sweeps reduce the texts
whole and count their words off their lengths, and the cancellativity
sweep builds its seam batches from the texts one letter shorter than its
sides, splitting its sides into a list only to name a failure.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Optional

from .presentation import Presentation, Word, _free_words, check_letters, format_word

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


def _left_divisors(m: Word, pres: Presentation):
    """Every left divisor of a normal form m, as normal forms, in closed
    form: each prefix m[:k], and m[:k-1] followed by the first letter of
    each R partner of an L word at m[k-1:k+1].  By _left_divides_nf's
    boundary argument these are exactly the p of each length k with a
    witness: m[:k] == p, or p[:-1] == m[:k-1] and p[-1] begins an R
    partner of m[k-1:k+1].  Such a p ends in a P letter, which never ends
    an R word, so it is a normal form.  A divisor may be listed twice."""
    yield from (m[:k] for k in range(len(m) + 1))
    for k in range(1, len(m)):
        for right in pres.partners.get(m[k - 1 : k + 1], ()):
            yield m[: k - 1] + right[:1]


def is_intersection_base(w: Word, pres: Presentation) -> bool:
    """True when the normal form w ends in a left-hand relation word; these
    are exactly the elements with in-degree at least two in the Cayley graph."""
    return len(w) >= 2 and w[-2:] in pres.l_words


def element_key(w: Word):
    """Sort key for normal forms: length, then token-lexicographic."""
    return (len(w), w)


def enumerate_elements(pres: Presentation, max_len: int):
    """The normal forms of length <= max_len, one per element, ordered by
    element_key.  Normal forms are the words with no right-side factor, so
    those of length k are those of length k-1 extended by every letter that
    forms no right side with their last letter.  Extending in token order
    keeps each length sorted by element_key, since the generators are
    distinct."""
    letters = sorted(pres.generators)
    first = [(g,) for g in letters]
    # the one-letter words that may follow a word w, keyed by w[-1]: every
    # letter but those that form an R word with it, each removed from a copy
    # of first.  It is read only from length 2 on, so it is built only then
    after = {}
    if max_len >= 2:
        after = dict.fromkeys(letters, first)
        for x, g in pres.rewrite_map:
            kept = after[x][:]
            kept.remove((g,))
            after[x] = kept
    layer = [()]
    out = layer[:]
    for _ in range(max_len):
        layer = [w + g for w in layer for g in (after[w[-1]] if w else first)]
        out += layer
    return out


def count_elements(pres: Presentation, max_len: int) -> int:
    """len(enumerate_elements(pres, max_len)), without building the normal
    forms: they are the words with no R word among their factors, counted
    by _free_words from the numbers of generators and relations alone, in
    O(max_len) steps.  A negative max_len counts the identity alone, as
    enumerate_elements lists it."""
    return _free_words(pres.generators, pres.rewrite_map, max(max_len, 0))


# above this many relations, reduce_joined first finds the R words that
# occur: the regex scan that finds them costs as much as 8 to 20
# str.replace scans of the same text (measured on the nf-oracle batches at
# n = 1 and n = 3), so up to here every relation is simply replaced
_FEW_RULES = 16


class _Codec:
    r"""Words as strings of one code point per generator: the one spelling
    that the sweeps reduce and search.

    The code points start at U+0100, so the separator "\n" is never a letter;
    the CLI's bound of 10^6 generators keeps them below U+10FFFF.  partners
    is pres.partners spelled, keyed by letter pairs as closure reads it, and
    built on first use; name(s) formats the Word that s spells.
    reduce_text(text) reduces every "\n"-separated word of text at once
    with one str.replace per relation (see the module docstring for why
    this equals reduce_word on each word); reduce_joined lists the words.
    Given rules, some (R word, L word) pairs of self.rewrite, both apply
    only those: enough when no other R word can occur in text.  Given none,
    in a presentation of more than _FEW_RULES relations, they apply only
    those whose R word occurs, found by one scan of self.pairs, so that a
    batch takes time linear in its text, not in its text times the relations.
    """

    def __init__(self, pres: Presentation):
        points = map(chr, range(0x100, 0x100 + len(pres.generators)))
        self.code = dict(zip(pres.generators, points))
        self.letter = dict(zip(self.code.values(), self.code))
        self._partners = pres.partners
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

        def letter_class(points):
            points = sorted(set(points))
            # a run breaks between two points that are not consecutive
            breaks = [(a, b) for a, b in zip(points, points[1:]) if b != a + 1]
            starts = points[:1] + [b for _, b in breaks]
            ends = [a for a, _ in breaks] + points[-1:]
            return "[" + "".join(f"{chr(a)}-{chr(b)}" for a, b in zip(starts, ends)) + "]"

        points = list(map(ord, "".join(words)))  # two letters per word
        return re.compile(letter_class(points[::2]) + letter_class(points[1::2]))

    @cached_property
    def partners(self) -> dict:
        code, encode = self.code, self.encode
        return {
            (code[a], code[b]): tuple(map(encode, others))
            for (a, b), others in self._partners.items()
        }

    def encode(self, w: Word) -> str:
        return "".join(map(self.code.__getitem__, w))

    def decode(self, s: str) -> Word:
        return tuple(map(self.letter.__getitem__, s))

    def name(self, s: str) -> str:
        return format_word(self.decode(s))

    def reduce_text(self, text: str, rules=None) -> str:
        if rules is None:
            rules = self.rewrite.items()
            if self.pairs is not None:
                found = self.rewrite.keys() & set(self.pairs.findall(text))
                rules = [(right, self.rewrite[right]) for right in found]
        for right, left in rules:
            text = text.replace(right, left)
        return text

    def reduce_joined(self, text: str, rules=None) -> list:
        return self.reduce_text(text, rules).split("\n")


def _normal_form_texts(codec: _Codec, max_len: int) -> list:
    """The normal forms of enumerate_elements spelled by codec, as one text
    per length k <= max_len: those of length k joined by "\\n", in its
    order.  That is token order, not code-point order (A10 sorts before
    A2).  The identity's text is "", and text k holds
    (len(text) + 1) // (k + 1) words.  A Q letter begins no R word, so
    every length has a normal form once there is a generator: joined by
    "\\n", the texts list every normal form once.  With no generator the
    identity's text is the only one.

    The normal forms of length k that begin with a are a followed by those
    of length k-1 whose first letter b makes no R word a b.  Text k-1 lists
    its words in blocks by first letter, in token order, so a's words are
    text k-1 less the blocks of the banned b, with a put after every line
    break by one str.replace.  That is O(G + relations) steps per length
    for G generators, with all per-word work inside str methods."""
    letters = list(map(codec.code.__getitem__, sorted(codec.code)))
    texts = [""]
    if max_len < 1 or not letters:
        return texts
    texts.append("\n".join(letters))
    if max_len < 2:  # the banned pairs are read only from length 2 on
        return texts
    banned = {}  # a -> the letters b with a b an R word
    for right in codec.rewrite:
        banned.setdefault(right[0], []).append(right[1])
    counts = dict.fromkeys(letters, 1)  # words of the last text, by first letter
    for k in range(2, max_len + 1):
        last, total = texts[-1], sum(counts.values())
        starts, at = {}, 0  # each block's first word, as an index in last
        for b in letters:
            starts[b] = at
            at += counts[b]
        pieces, next_counts = [], {}
        for a in letters:
            skip = banned.get(a, ())
            cuts = sorted((starts[b], starts[b] + counts[b]) for b in skip)
            kept, i = [], 0
            # words i..j-1 of last, each k code points with its line break
            for j, end in (*cuts, (total, total)):
                if j > i:
                    kept.append(last[i * k : j * k - 1])
                i = end
            next_counts[a] = total - sum(counts[b] for b in skip)
            if kept:
                pieces.append(a + "\n".join(kept).replace("\n", "\n" + a))
        texts.append("\n".join(pieces))
        counts = next_counts
    return texts


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
    c x are the mirror image, with the seam (c[-1], x[0]).

    Both tests read only the seam letter.  A seam product x c reduces to
    nf(x c[0]) + c[1:], and appending the common c[1:] is injective, so two
    of them collide exactly when their one-letter versions do; nf(x c) ends
    in c exactly when nf(x c[0]) ends in c[0], and then the rest is the
    same.  So the right test is decided once per letter g, on the
    one-letter factor g, and read for every factor that begins with g; the
    left test is the mirror image, read for every factor that ends in g.
    Every letter is a factor when max_c >= 1.

    The seam sides are built, not searched for.  The sides x with an R word
    p g across x g are those that end in p, and they are exactly y p for
    every side y one letter shorter, in the same order: p is a P letter,
    which never ends an R word, so y p is a normal form, and it sorts as y
    does.  So g's right batch is, for each R word p g in rewrite order,
    every shorter side followed by p g, built by one str.replace on the
    shorter sides' text, and reduced by the rules of those R words alone.
    The left batch is the mirror image: g q followed by every shorter side,
    for each R word g q, as q, a Q letter, never begins an R word.  With
    sides of length 0 alone no side ends in a letter, and no seam batch is
    made.

    The premise is checked, not assumed: the identity factor's batch reduces
    every side, and if any side changes, every factor takes the full batch
    of its products, by every rule; so does a factor that contains an R
    word.  A factor whose seam letters fail is walked pair by pair over the
    full batch, to name the colliding elements.  Sides and factors are
    swept as code-point strings, split into a list only for the walk, and
    decoded only to be named.
    """
    codec = _Codec(pres)
    rewrite = codec.rewrite
    texts = _normal_form_texts(codec, max(max_ab, max_c))
    factors = "\n".join(texts[: max_c + 1])
    joined = "\n".join(texts[: max_ab + 1])  # the identity factor's batch
    shorter = "\n".join(texts[:max_ab])  # the sides one letter shorter
    del texts  # joined holds the sides: drop their second copy
    sides_r_free = codec.reduce_text(joined) == joined
    # the rules by the last letter of their R word, a right seam letter, and
    # by its first, a left one; only factors other than the identity, against
    # R-free sides of length 1 or more, read them
    right_rules, left_rules = {}, {}
    if max_ab and max_c and sides_r_free:
        for rule in rewrite.items():
            right_rules.setdefault(rule[0][1], []).append(rule)
            left_rules.setdefault(rule[0][0], []).append(rule)

    # the seam letters whose products collide, each decided on its
    # one-letter factor; the set of sides is built only when a seam product
    # keeps its seam letter, which no product of M_n does
    right_fails, left_fails = set(), set()
    side_set = None
    for g, rules in right_rules.items():
        batch = "\n".join(shorter.replace("\n", r + "\n") + r for r, _ in rules)
        keys = codec.reduce_joined(batch, rules)
        rests = [key[:-1] for key in keys if key.endswith(g)]
        if rests and side_set is None:
            side_set = set(joined.split("\n"))
        if len(set(keys)) != len(keys) or rests and not side_set.isdisjoint(rests):
            right_fails.add(g)
    for g, rules in left_rules.items():
        batch = "\n".join(r + shorter.replace("\n", "\n" + r) for r, _ in rules)
        keys = codec.reduce_joined(batch, rules)
        rests = [key[1:] for key in keys if key.startswith(g)]
        if rests and side_set is None:
            side_set = set(joined.split("\n"))
        if len(set(keys)) != len(keys) or rests and not side_set.isdisjoint(rests):
            left_fails.add(g)

    violations = []
    sides = None
    for c in factors.split("\n"):
        if sides_r_free and not any(c[i : i + 2] in rewrite for i in range(len(c) - 1)):
            # the identity's products are the sides, found R-free above
            if not c or (c[0] not in right_fails and c[-1] not in left_fails):
                continue
        sides = sides or joined.split("\n")
        right_keys = codec.reduce_joined(joined.replace("\n", c + "\n") + c)
        left_keys = codec.reduce_joined(c + joined.replace("\n", "\n" + c))
        seen_right = {}
        seen_left = {}
        for x, right_key, left_key in zip(sides, right_keys, left_keys):
            other = seen_right.setdefault(right_key, x)
            if other != x:
                violations.append(
                    f"right: {codec.name(other)} != {codec.name(x)} but both "
                    f"give {codec.name(right_key)} after appending {codec.name(c)}"
                )
            other = seen_left.setdefault(left_key, x)
            if other != x:
                violations.append(
                    f"left: {codec.name(other)} != {codec.name(x)} but both "
                    f"give {codec.name(left_key)} after prepending {codec.name(c)}"
                )
    return violations
