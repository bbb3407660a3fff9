"""Equality classes by exhaustive relation application.

Relations preserve length, so the class of a word under the generated
congruence is finite and breadth-first search enumerates it exactly.  One
search, closure, serves both equality classes and the ideal oracle of the
ideals module.  The search never reduces a word: it is deliberately
independent of the normal-form machinery, the oracle the rewriting module is
checked against.  The classes back the nf-oracle suite, which searches
only the classes some relation acts on: a word with no relation side among
its two-letter factors is alone in its class, since the search reads the
same partner index and finds nothing to apply.  The Cayley graph's
predecessors are read off normal forms instead.  Its search-based left
divisibility backs the brute-force alignment oracle and its cross-check;
production callers use the closed form in the rewriting module.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Optional

from .presentation import Presentation, Word, check_letters, format_word
from .rewriting import _Codec

__all__ = [
    "CapExceeded",
    "DEFAULT_CAP",
    "closure",
    "count_over_budget",
    "equality_class",
    "left_divides",
    "partition_agreement",
    "word_count",
]

DEFAULT_CAP = 10**6


def word_count(pres: Presentation, max_len: int) -> int:
    """Number of words of length <= max_len, the sum of G^k for k <= max_len
    with G generators: what a sweep over all of them iterates through."""
    return sum(len(pres.generators) ** k for k in range(max_len + 1))


def count_over_budget(generators: int, max_len: int) -> Optional[str]:
    """The number of words of length <= max_len over that many generators,
    as text, when it exceeds DEFAULT_CAP, else None.  Lengths over 64 mean
    at least 2^65 words and are not counted: the sum would take seconds and
    print with more digits than int-to-str conversion allows."""
    if max_len > 64:
        return "more than 2^64"
    count = sum(generators**k for k in range(max_len + 1))
    return str(count) if count > DEFAULT_CAP else None


class CapExceeded(RuntimeError):
    """A closure grew past its cap on the number of words."""


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


def equality_class(w: Word, pres: Presentation) -> tuple:
    """All words equal to w, w first, in breadth-first discovery order."""
    check_letters(w, pres)
    return tuple(closure((w,), pres))


def left_divides(p: Word, q: Word, pres: Presentation) -> Optional[Word]:
    """Witness w with p w = q in the monoid, or None.

    Every member of the class of q is split after |p| letters; the first one
    in BFS order whose prefix equals p yields the witness.  Completeness:
    if q = p w then the concatenation of p's word and w lies in the class of
    q and has p as a literal prefix.
    """
    if len(p) > len(q):
        return None
    prefix_class = set(equality_class(p, pres))
    k = len(p)
    for u in equality_class(q, pres):
        if u[:k] in prefix_class:
            return u[k:]
    return None


def partition_agreement(pres: Presentation, max_len: int):
    """Check that normal forms and BFS classes partition all words of length
    <= max_len identically.  Returns violation strings (empty when they agree).

    Words are grouped by normal form and each group is compared with the
    class of its first word, one search per group.  This is exact: relations
    preserve length, so each class lies among the swept words; the groups
    cover every word, so if each group equals the class of its first word,
    every word's class is its group and the two partitions agree.

    The words are spelled as code-point strings (see the rewriting module),
    and those of each length are reduced in one joined string.  A group of
    one word w is not searched when no two-letter factor of w is a key of
    pres.partners, the index the search reads: no relation applies to w, so
    closure((w,)) is [w] and agrees with the group.  The lone words are
    tested for those keys by regex scans over their joined text: one that
    finds the keys that occur, and, only if some do, one for the words
    holding them.  The test reads only the relations, never the rewriting
    code.  Only normal forms that two or more words share keep a list of
    words.
    """
    codec = _Codec(pres)
    letters = list(codec.encode(pres.generators))
    first = {}  # normal form -> its first word, in sweep order
    shared = {}  # normal form -> its words, when two or more words have it
    words = [""]
    for length in range(max_len + 1):
        if length:
            words = [w + x for w in words for x in letters]
        for w, nf in zip(words, codec.reduce_joined("\n".join(words))):
            if nf in first:
                shared.setdefault(nf, [first[nf]]).append(w)
            else:
                first[nf] = w
    # the lone words with a relation side among their factors; sides have
    # two letters, so no shorter word holds one
    acted = set()
    if pres.partners and max_len >= 2:
        lone = "\n".join(w for nf, w in first.items() if nf not in shared)
        code = codec.code
        sides = {code[a] + code[b] for a, b in pres.partners}
        found = sides.intersection(codec.pair_scan(sides).findall(lone))
        if found:
            acted.update(re.findall(f"(?m)^.*(?:{'|'.join(found)}).*$", lone))
    violations = []
    for nf, w in first.items():
        group = shared.get(nf)
        if group is None:
            if w not in acted:
                continue
            group = (w,)
        word = codec.decode(w)
        cls = {codec.encode(u) for u in closure((word,), pres)}
        if cls != set(group):
            violations.append(
                f"class of {format_word(word)} has {len(cls)} words but its "
                f"normal-form group has {len(group)}"
            )
    return violations
