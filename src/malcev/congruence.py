"""Equality classes by exhaustive relation application.

Relations preserve length, so the class of a word under the generated
congruence is finite and breadth-first search enumerates it exactly.  One
search, closure, enumerates equality classes; it reads only the partner
index of the relations, so it runs on Words and on their code-point strings
alike.  The search never reduces a word: it is deliberately independent of
the normal-form machinery, the oracle the rewriting module is checked
against.

The classes back the nf-oracle suite, which searches only the classes that
two or more words share.  A word with no relation side among its two-letter
factors is alone in its class, and the words that hold a side are counted
from the relations alone, so the lone words are searched only when a shared
group fails its search or that count is not the number of shared words.
The Cayley graph's predecessors are read off normal forms instead.
The search-based left divisibility backs the brute-force alignment oracle
and its cross-check; production callers use the closed form in the
rewriting module.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import ne
from typing import Optional

from .presentation import (
    CapExceeded,
    Presentation,
    Word,
    _free_words,
    check_letters,
    format_word,
)
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


def _steps(words, partners):
    """Words one relation application away from each of words in turn, both
    directions, positions left to right and partners in presentation order.
    words may grow while this runs: closure feeds it its own queue, so the
    whole search runs in one generator."""
    swaps_at = partners.get
    for w in words:
        for i in range(len(w) - 1):
            swaps = swaps_at((w[i], w[i + 1]))
            if swaps:
                for repl in swaps:
                    yield w[:i] + repl + w[i + 2 :]


def closure(seeds, partners, name=format_word) -> list:
    """The deduplicated seeds, then every other word reachable from them by
    relation applications, in breadth-first discovery order.  partners is
    the index of the relations that the search reads: pres.partners for
    Words, or a _Codec's partners, the same index spelled in code points,
    for code-point strings; name formats a word likewise, as format_word or
    the _Codec's name.  Seeds are read lazily and count against DEFAULT_CAP,
    read at call time, so a huge stream of them raises CapExceeded (naming
    the first seed) before it fills memory."""
    seen = set()
    order = []  # also the queue that _steps reads while it grows
    for v in chain(seeds, _steps(order, partners)):
        if v not in seen:
            if len(order) >= DEFAULT_CAP:
                raise CapExceeded(
                    f"closure of {name(order[0])} exceeds {DEFAULT_CAP} "
                    "words, the fixed word budget congruence.DEFAULT_CAP"
                )
            seen.add(v)
            order.append(v)
    return order


def equality_class(w: Word, pres: Presentation) -> tuple:
    """All words equal to w, w first, in breadth-first discovery order."""
    check_letters(w, pres)
    return tuple(closure((w,), pres.partners))


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


def _side_words(pres: Presentation, max_len: int) -> int:
    """Number of words of length <= max_len with a relation side, a key of
    pres.partners, among their two-letter factors: word_count less the
    side-free words, counted from the relations alone."""
    free = _free_words(pres.generators, pres.partners, max_len)
    return word_count(pres, max_len) - free


def partition_agreement(pres: Presentation, max_len: int):
    """Check that normal forms and BFS classes partition all words of length
    <= max_len identically.  Returns violation strings (empty when they
    agree), one per disagreeing group, in the sweep order of its first word.

    Words are grouped by normal form and a group is compared with the class
    of its first word.  This is exact: relations preserve length, so each
    class lies among the swept words; the groups cover every word, so if
    each group equals the class of its first word, every word's class is
    its group and the two partitions agree.

    Only the groups of two or more words are searched.  A word with no
    relation side among its two-letter factors is alone in its class, since
    the search has nothing to apply, so every word of a class of two or more
    words holds a side.  So if every shared group equals its class, the lone
    words that hold a side number _side_words less the words of the shared
    groups, and when that is 0 every lone word is alone in its class.  The
    count reads only the relations, never the rewriting code.  Only when a
    shared group fails or the number is not 0 is every lone word searched;
    one with no side is alone in its class and reports nothing.

    The words are spelled by the rewriting module's _Codec, those of each
    length reduced in one joined string, and searched through the codec's
    partner index.  Each length is listed in code-point order, so the sweep
    order is by length, then by string.  A shared group's normal form is
    that of some word other than itself, so only the words with those
    normal forms are grouped, across lengths too, since a faulty reduction
    may change a word's length.
    """
    codec = _Codec(pres)
    swept = []  # each length's words and their normal forms, in sweep order
    keys = set()  # normal forms of some word other than themselves
    words = [""]
    for length in range(max_len + 1):
        if length:
            words = [w + x for w in words for x in codec.letter]
        nfs = codec.reduce_joined("\n".join(words))
        swept.append((words, nfs))
        keys.update(compress(nfs, map(ne, words, nfs)))
    groups = {}
    for words, nfs in swept:
        for nf, w in compress(zip(nfs, words), map(keys.__contains__, nfs)):
            groups.setdefault(nf, []).append(w)
    shared = {nf: group for nf, group in groups.items() if len(group) > 1}

    def disagreement(group):
        """(sweep position of group's first word, violation), or None when
        group is the class of its first word."""
        root = group[0]
        cls = set(closure((root,), codec.partners, codec.name))
        if cls != set(group):
            return (len(root), root), (
                f"class of {codec.name(root)} has {len(cls)} words but its "
                f"normal-form group has {len(group)}"
            )
        return None

    found = [v for v in map(disagreement, shared.values()) if v]
    if not found and _side_words(pres, max_len) == sum(map(len, shared.values())):
        return []
    lone = (w for words, nfs in swept for w, nf in zip(words, nfs) if nf not in shared)
    found += filter(None, (disagreement((w,)) for w in lone))
    return [violation for _, violation in sorted(found)]
