"""Intersections of principal right ideals.

For elements p, q of M_n the intersection pM and qM is principal whenever it
is nonempty and n >= 2; for n = 1 it needs at most two generators.  The fast
algorithm checks mutual reachability with the closed-form divisibility of
the rewriting module and otherwise takes the one-letter Q extensions that p
and q share.  Prefix lemma: those of a normal form u a are u followed by the
letter a's, as the L partner of an R word a x begins with a P letter, which
forms no R word with the last letter of u.  So elements share extensions
only as u a and u b: u followed by what the letters a and b share, which
one letter table, read off the relation list, holds for the alignment
sweep, intersect_principal and the oracle alike.

The oracle is a brute-force search over common multiples by the relations
alone.  A pair with the identity is decided by definition: 1M and qM meet
in qM, whose only generator is q.  Every other ideal rM, of a nonempty
root r, is held as its antichain: its words with no proper prefix in it.
The ideal is closed under right extension (if w = r x then w z = r x z),
so it is exactly the words that begin with a word of the antichain.  By
the lemma in _ideal that antichain is the class of r together with words
one letter longer, and congruence.closure finds both; no window bounds an
ideal.  No word of it is reduced: an ideal is a union of whole equality
classes, each holding its normal form, so membership and meets decide the
same as on normal forms, and the oracle's verdict does not depend on the
rewriting code; only the description of a failing pair reduces words.  On
antichains a word lies in an ideal when a prefix of it is in the
antichain; two ideals are disjoint when no word of either antichain is a
prefix of a word of the other; and their meet's antichain is the words of
each antichain that lie in the other ideal.  Each sampled pair of nonempty
elements is decided by the kind of its returned meet: an empty meet by
disjoint ideals, a meet of p or q by one membership, and only a
base-search meet by the antichain of its common multiples.  Each root's
ideal is built once and held for the run.  The pairs are checked by
ascending position, so grouped by their first element, and a sample of
every pair is not drawn at all.  The per-pair oracle,
brute_force_intersection, reduces the words of the meet's antichain, keeps
the minimal ones by the search-based divisibility of the congruence
module, and describes any pair that fails.

A check of every pair visits only the pairs that meet, listed twice and
independently.  The oracle lists them off the antichains alone: two
ideals meet exactly when a word of one antichain is a prefix of a word of
the other (_Ideal.isdisjoint), so each antichain word is indexed by its
root, and each prefix of a root's antichain words names the roots that
meet it.  The fast side lists the pairs that _meet gives any generator in
closed form: each element with each of its left divisors, which by the
boundary argument of rewriting._left_divides_nf are its prefixes and, for
each L word in it, the word before it followed by the first letter of an
R partner (rewriting._left_divisors), and the pairs u a, u b of the
letter table.  Each pair of the union is checked as a sampled pair is,
and a pair in one listing only is reported.  Every other pair gets no
generators from _meet and has disjoint ideals, so it holds unvisited:
proved, not checked.  The proof rests on rewriting._left_divisors
listing exactly the divisors that _left_divides_nf, which _meet runs,
finds; a fault that breaks that agreement on a pair that does not meet
is caught only by a sample that draws the pair.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import NamedTuple

from . import congruence
from .congruence import left_divides
from .presentation import (
    DEFAULT_SEED,
    InvariantViolation,
    Presentation,
    PresentationError,
    Word,
    format_word,
)
from .rewriting import (
    _left_divides_nf,
    _left_divisors,
    count_elements,
    element_key,
    enumerate_elements,
    reduce_word,
)

__all__ = [
    "AlignmentReport",
    "AlignmentViolation",
    "DEFAULT_SEED",
    "EMPTY",
    "GENERATORS",
    "IntersectionResult",
    "PRINCIPAL",
    "WindowTooSmall",
    "brute_force_intersection",
    "intersect_principal",
    "minimal_elements",
    "verify_alignment",
]

EMPTY = "empty"
PRINCIPAL = "principal"
GENERATORS = "generators"


class AlignmentViolation(InvariantViolation, RuntimeError):
    """More intersection bases than the family admits; a bug or a foreign
    presentation."""


class WindowTooSmall(ValueError):
    """The oracle window is below the element bound max_len + 1."""


class IntersectionResult(NamedTuple):
    """Outcome of intersecting two principal right ideals.

    kind is one of empty/principal/generators; generators are normal forms
    sorted by element_key and pairwise incomparable under left divisibility.
    provenance records which branch decided: reachable-p-to-q,
    reachable-q-to-p, or base-search.
    """

    kind: str
    generators: tuple
    provenance: str


def intersect_principal(p: Word, q: Word, pres: Presentation) -> IntersectionResult:
    """Compute pM and qM's intersection, for normal forms p and q, via
    reachability and one-letter extensions.

    When neither element divides the other, any common multiple forces a
    common one-letter Q extension, so the shared extensions are exactly the
    candidate generators; there is at most one for n >= 2 and at most two
    for n = 1.  Only for distinct nonempty elements with the same prefix is
    the letter table built, from the relations its entry for their last
    letters reads.
    """
    if pres.n is None:
        raise PresentationError("ideal intersection needs the indexed family")
    partners = {}
    if p and q and p != q and p[:-1] == q[:-1]:
        ends = {p[-1], q[-1]}
        partners = _letter_partners(
            (left, right) for left, right in pres.relations
            if left[0] in ends or right[0] in ends
        )
    shared = _shared(q, p[:-1], _row(p, partners))
    provenance, gens = _meet(p, q, shared, pres)
    kind = (EMPTY, PRINCIPAL, GENERATORS)[len(gens)]
    return IntersectionResult(kind, tuple(sorted(gens, key=element_key)), provenance)


def _bound(n: int) -> int:
    """The paper's bound on the generators of pM and qM's intersection in
    M_n: one for n >= 2, two for n = 1."""
    return 2 if n == 1 else 1


def _non_principal_count(pres: Presentation, max_len: int) -> int:
    """The exact number of ordered pairs of length <= max_len whose meet
    needs two generators: none for n >= 2, and at n = 1 the pairs
    (u d, u A1) and (u A1, u d) for every u of length < max_len."""
    if pres.n != 1 or max_len == 0:
        return 0
    return 2 * count_elements(pres, max_len - 1)


def _letter_partners(relations) -> dict:
    """The letter table read off a relation list: a -> {b: tails} in token
    order, for letters a != b whose one-letter Q extensions meet, tails
    being the two-letter extensions they share.  Those of a are the pairs
    a x for x in Q, each R word replaced by its L partner, and every
    relation side ends in a Q letter; so a and b share exactly the L words
    both begin, as the word's own first letter or an R partner's.  The
    entry for a and b reads only the relations with a side beginning with
    a or b."""
    firsts = {}  # L word -> first letters of it and of its R partners
    for left, right in relations:
        firsts.setdefault(left, {left[0]}).add(right[0])
    partners = {}
    for word, letters in firsts.items():
        for a, b in permutations(letters, 2):
            partners.setdefault(a, {}).setdefault(b, set()).add(word)
    return {a: dict(sorted(bs.items())) for a, bs in sorted(partners.items())}


def _row(p, partners) -> dict:
    """The letter table's entry for the last letter of a normal form p:
    b -> the tails that p[-1] and b share, none for the identity."""
    return partners.get(p[-1], {}) if p else {}


def _shared(q, prefix, row):
    """The Q extensions that normal form q shares with a normal form p, by
    the prefix lemma, given p's prefix p[:-1] and row, _row(p): prefix
    followed by the row's tails for q[-1] when q is nonempty with the same
    prefix, else none (an empty tuple).  The table pairs no letter with
    itself, so p shares none with itself; it divides itself, and _meet
    returns it first."""
    tails = row.get(q[-1]) if q else None
    if tails is None or q[:-1] != prefix:
        return ()
    return {prefix + t for t in tails}


def _meet(p, q, shared, pres: Presentation):
    """Provenance and generator normal forms, unordered, of pM and qM's
    intersection, for normal forms p and q sharing the Q extensions shared."""
    if _left_divides_nf(p, q, pres) is not None:
        return "reachable-p-to-q", (q,)
    if _left_divides_nf(q, p, pres) is not None:
        return "reachable-q-to-p", (p,)
    return "base-search", _bases(p, q, shared, pres.n)


def _bases(p, q, shared, n: int) -> tuple:
    """The Q extensions shared by normal forms p and q, neither dividing the
    other, as the generators of their meet in M_n; AlignmentViolation when
    they number more than the bound."""
    if len(shared) > _bound(n):
        raise AlignmentViolation(
            f"{len(shared)} incomparable bases for p={format_word(p)}, "
            f"q={format_word(q)} at n={n}: "
            + "; ".join(map(format_word, sorted(shared, key=element_key)))
        )
    return tuple(shared)


def _boundary_swaps(pres: Presentation) -> dict:
    """Letter x -> the partners of every relation side that begins with x,
    in presentation order: the two-letter words that one relation step can
    put in place of a letter x and the letter after it.  Built once per run
    and read by _ideal."""
    swaps = {}
    for side, words in pres.partners.items():
        swaps.setdefault(side[0], []).extend(words)
    return swaps


class _Ideal:
    """An ideal held as its antichain: its words with no proper prefix in
    it.  The ideal is closed under right extension, so it is exactly the
    words that begin with a word of the antichain, and the subtrees of
    those words are disjoint.  prefixes holds every nonempty prefix of the
    antichain's words."""

    __slots__ = ("antichain", "prefixes")

    def __init__(self, antichain):
        self.antichain = frozenset(antichain)
        self.prefixes = frozenset(
            a[:k] for a in self.antichain for k in range(1, len(a) + 1)
        )

    def __contains__(self, w) -> bool:
        """Whether the word w lies in the ideal: a prefix of it is in the
        antichain."""
        return not self.antichain.isdisjoint(w[:k] for k in range(1, len(w) + 1))

    def isdisjoint(self, other: "_Ideal") -> bool:
        """Whether no word lies in both ideals: no word of either antichain
        is a prefix of a word of the other.  If one is, the longer of the
        two lies in both; a common word begins with a word of each, and the
        shorter of those is a prefix of the longer."""
        return self.antichain.isdisjoint(
            other.prefixes
        ) and other.antichain.isdisjoint(self.prefixes)

    def __and__(self, other: "_Ideal") -> "_Ideal":
        """The meet of two ideals, as its antichain: the words of each
        antichain that lie in the other ideal.  A common word begins with a
        word of each antichain, and the longer of those lies in both
        ideals.  The result is an antichain: were a word a of one part a
        proper prefix of a word b of the other's antichain, a would begin
        with a word of b's antichain, which would be a proper prefix of
        b."""
        return _Ideal(
            [a for a in self.antichain if a in other]
            + [b for b in other.antichain if b in self]
        )


def _ideal(root, pres: Presentation, swaps: dict) -> _Ideal:
    """The ideal of a nonempty root r, every word that r left-divides, held
    as its antichain, given swaps, the index _boundary_swaps(pres).

    Lemma: with k = |r|, a word w longer than k lies in the ideal exactly
    when w[:k+1] does, and a word of length k lies in it exactly when it
    lies in the class C of r, as relations preserve length.  By the closed
    form of left divisibility (rewriting._left_divides_nf), whether r
    divides an element m depends only on nf(m)[:k+1].  The one-pass
    reduction rewrites disjoint P·Q pairs, so nf(m)[:k] depends only on
    m[:k+1], and nf(m)[k] differs from the letter at k of nf(m[:k+1]) only
    when m[k] m[k+1] is an R word.  Then m[k] is a P letter, and so is the
    first letter of its L partner; a P letter never ends a relation side,
    so either way the closed form reads the same answer.  So the antichain
    is C together with the words of length k+1 in the ideal whose k-prefix
    is not in C.  No window bounds it.

    Both parts are closures.  C is the class of r.  A word y of length k+1
    in the ideal is equal to some c x with c in C, and on a path of
    relation steps from c x to y, the first step that takes the k-prefix
    out of C crosses the seam: it puts a partner s of the side c[-1] x in
    its place, giving c[:-1] s, for s in swaps[c[-1]].  So y lies in the
    closure of those boundary steps, each of which equals c g for a letter
    g and lies in the ideal; dropping the words of that closure whose
    [:-1] lies in C leaves exactly the words wanted.  Each closure counts
    against DEFAULT_CAP, read at call time, and a CapExceeded names root.

    No word is reduced.  The ideal is closed under the relations, so it is
    a union of whole equality classes, each holding its element's normal
    form, and an element lies in it exactly when any word of its class
    does.  Meets of ideals are again unions of classes."""

    def name(_):
        return format_word(root)

    cls = congruence.closure((root,), pres.partners, name)
    members = set(cls)
    steps = (c[:-1] + s for c in cls for s in swaps.get(c[-1], ()))
    longer = congruence.closure(steps, pres.partners, name)
    return _Ideal(cls + [y for y in longer if y[:-1] not in members])


def minimal_elements(elements, pres: Presentation):
    """Subset not properly left-divisible by any other member.

    Divisibility increases length, so scanning by element_key and testing
    only against minimals found so far is exact.
    """
    minimal = []
    for e in sorted(set(elements), key=element_key):
        if not any(left_divides(m, e, pres) is not None for m in minimal):
            minimal.append(e)
    return minimal


def brute_force_intersection(p: Word, q: Word, pres: Presentation):
    """Minimal common multiples of normal forms p and q, sorted by
    element_key; oracle for intersect_principal.  A pair with the identity
    is decided by definition: 1M and qM meet in qM, whose only generator is
    q, and the identity alone generates 1M.

    Otherwise they are the minimal elements among the normal forms of the
    words of the antichain of pM and qM's meet.  Take a minimal element m of
    the meet and any word of m's class: that word is in the meet, and a
    proper prefix of it in the meet would be a proper divisor of m, as
    relations preserve length, so the word is in the antichain.  Conversely,
    each word of the meet begins with a word of the antichain, whose element
    then divides it, so an element minimal among the antichain's normal
    forms is minimal in the meet.  An ideal over DEFAULT_CAP raises
    CapExceeded naming its root."""
    if not p or not q:
        return [p or q]
    swaps = _boundary_swaps(pres)
    common = _ideal(p, pres, swaps) & _ideal(q, pres, swaps)
    return minimal_elements((reduce_word(a, pres) for a in common.antichain), pres)


def _is_meet(gens, gen_ideals, common) -> bool:
    """Whether gens are exactly the minimal elements of common, the ideal of
    common multiples, given gen_ideals, the ideal of each generator.

    It holds when every generator is a common multiple, none lies in
    another's ideal, and every common multiple lies in some generator's
    ideal.  A minimal element then lies in the ideal of a generator, which
    it must equal.  A generator is minimal: a proper divisor of it in common
    would lie in the ideal of another generator, which would then divide it.
    The last test reads only common's antichain: a word of it lies in a
    generator's ideal exactly when its whole subtree does.  The ideals are
    unions of whole equality classes, so the membership tests decide the
    same on their raw words as on normal forms: a generator, itself a
    normal form, is in an ideal exactly when its class is.

    Three kinds of meet of a sampled pair (p, q) never reach this check;
    _holds decides each by the predicate it reduces to: no generators
    (disjoint ideals), (q,) (q in p's ideal) and (p,) (p in q's ideal).
    """
    if not all(g in common for g in gens):
        return False
    pairs = permutations(zip(gens, gen_ideals), 2)
    if any(g in h_ideal for (g, _), (_, h_ideal) in pairs):
        return False
    return all(any(c in i for i in gen_ideals) for c in common.antichain)


def _holds(p, q, gens, ideal) -> bool:
    """Whether gens, none of them the identity, is the meet of sampled
    nonempty elements p and q, given ideal, which maps a root to its ideal,
    by the predicate _is_meet reduces to for the kind of gens.  Each rests
    on root in ideal(root), which holds as the antichain holds root's
    class.

    No generators: the ideals of p and q are disjoint.  (q,): q lies in p's
    ideal; the common multiples all lie in q's ideal.  (p,): the mirror
    case.  Any other generators, from the base search or from a fault, go
    through _is_meet with the meet of the two ideals."""
    if not gens:
        return ideal(p).isdisjoint(ideal(q))
    if gens == (q,):
        return q in ideal(p)
    if gens == (p,):
        return p in ideal(q)
    return _is_meet(gens, [ideal(g) for g in gens], ideal(p) & ideal(q))


def _mismatch(p, q, gens, pres: Presentation) -> str:
    """The description of a pair (p, q) whose fast generators gens fail,
    against the minimal common multiples of brute_force_intersection."""
    minimal = brute_force_intersection(p, q, pres)
    return (
        f"({format_word(p)}, {format_word(q)}): fast generators "
        f"{[format_word(g) for g in sorted(gens, key=element_key)]} vs "
        f"oracle {[format_word(m) for m in minimal]}"
    )


def _fast_meeting(nfs, pres: Presentation, partners, stop: int) -> set:
    """Positions i * len(nfs) + j of the pairs (nfs[i], nfs[j]) that _meet
    gives any generator, listed in closed form without calling it: each
    element m with each of its left divisors d (rewriting._left_divisors),
    as (d, m) and (m, d), and the pairs (u a, u b) for each letter a and
    each b of its row of the letter table partners.  _meet returns the
    divisible side when one element divides the other, and otherwise the
    extensions they share, which _shared gives only to pairs u a, u b with
    b in a's row.  Listing stops once it holds more than stop positions."""
    count = len(nfs)
    index = {m: i for i, m in enumerate(nfs)}
    found = set()
    for j, m in enumerate(nfs):
        for d in _left_divisors(m, pres):
            i = index[d]
            found.add(i * count + j)
            found.add(j * count + i)
        if m and m[-1] in partners:  # m = u a: its pairs (u a, u b)
            prefix = m[:-1]
            found.update(
                j * count + index[prefix + (b,)]
                for b in partners[m[-1]]
                if prefix + (b,) in index
            )
        if len(found) > stop:
            break
    return found


def _oracle_meeting(nfs, pres: Presentation, ideals: dict) -> set:
    """Positions i * len(nfs) + j of the pairs whose ideals meet, read off
    the antichains alone, no pair visited.  The identity, nfs[0], meets
    every element by definition.  Two other ideals meet exactly when a word
    of one antichain is a prefix of a word of the other (_Ideal.isdisjoint),
    so each antichain word is indexed by its root, and each prefix of a
    root's antichain words names the roots that meet it.  The ideal of each
    nonempty element is built once and put in ideals, root -> ideal."""
    swaps = _boundary_swaps(pres)
    count = len(nfs)
    owners = {}  # antichain word -> indices of the roots whose antichain holds it
    for i, root in enumerate(nfs[1:], 1):
        ideals[root] = _ideal(root, pres, swaps)
        for a in ideals[root].antichain:
            owners.setdefault(a, []).append(i)
    found = set(range(count))
    found.update(range(0, count * count, count))
    for j, root in enumerate(nfs[1:], 1):
        mates = {i for w in ideals[root].prefixes for i in owners.get(w, ())}
        found.update(i * count + j for i in mates)
        found.update(j * count + i for i in mates)
    return found


def _listed(p, q, pres: Presentation, partners) -> tuple:
    """The generators that the listing of _fast_meeting gives the pair
    (p, q): the divisible side, else the extensions they share."""
    if p in _left_divisors(q, pres):
        return (q,)
    if q in _left_divisors(p, pres):
        return (p,)
    return tuple(_shared(q, p[:-1], _row(p, partners)))


def _oracle_mismatches(
    positions, nfs, pres: Presentation, partners, ideals=None
) -> dict:
    """Check the meet of the pair (nfs[i], nfs[j]) at each position
    i * len(nfs) + j against the brute-force oracle, and describe each pair
    that fails: position -> description, in the order of positions.

    Ascending positions come grouped by their first element p, whose
    prefix and row of the letter table partners, the one the sweep reads,
    are read once for the run of positions that share it.  A pair with the
    identity is decided by definition: it holds exactly when its generators
    are the other element alone, or the identity alone for the pair of
    identities.  So is a pair of nonempty elements whose generators include
    the identity, which divides neither.  Every other pair is decided by
    _holds.  Each root's ideal is built the first time a check reads it,
    unless ideals, root -> ideal, already holds it, and is held for the run:
    an ideal is only its antichain and the prefixes of its words.  A
    failing pair is described by brute_force_intersection.
    """
    swaps = _boundary_swaps(pres)
    ideals = {} if ideals is None else ideals

    def ideal(root):
        found = ideals.get(root)
        if found is None:
            found = ideals[root] = _ideal(root, pres, swaps)
        return found

    count = len(nfs)
    wrong = {}
    base = end = 0
    for pos in positions:
        if not base <= pos < end:
            base = pos - pos % count
            end = base + count
            p = nfs[base // count]
            prefix, row = p[:-1], _row(p, partners)
        q = nfs[pos - base]
        try:
            _, gens = _meet(p, q, _shared(q, prefix, row), pres)
        except AlignmentViolation:
            continue  # only partners raise, and the sweep reported those
        if p and q and () not in gens:
            holds = _holds(p, q, gens, ideal)
        else:
            holds = gens == (p or q,)
        if not holds:
            wrong[pos] = _mismatch(p, q, gens, pres)
    return wrong


class AlignmentReport(NamedTuple):
    """Sweep summary: exhaustive generator counts plus spot checks against
    the brute-force oracle.  violations is empty on a clean run.

    expected_non_principal is the exact number of non-principal pairs the
    paper gives for these bounds; it is checked, not serialised.
    """

    n: int
    max_len: int
    pair_count: int
    max_generators: int
    non_principal: tuple  # (p, q, generator strings) triples
    sampled: int
    window: int
    seed: int
    mismatches: tuple
    expected_non_principal: int

    @property
    def bound(self) -> int:
        return _bound(self.n)

    @property
    def violations(self) -> tuple:
        """The mismatches, then a generator count over the bound, then a
        non-principal pair count other than the exact one."""
        found = list(self.mismatches)
        if self.max_generators > self.bound:
            found.append(
                f"max generator count {self.max_generators} exceeds "
                f"bound {self.bound}"
            )
        if len(self.non_principal) != self.expected_non_principal:
            found.append(
                f"{len(self.non_principal)} non-principal pairs, expected "
                f"exactly {self.expected_non_principal}"
            )
        return tuple(found)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "max_len": self.max_len,
            "pair_count": self.pair_count,
            "max_generators": self.max_generators,
            "bound": self.bound,
            "non_principal": [
                {"p": p, "q": q, "generators": list(gens)}
                for p, q, gens in self.non_principal
            ],
            "sampled": self.sampled,
            "window": self.window,
            "seed": self.seed,
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


def verify_alignment(
    pres: Presentation,
    max_len: int,
    samples: int,
    window: int,
    seed: int = DEFAULT_SEED,
) -> AlignmentReport:
    """Account for the intersection of every ordered pair of elements of
    length <= max_len, then validate a seeded sample of pairs against the
    brute-force oracle.  Problems are reported, not raised.

    Only the pairs u a, u b are intersected, for u of length < max_len and
    each letter pair (a, b) that the letter table gives two or more tails,
    heavy below, in enumeration order with p outer.  No other pair can add
    to the report: _meet returns the divisible side, one generator, or the
    shared Q extensions, u followed by the tails of the pair's last letters
    as _shared has it, and raises only when those exceed the bound,
    which is at least 1.  Every element divides itself, so the largest
    generator count starts at 1; pair_count stays the number of ordered
    pairs.  A letter that shares an extension is a P letter, which never
    ends an R word, so u a and u b are normal forms, distinct and of one
    length.  Relations preserve length, so neither divides the other, and
    the sweep calls _meet's base-search branch, _bases, directly.  The
    table is not built at max_len 0, where only the identity is swept.

    No per-pair result is stored.  The oracle reads the same table and
    accounts for k = min(samples, pair_count) pairs, each at its position
    i * len(nfs) + j, checked in ascending order.  Below the pair count
    the positions are the seeded draw, sorted, and a k over DEFAULT_CAP,
    read at call time, raises ValueError before any element is listed or
    index drawn.  At the pair count no sample is drawn.  The pairs that
    meet are listed twice: by the fast side in closed form (_fast_meeting)
    and by the oracle off the ideals' antichains (_oracle_meeting), which
    builds each nonempty element's ideal once for the check to read.  Only
    the pairs of the union are checked, so their number is what counts
    against DEFAULT_CAP: over it, ValueError, raised as soon as the fast
    listing passes it, before any ideal is built, or else once the union
    is formed.  A pair in one listing only is reported, with the generators
    that listing gives it (_listed).  Every other pair holds: _meet gives it
    no generator, as the fast listing is exactly the pairs that it gives
    any, and its ideals are disjoint, as the oracle's is exactly the pairs
    whose ideals meet.  So those pairs are proved, not checked, and the
    proof rests on _left_divisors listing exactly what _left_divides_nf,
    which _meet runs, finds: a fault that makes _left_divides_nf find a
    divisor the closed form does not list, on a pair that does not meet,
    reaches neither listing and is caught only by a sample that draws the
    pair.  Failures are reported in the order of the seeded draw, which is
    redrawn for them, except in a check of every pair of more than
    DEFAULT_CAP pairs, where that draw would list every position: there
    they are reported by ascending position.  No ideal depends on the
    window (see _ideal), so the window is only checked against max_len and
    reported.
    """
    if pres.n is None:
        raise PresentationError("alignment verification needs the indexed family")
    if window < max_len + 1:
        raise WindowTooSmall(f"window {window} below element bound {max_len} + 1")
    cap = congruence.DEFAULT_CAP
    if samples > cap and samples < count_elements(pres, max_len) ** 2:
        raise ValueError(
            f"an oracle sample of {samples} pairs is over the budget of {cap} pairs"
        )
    nfs = enumerate_elements(pres, max_len)
    total = len(nfs) ** 2
    k = min(samples, total)
    partners = _letter_partners(pres.relations) if max_len else {}
    heavy = [
        (a, b, tails)
        for a, bs in partners.items()
        for b, tails in bs.items()
        if len(tails) >= 2
    ]
    max_generators = 1  # every element divides itself
    non_principal = []
    mismatches = []
    for u in nfs[: count_elements(pres, max_len - 1)] if heavy else ():
        for a, b, tails in heavy:
            p, q = u + (a,), u + (b,)
            try:
                gens = _bases(p, q, {u + t for t in tails}, pres.n)
            except AlignmentViolation as exc:
                mismatches.append(f"({format_word(p)}, {format_word(q)}): {exc}")
                continue
            count = len(gens)
            if count > max_generators:
                max_generators = count
            if count >= 2:
                names = tuple(map(format_word, sorted(gens, key=element_key)))
                non_principal.append((format_word(p), format_word(q), names))

    def draw():
        return random.Random(seed).sample(range(total), k)

    ideals = {}
    if k == total:  # every pair: those that meet, by either listing
        fast = _fast_meeting(nfs, pres, partners, cap)
        oracle = _oracle_meeting(nfs, pres, ideals) if len(fast) <= cap else set()
        meeting = fast | oracle
        if len(meeting) > cap:
            raise ValueError(
                f"an oracle check of every pair is over the budget of {cap} "
                "meeting pairs"
            )
        positions = sorted(meeting)
    else:
        positions = sorted(draw())
    failed = _oracle_mismatches(positions, nfs, pres, partners, ideals)
    if k == total:  # a pair in one listing only fails, checked or not
        count = len(nfs)
        for pos in fast.symmetric_difference(oracle).difference(failed):
            p, q = nfs[pos // count], nfs[pos % count]
            failed[pos] = _mismatch(p, q, _listed(p, q, pres, partners), pres)
    if failed:  # by the seeded draw, unless it would list over cap positions
        order = draw() if k < total or total <= cap else sorted(failed)
        mismatches += [failed[i] for i in order if i in failed]
    return AlignmentReport(
        n=pres.n,
        max_len=max_len,
        pair_count=total,
        max_generators=max_generators,
        non_principal=tuple(non_principal),
        sampled=k,
        window=window,
        seed=seed,
        mismatches=tuple(mismatches),
        expected_non_principal=_non_principal_count(pres, max_len),
    )
