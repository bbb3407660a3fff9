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

The oracle is a windowed brute-force search over common multiples.  A
pair with the identity is decided by definition: 1M and qM meet in qM,
whose only generator is q.  Every other ideal is the closure under the
relations of a nonempty root's literal extensions within the window, and
it is held as its antichain: its words with no proper prefix in it.  The
ideal is closed under right extension (if w = root x then w z = root x z),
so it is exactly the words within the window that begin with a word of
the antichain.  The antichain is found by a search that extends a word
only across its last letter: from root, by relation steps inside a word
and by the steps y -> y[:-1] s, for each partner s of a relation side
y[-1] g, which give y g.  Any relation step on an extension y z falls
inside y, inside z, which keeps it in y's subtree, or across the seam, so
these steps reach a prefix of every word of the ideal (see _ideal).  No
word of it is reduced: an ideal is a union of whole equality classes, each
holding its normal form, so membership and meets decide the same as on
normal forms, and the oracle's verdict does not depend on the rewriting
code; only the description of a failing pair reduces words.  On
antichains a word lies in an ideal when a prefix of it is in the
antichain; two ideals are disjoint when no word of either antichain is a
prefix of a word of the other; and their meet's antichain is the words of
each antichain that lie in the other ideal.  Each sampled pair of nonempty
elements is decided by the kind of its returned meet: an empty meet by
disjoint ideals, a meet of p or q by one membership, and only a
base-search meet by the antichain of its common multiples.  Each root's
ideal is built once and held for the run, and the pairs are checked in
sample order.  The per-pair oracle, brute_force_intersection, expands and
reduces only the meet's antichain, is minimised with the search-based
divisibility of the congruence module, and describes any pair that fails.
"""

from __future__ import annotations

import random
from itertools import permutations, product
from typing import NamedTuple

from . import congruence
from .congruence import (
    CapExceeded,
    count_over_budget,
    left_divides,
    word_count,
)
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
    "common_multiples",
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
    """The brute-force window cannot contain a minimal common multiple."""


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
    provenance, gens = _meet(p, q, _shared(p, q, partners), pres)
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


def _shared(p, q, partners) -> set:
    """The Q extensions that normal forms p and q share, by the prefix
    lemma: p[:-1] followed by the letter table's tails for p[-1] and q[-1]
    when p and q are nonempty with the same prefix, else none.  The table
    pairs no letter with itself, so p shares none with itself; it divides
    itself, and _meet returns it first."""
    if not p or not q or p[:-1] != q[:-1]:
        return set()
    u = p[:-1]
    return {u + t for t in partners.get(p[-1], {}).get(q[-1], ())}


def _meet(p, q, shared, pres: Presentation):
    """Provenance and generator normal forms, unordered, of pM and qM's
    intersection, for normal forms p and q sharing the Q extensions shared."""
    if _left_divides_nf(p, q, pres) is not None:
        return "reachable-p-to-q", (q,)
    if _left_divides_nf(q, p, pres) is not None:
        return "reachable-q-to-p", (p,)
    if len(shared) > _bound(pres.n):
        raise AlignmentViolation(
            f"{len(shared)} incomparable bases for p={format_word(p)}, "
            f"q={format_word(q)} at n={pres.n}: "
            + "; ".join(map(format_word, sorted(shared, key=element_key)))
        )
    return "base-search", tuple(shared)


def _boundary_swaps(pres: Presentation) -> dict:
    """Letter x -> the partners of every relation side that begins with x,
    in presentation order: the two-letter words that one relation step can
    put in place of a letter x and the letter after it.  Built once per run
    and read by _ideal."""
    swaps = {}
    for side, words in pres.partners.items():
        swaps.setdefault(side[0], []).extend(words)
    return swaps


def _over_budget(root) -> CapExceeded:
    """The error for an ideal of root over the word budget, worded as the
    closure of its literal extensions would word it."""
    return CapExceeded(
        f"closure of {format_word(root)} exceeds {congruence.DEFAULT_CAP} "
        "words, the fixed word budget congruence.DEFAULT_CAP"
    )


class _Ideal:
    """An ideal within a window, held as its antichain: its words with no
    proper prefix in it.  The ideal is closed under right extension within
    the window, so it is exactly the words of length <= window that begin
    with a word of the antichain, and the subtrees of those words are
    disjoint.  prefixes holds every nonempty prefix of the antichain's
    words."""

    __slots__ = ("antichain", "prefixes", "window")

    def __init__(self, antichain, window: int):
        self.antichain = frozenset(antichain)
        self.prefixes = frozenset(
            a[:k] for a in self.antichain for k in range(1, len(a) + 1)
        )
        self.window = window

    def __contains__(self, w) -> bool:
        """Whether the word w lies in the ideal: it fits the window and a
        prefix of it is in the antichain."""
        return len(w) <= self.window and not self.antichain.isdisjoint(
            w[:k] for k in range(1, len(w) + 1)
        )

    def isdisjoint(self, other: "_Ideal") -> bool:
        """Whether no word lies in both ideals: no word of either antichain
        is a prefix of a word of the other.  If one is, the longer of the
        two lies in both; a common word begins with a word of each, and the
        shorter of those is a prefix of the longer."""
        return self.antichain.isdisjoint(
            other.prefixes
        ) and other.antichain.isdisjoint(self.prefixes)

    def __and__(self, other: "_Ideal") -> "_Ideal":
        """The meet of two ideals within one window, as its antichain: the
        words of each antichain that lie in the other ideal.  A common word
        begins with a word of each antichain, and the longer of those lies
        in both ideals.  The result is an antichain: were a word a of one
        part a proper prefix of a word b of the other's antichain, a would
        begin with a word of b's antichain, which would be a proper prefix
        of b."""
        return _Ideal(
            [a for a in self.antichain if a in other]
            + [b for b in other.antichain if b in self],
            self.window,
        )


def _ideal(root, window: int, pres: Presentation, swaps: dict) -> _Ideal:
    """The elements of length <= window that a nonempty root left-divides:
    the closure of root's literal extensions, held as its antichain, given
    swaps, the index _boundary_swaps(pres).

    The closure is closed under right extension within the window: if
    w = root x in the monoid, then w z = root (x z).  So it is a union of
    whole prefix subtrees, and its antichain is found by a search over
    words that need not be extended letter by letter.  Let P be the
    smallest set that holds root and is closed under (a) one relation step
    inside a word and (b) y -> y[:-1] s for each partner s of a relation
    side that begins with y[-1], when |y| < window.  Then the closure is
    the words y x with y in P and |y x| <= window.  Sound: (a) keeps a word
    in its class, and y[:-1] s equals y g for the side y[-1] g.  Complete:
    a relation step on y z falls inside y, which (a) covers; inside z,
    which stays in y's subtree; or across the seam, which (b) covers.  The
    search skips a word that has a proper prefix among the words found: it
    is not in the antichain, the words found with no proper prefix among
    them.  Every word of the antichain is still stepped from, so the
    completeness argument holds for the subtrees of the antichain, and
    they are the whole closure.

    The whole ideal counts against DEFAULT_CAP, read at call time: every
    word found lies in it, so CapExceeded, naming root, is raised when the
    search finds more words than the cap, or else when the subtrees of the
    antichain hold more.  A root longer than the window has an empty ideal.

    No word is reduced.  The closure is closed under the relations, so it
    is a union of whole equality classes, each holding its element's normal
    form, and an element lies in it exactly when any word of its class
    does.  Meets of ideals are again unions of classes."""
    partners = pres.partners
    found = {root} if len(root) <= window else set()
    queue = list(found)

    def covered(y) -> bool:
        """Whether a proper prefix of y is among the words found; none is
        shorter than root."""
        return not found.isdisjoint(y[:k] for k in range(len(root), len(y)))

    for y in queue:
        if covered(y):
            continue
        steps = [
            y[:i] + s + y[i + 2 :]
            for i in range(len(y) - 1)
            for s in partners.get(y[i : i + 2], ())
        ]
        if len(y) < window:
            steps += [y[:-1] + s for s in swaps.get(y[-1], ())]
        for z in steps:
            if z not in found:
                if len(found) >= congruence.DEFAULT_CAP:
                    raise _over_budget(root)
                found.add(z)
                queue.append(z)
    antichain = [y for y in found if not covered(y)]
    size = sum(word_count(pres, window - len(y)) for y in antichain)
    if size > congruence.DEFAULT_CAP:
        raise _over_budget(root)
    return _Ideal(antichain, window)


def common_multiples(p: Word, q: Word, window: int, pres: Presentation):
    """Normal forms of length <= window divisible by both normal forms p and
    q, sorted by element_key.  Only the meet of the two ideals is listed
    and reduced: it lies in each ideal, which is within the word budget."""
    if window < max(len(p), len(q)) + 1:
        raise WindowTooSmall(
            f"window {window} cannot reach a minimal common multiple of "
            f"{format_word(p)} and {format_word(q)}"
        )
    swaps = _boundary_swaps(pres)
    found = [_ideal(root, window, pres, swaps) for root in (p, q) if root]
    if not found:  # the identity's ideal is every element
        return enumerate_elements(pres, window)
    common = found[0] if len(found) == 1 else found[0] & found[1]
    words = (
        a + x
        for a in common.antichain
        for k in range(window - len(a) + 1)
        for x in product(pres.generators, repeat=k)
    )
    return sorted({reduce_word(w, pres) for w in words}, key=element_key)


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


def brute_force_intersection(p: Word, q: Word, window: int, pres: Presentation):
    """Minimal common multiples of p and q within the window; oracle for
    intersect_principal."""
    return minimal_elements(common_multiples(p, q, window, pres), pres)


def _is_meet(gens, gen_ideals, common) -> bool:
    """Whether gens are exactly the minimal elements of common, the ideal of
    common multiples within the window, given gen_ideals, the ideal of each
    generator.

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
    on root in ideal(root), which holds as a sampled element is shorter
    than the window.

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


def _oracle_mismatches(sample, window: int, pres: Presentation, partners):
    """Check the meet of each sampled pair against the brute-force oracle,
    in sample order, and describe each pair that fails.

    Shared Q extensions come from the letter table partners, the one the
    sweep reads.  A pair with the identity is decided by definition: it
    holds exactly when its generators are the other element alone, or the
    identity alone for the pair of identities.  So is a pair of nonempty
    elements whose generators include the identity, which divides neither.
    Every other pair is decided by _holds.  Each root's ideal is built the
    first time a check reads it and held for the run: an ideal is only its
    antichain and the prefixes of its words.
    """
    swaps = _boundary_swaps(pres)
    ideals = {}

    def ideal(root):
        found = ideals.get(root)
        if found is None:
            found = ideals[root] = _ideal(root, window, pres, swaps)
        return found

    wrong = []
    for p, q in sample:
        try:
            _, gens = _meet(p, q, _shared(p, q, partners), pres)
        except AlignmentViolation:
            continue  # only partners raise, and the sweep reported those
        if p and q and () not in gens:
            holds = _holds(p, q, gens, ideal)
        else:
            holds = gens == (p or q,)
        if not holds:
            wrong.append((p, q, gens))
    return [
        f"({format_word(p)}, {format_word(q)}): fast generators "
        f"{[format_word(g) for g in sorted(gens, key=element_key)]} vs oracle "
        f"{[format_word(m) for m in brute_force_intersection(p, q, window, pres)]}"
        for p, q, gens in wrong
    ]


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

    Only pairs of distinct elements that share a one-letter Q extension are
    intersected, in enumeration order with p outer and q inner.  No other
    pair can add to the report: _meet returns either the divisible side,
    one generator, or the shared Q extensions, and it raises only when those
    exceed the bound.  A pair with no shared extension therefore has at most
    one generator and cannot raise, and every element divides itself, so
    the largest generator count starts at 1.  pair_count stays the number
    of ordered pairs.

    The partners of p = u a are u + (b,) for each letter b that the letter
    table pairs with a, sharing u followed by the pair's tails, as _shared
    has it.  They follow p's enumeration order, since they differ only in
    the last letter.  Each is an element: a letter that shares an
    extension is a P letter, and a P letter never ends an R word.  Only the
    identity is swept at max_len 0, and it shares nothing, so the table is
    not built there.

    No per-pair result is stored.  The sample is drawn before the sweep.
    The oracle reads the same table, builds once each ideal that a pair's
    check reads, and checks the pairs in sample order.  A window in which
    some sampled element has more literal extensions than the closure cap
    is refused up front with a ValueError.
    """
    if pres.n is None:
        raise PresentationError("alignment verification needs the indexed family")
    if window < max_len + 1:
        raise WindowTooSmall(f"window {window} below element bound {max_len} + 1")
    nfs = enumerate_elements(pres, max_len)
    total = len(nfs) ** 2
    rng = random.Random(seed)
    k = min(samples, total)
    sample = [
        (nfs[idx // len(nfs)], nfs[idx % len(nfs)])
        for idx in rng.sample(range(total), k)
    ]
    shortest = min((w for pair in sample for w in pair if w), key=len, default=None)
    if shortest is not None:
        seeds = count_over_budget(len(pres.generators), window - len(shortest))
        if seeds is not None:
            raise ValueError(
                f"window {window} is too large for the oracle: the ideal of "
                f"{format_word(shortest)} has {seeds} seed words, over the "
                f"closure cap of {congruence.DEFAULT_CAP}"
            )
    partners = _letter_partners(pres.relations) if max_len else {}
    max_generators = 1  # every element divides itself
    non_principal = []
    mismatches = []
    for p in nfs[1:]:  # the identity shares no Q extension
        u = p[:-1]
        for b, tails in partners.get(p[-1], {}).items():
            q = u + (b,)
            try:
                _, gens = _meet(p, q, {u + t for t in tails}, pres)
            except AlignmentViolation as exc:
                mismatches.append(f"({format_word(p)}, {format_word(q)}): {exc}")
                continue
            count = len(gens)
            if count > max_generators:
                max_generators = count
            if count >= 2:
                names = tuple(map(format_word, sorted(gens, key=element_key)))
                non_principal.append((format_word(p), format_word(q), names))
    mismatches += _oracle_mismatches(sample, window, pres, partners)
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
