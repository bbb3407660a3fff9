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

The oracle is a windowed brute-force search over common multiples.  The
ideal of an element within the window is the word set of the same closure
that enumerates equality classes, seeded with the element's literal
extensions; the identity's ideal is every element and is never built.  No
word of it is reduced: the closure is closed under the relations, so an
ideal is a union of whole equality classes, each holding its normal form,
and membership, meets and differences of ideals decide the same as on
normal forms.  So the oracle's verdict does not depend on the rewriting
code; only the description of a failing pair reduces words.  Each root's
ideal is built once and dropped after its last use in the sample, and the
sampled pairs are checked grouped by their shorter root, so each large
ideal lives for one block of the sample.  The per-pair oracle,
brute_force_intersection, is minimised with the search-based divisibility
of the congruence module and describes any pair that fails.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product

from .congruence import DEFAULT_CAP, closure, count_over_budget, left_divides
from .presentation import Presentation, PresentationError, Word, format_word
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

DEFAULT_SEED = 1729


class AlignmentViolation(RuntimeError):
    """More intersection bases than the family admits; a bug or a foreign
    presentation."""


class WindowTooSmall(ValueError):
    """The brute-force window cannot contain a minimal common multiple."""


@dataclass(frozen=True)
class IntersectionResult:
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


def _ideal(root, window: int, pres: Presentation):
    """The elements of length <= window that root left-divides, as the
    words of the closure of root's literal extensions.  None for the
    identity, whose ideal is every element and is never built.

    No word is reduced.  The closure is closed under the relations, so it
    is a union of whole equality classes, each holding its element's normal
    form, and an element lies in it exactly when any word of its class
    does.  Meets and differences of ideals are again unions of classes."""
    if not root:
        return None
    seeds = (
        root + x
        for extra in range(window - len(root) + 1)
        for x in product(pres.generators, repeat=extra)
    )
    return frozenset(closure(seeds, pres))


def _common(p_ideal, q_ideal):
    """Meet of two ideals from _ideal; None only when both are None."""
    if p_ideal is None:
        return q_ideal
    if q_ideal is None:
        return p_ideal
    return p_ideal & q_ideal


def common_multiples(p: Word, q: Word, window: int, pres: Presentation):
    """Normal forms of length <= window divisible by both normal forms p and
    q, sorted by element_key."""
    if window < max(len(p), len(q)) + 1:
        raise WindowTooSmall(
            f"window {window} cannot reach a minimal common multiple of "
            f"{format_word(p)} and {format_word(q)}"
        )
    common = _common(_ideal(p, window, pres), _ideal(q, window, pres))
    if common is None:  # both are the identity
        return enumerate_elements(pres, window)
    return sorted({reduce_word(w, pres) for w in common}, key=element_key)


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
    """Whether gens are exactly the minimal elements of common, the common
    multiples within the window (None: every element), given gen_ideals,
    the ideal of each generator.

    It holds when every generator is a common multiple, none lies in
    another's ideal, and every common multiple lies in some generator's
    ideal.  A minimal element then lies in the ideal of a generator, which
    it must equal.  A generator is minimal: a proper divisor of it in common
    would lie in the ideal of another generator, which would then divide it.
    The ideals are unions of whole equality classes, so the membership
    tests and the difference decide the same on their raw words as on
    normal forms: a generator, itself a normal form, is in an ideal exactly
    when its class is.
    """
    if not all(common is None or g in common for g in gens):
        return False
    pairs = permutations(zip(gens, gen_ideals), 2)
    if any(h_ideal is None or g in h_ideal for (g, _), (_, h_ideal) in pairs):
        return False
    if () in gens:  # the identity divides everything
        return True
    return common is not None and not common.difference(*gen_ideals)


def _oracle_mismatches(sample, window: int, pres: Presentation, partners):
    """Check the meet of each sampled pair against the brute-force oracle.

    Shared Q extensions come from the letter table partners, the one the
    sweep reads.  Each root's ideal is built once and dropped after its
    last use: the uses of every root, as a sampled element or as a returned
    generator, are counted before the first ideal is built.  The pairs are
    checked grouped by the shorter nonempty root of the pair, whose ideal
    is the larger, so each large ideal is held for one block of the sample:
    the key is the root's rank by element_key among the sampled elements,
    the identity last, and ties keep sample order.  Mismatches are reported
    in sample order.
    """
    distinct = {w for pair in sample for w in pair}
    rank = {w: i for i, w in enumerate(sorted(distinct - {()}, key=element_key))}
    rank[()] = len(rank)  # the identity's ideal is never built
    checks, keys = [], []
    for p, q in sample:
        try:
            _, gens = _meet(p, q, _shared(p, q, partners), pres)
        except AlignmentViolation:
            continue  # only partners raise, and the sweep reported those
        checks.append((p, q, gens))
        keys.append(min(rank[p], rank[q]))
    uses = Counter(root for p, q, gens in checks for root in (p, q, *gens) if root)
    ideals = {}

    def ideal(root):
        if not root:
            return None
        found = ideals.get(root)
        if found is None:
            found = ideals[root] = _ideal(root, window, pres)
        uses[root] -= 1
        if not uses[root]:
            del ideals[root]
        return found

    mismatches = {}  # position in checks -> description
    for i in sorted(range(len(checks)), key=keys.__getitem__):
        p, q, gens = checks[i]
        common = _common(ideal(p), ideal(q))
        gen_ideals = [ideal(g) for g in gens]
        if not _is_meet(gens, gen_ideals, common):
            minimal = brute_force_intersection(p, q, window, pres)
            mismatches[i] = (
                f"({format_word(p)}, {format_word(q)}): fast generators "
                f"{[format_word(g) for g in sorted(gens, key=element_key)]} vs "
                f"oracle {[format_word(m) for m in minimal]}"
            )
    return [mismatches[i] for i in sorted(mismatches)]


@dataclass(frozen=True)
class AlignmentReport:
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
    The oracle reads the same table, builds the ideal of each sampled
    element and returned generator once, checks the pairs grouped by their
    shorter root, and drops each ideal after its last use.  A window in
    which some sampled element has more literal extensions than the closure
    cap is refused up front with a ValueError.
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
                f"closure cap of {DEFAULT_CAP}"
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
