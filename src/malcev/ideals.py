"""Intersections of principal right ideals.

For elements p, q of M_n the intersection pM and qM is principal whenever it
is nonempty and n >= 2; for n = 1 it needs at most two generators.  The fast
algorithm checks mutual reachability with the closed-form divisibility of
the rewriting module and otherwise intersects the one-letter Q extensions of
p and q.  Its oracle is a windowed brute-force search over common multiples.
The ideal of an element within the window is the word set of the same
closure that enumerates equality classes, seeded with the element's literal
extensions; the identity's ideal is every element and is never built.  No
word of it is reduced: the closure is closed under the relations, so an
ideal is a union of whole equality classes, each holding its normal form,
and membership, meets and differences of ideals decide the same as on
normal forms.  So the oracle's verdict does not depend on the rewriting
code; only the description of a failing pair reduces words.

The alignment sweep reads each element's partners, the other elements that
share a Q extension with it, off its normal form.  Prefix lemma: the Q
extensions of u a are u followed by those of the letter a.  So two nonempty
elements share one only as u a and u b, and they then share u followed by
what a and b share, which a table over the letters holds once per letter
pair.  The sweep intersects only the pairs of partners and stores no
per-pair result.  Its oracle builds each root's ideal once: the sample is
drawn before the sweep, the uses of each root in it are counted, and an
ideal is dropped right after its last use.  The sampled pairs are checked
grouped by their shorter root, so each large ideal lives for one block of
the sample, and mismatches are reported in sample order.  Common multiples
are then the meet of two ideals, and the returned generators are checked
by membership in their own ideals.  The per-pair oracle,
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
    for n = 1.
    """
    if pres.n is None:
        raise PresentationError("ideal intersection needs the indexed family")
    shared = _q_extensions(p, pres) & _q_extensions(q, pres)
    provenance, gens = _meet(p, q, shared, pres)
    kind = (EMPTY, PRINCIPAL, GENERATORS)[len(gens)]
    return IntersectionResult(kind, tuple(sorted(gens, key=element_key)), provenance)


def _q_extensions(nf, pres: Presentation) -> frozenset:
    """Normal forms of nf times each Q letter, for a normal form nf.

    Boundary lemma: for a normal form p and a letter x, the normal form of
    p x is p[:-1] followed by the pair p[-1] x, or by its L partner when
    that pair is an R word, and is just (x,) when p is the identity.  The
    L partner starts with a P letter, so it forms no R word with p[-2].
    The result is wrong when nf is not a normal form; the alignment oracle
    checks every meet built from it.
    """
    rewrite = pres.rewrite_map
    head, tail = nf[:-1], nf[-1:]
    pairs = (tail + (x,) for x in pres.q_letters)
    return frozenset(head + rewrite.get(pair, pair) for pair in pairs)


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


def _letter_partners(pres: Presentation) -> dict:
    """Each letter a that shares a one-letter Q extension with another
    letter, mapped to (b, tails) pairs in token order: the letters b whose
    _q_extensions((b,)) meets _q_extensions((a,)), each with the set of
    two-letter extensions the two share.  By the prefix lemma, u a and u b
    share exactly u followed by those tails.  They are found through an
    index from each two-letter extension to the letters that have it."""
    having = {}  # two-letter Q extension -> letters that have it
    for b in pres.generators:
        for x in _q_extensions((b,), pres):
            having.setdefault(x, []).append(b)
    partners = {}
    for x, letters in having.items():
        for a, b in permutations(letters, 2):
            partners.setdefault(a, {}).setdefault(b, set()).add(x)
    return {a: sorted(bs.items()) for a, bs in sorted(partners.items())}


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


def _oracle_mismatches(sample, window: int, pres: Presentation):
    """Check the meet of each sampled pair against the brute-force oracle.

    The Q extensions of each distinct sampled element are computed once.
    Each root's ideal is built once and dropped after its last use: the
    uses of every root, as a sampled element or as a returned generator,
    are counted before the first ideal is built.  The pairs are checked
    grouped by the shorter nonempty root of the pair, whose ideal is the
    larger, so each large ideal is held for one block of the sample: the
    key is the root's rank by element_key among the sampled elements, the
    identity last, and ties keep sample order.  Mismatches are reported in
    sample order.
    """
    distinct = {w for pair in sample for w in pair}
    extensions = {w: _q_extensions(w, pres) for w in distinct}
    rank = {w: i for i, w in enumerate(sorted(distinct - {()}, key=element_key))}
    rank[()] = len(rank)  # the identity's ideal is never built
    checks, keys = [], []
    for p, q in sample:
        try:
            _, gens = _meet(p, q, extensions[p] & extensions[q], pres)
        except AlignmentViolation:
            continue  # already reported by the sweep
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

    The pairs that share an extension are read off the normal forms by the
    prefix lemma: the Q extensions of p = u a are u followed by those of
    the letter a, and those of the identity are single letters.  So the
    partners of p are u + (b,) for each letter b that _letter_partners gives
    a, and p shares with u + (b,) exactly u followed by the tails it gives
    the pair; no element's own extensions are computed.  The partners follow
    p's enumeration order, since they differ only in the last letter.  Each
    is an element: a letter that shares an extension with another letter is
    a P letter, and a P letter never ends an R word.  Only the identity is
    swept at max_len 0, so the letter table is not built there.

    No per-pair result is stored.  The sample is drawn before the sweep.
    The oracle builds the ideal of each sampled element and returned
    generator once, checks the pairs grouped by their shorter root, and
    drops each ideal after its last use.  A window in which some sampled
    element has more literal extensions than the closure cap is refused up
    front with a ValueError.
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
        seeds = count_over_budget(pres, window - len(shortest))
        if seeds is not None:
            raise ValueError(
                f"window {window} is too large for the oracle: the ideal of "
                f"{format_word(shortest)} has {seeds} seed words, over the "
                f"closure cap of {DEFAULT_CAP}"
            )
    letter_partners = _letter_partners(pres) if max_len else {}
    max_generators = 1  # every element divides itself
    non_principal = []
    mismatches = []
    for p in nfs[1:]:  # the identity shares no Q extension
        u = p[:-1]
        for b, tails in letter_partners.get(p[-1], ()):
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
    mismatches += _oracle_mismatches(sample, window, pres)
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
