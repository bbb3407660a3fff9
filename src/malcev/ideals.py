"""Intersections of principal right ideals.

For elements p, q of M_n the intersection pM and qM is principal whenever it
is nonempty and n >= 2; for n = 1 it needs at most two generators.  The fast
algorithm checks mutual reachability with the closed-form divisibility of
the rewriting module and otherwise intersects the one-letter Q extensions of
p and q.  Its oracle is a windowed brute-force search over common multiples.
The ideal of an element within the window comes from the same closure that
enumerates equality classes, seeded with the element's literal extensions;
the identity's ideal is every element and is never built.

The alignment sweep does each element's work once.  It computes every
element's Q extensions once, keyed by normal form, intersects only the
pairs that share one, and stores no per-pair result.  Its oracle builds
each root's ideal once: the sample is drawn before the sweep, the uses of
each root in it are counted, and an ideal is dropped right after its last
use.  Common multiples are then the meet of two ideals, and the returned
generators are checked by membership in their own ideals.  The per-pair
oracle, brute_force_intersection, is minimised with the search-based
divisibility of the congruence module and describes any pair that fails.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product

from .congruence import DEFAULT_CAP, closure, count_over_budget, left_divides
from .presentation import Presentation, PresentationError, Word, format_word
from .rewriting import _left_divides_nf, element_key, enumerate_elements, reduce_word

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
    provenance, gens = _meet(p, q, _q_extensions(p, pres), _q_extensions(q, pres), pres)
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


def _meet(p, q, p_ext, q_ext, pres: Presentation):
    """Provenance and generator normal forms, unordered, of pM and qM's
    intersection, for normal forms p and q with Q extensions p_ext and q_ext."""
    if _left_divides_nf(p, q, pres) is not None:
        return "reachable-p-to-q", (q,)
    if _left_divides_nf(q, p, pres) is not None:
        return "reachable-q-to-p", (p,)
    shared = p_ext & q_ext
    if len(shared) > (2 if pres.n == 1 else 1):
        raise AlignmentViolation(
            f"{len(shared)} incomparable bases for p={format_word(p)}, "
            f"q={format_word(q)} at n={pres.n}: "
            + "; ".join(map(format_word, sorted(shared, key=element_key)))
        )
    return "base-search", tuple(shared)


def _ideal(root, window: int, pres: Presentation):
    """Normal forms of the elements of length <= window that root
    left-divides: the closure of root's literal extensions, reduced.  None
    for the identity, whose ideal is every element and is never built."""
    if not root:
        return None
    seeds = (
        root + x
        for extra in range(window - len(root) + 1)
        for x in product(pres.generators, repeat=extra)
    )
    return frozenset(reduce_word(w, pres) for w in closure(seeds, pres))


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
    return sorted(common, key=element_key)


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
    """
    if not all(common is None or g in common for g in gens):
        return False
    pairs = permutations(zip(gens, gen_ideals), 2)
    if any(h_ideal is None or g in h_ideal for (g, _), (_, h_ideal) in pairs):
        return False
    if () in gens:  # the identity divides everything
        return True
    return common is not None and not common.difference(*gen_ideals)


def _oracle_mismatches(sample, extensions, window: int, pres: Presentation):
    """Check the meet of each sampled pair against the brute-force oracle.

    Each root's ideal is built once and dropped after its last use: the
    uses of every root, as a sampled element or as a returned generator,
    are counted before the first ideal is built.
    """
    checks = []
    for p, q in sample:
        try:
            _, gens = _meet(p, q, extensions[p], extensions[q], pres)
        except AlignmentViolation:
            continue  # already reported by the sweep
        checks.append((p, q, gens))
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

    mismatches = []
    for p, q, gens in checks:
        common = _common(ideal(p), ideal(q))
        gen_ideals = [ideal(g) for g in gens]
        if not _is_meet(gens, gen_ideals, common):
            minimal = brute_force_intersection(p, q, window, pres)
            mismatches.append(
                f"({format_word(p)}, {format_word(q)}): fast generators "
                f"{[format_word(g) for g in sorted(gens, key=element_key)]} vs "
                f"oracle {[format_word(m) for m in minimal]}"
            )
    return mismatches


@dataclass(frozen=True)
class AlignmentReport:
    """Sweep summary: exhaustive generator counts plus spot checks against
    the brute-force oracle.  mismatches is empty on a clean run."""

    n: int
    max_len: int
    pair_count: int
    max_generators: int
    non_principal: tuple  # (p, q, generator strings) triples
    sampled: int
    window: int
    seed: int
    mismatches: tuple

    @property
    def bound(self) -> int:
        return 1 if self.n >= 2 else 2

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.max_generators <= self.bound

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

    Each piece of per-element work runs once per sweep.  Every element's
    one-letter Q extensions are computed once, keyed by its normal form,
    and indexed by extension to find the pairs that share one.
    The sample is drawn before the sweep, and no per-pair result is stored:
    the sampled pairs' meets are recomputed from the cached extensions.  The
    oracle builds the ideal of each sampled element and returned generator
    once, and drops it after its last use in the sample.  A window in which
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
        seeds = count_over_budget(pres, window - len(shortest))
        if seeds is not None:
            raise ValueError(
                f"window {window} is too large for the oracle: the ideal of "
                f"{format_word(shortest)} has {seeds} seed words, over the "
                f"closure cap of {DEFAULT_CAP}"
            )
    extensions = {w: _q_extensions(w, pres) for w in nfs}
    sharing = {}  # Q extension -> positions of the elements that have it
    for i, w in enumerate(nfs):
        for x in extensions[w]:
            sharing.setdefault(x, []).append(i)
    max_generators = 1  # every element divides itself
    non_principal = []
    mismatches = []
    for i, p in enumerate(nfs):
        p_ext = extensions[p]
        partners = {j for x in p_ext for j in sharing[x] if j != i}
        for j in sorted(partners):
            q = nfs[j]
            try:
                _, gens = _meet(p, q, p_ext, extensions[q], pres)
            except AlignmentViolation as exc:
                mismatches.append(f"({format_word(p)}, {format_word(q)}): {exc}")
                continue
            count = len(gens)
            if count > max_generators:
                max_generators = count
            if count >= 2:
                names = tuple(map(format_word, sorted(gens, key=element_key)))
                non_principal.append((format_word(p), format_word(q), names))
    mismatches += _oracle_mismatches(sample, extensions, window, pres)
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
    )
