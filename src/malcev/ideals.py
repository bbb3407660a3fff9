"""Intersections of principal right ideals.

For elements p, q of M_n the intersection pM and qM is principal whenever it
is nonempty and n >= 2; for n = 1 it needs at most two generators.  The fast
algorithm checks mutual reachability with the closed-form divisibility of
the rewriting module and otherwise intersects the one-letter Q extensions of
p and q.  Its oracle is a windowed brute-force search over common multiples,
minimised with the search-based divisibility of the congruence module.  The
ideal words come from the same closure that enumerates equality classes,
seeded with the literal extensions of an element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from . import rewriting
from .congruence import closure, left_divides
from .presentation import Presentation, PresentationError
from .rewriting import Element, element_key, enumerate_elements, reduce_word

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

    kind is one of empty/principal/generators; generators are sorted by
    element_key and pairwise incomparable under left divisibility.
    provenance records which branch decided: reachable-p-to-q,
    reachable-q-to-p, or base-search.
    """

    kind: str
    generators: tuple
    provenance: str


def intersect_principal(
    p: Element, q: Element, pres: Presentation
) -> IntersectionResult:
    """Compute pM and qM's intersection via reachability and one-letter
    extensions.

    When neither element divides the other, any common multiple forces a
    common one-letter Q extension, so the shared extensions are exactly the
    candidate generators; there is at most one for n >= 2 and at most two
    for n = 1.
    """
    if pres.n is None:
        raise PresentationError("ideal intersection needs the indexed family")
    if rewriting.left_divides(p.nf, q.nf, pres) is not None:
        return IntersectionResult(PRINCIPAL, (q,), "reachable-p-to-q")
    if rewriting.left_divides(q.nf, p.nf, pres) is not None:
        return IntersectionResult(PRINCIPAL, (p,), "reachable-q-to-p")
    p_ext = {reduce_word(p.nf + (x,), pres) for x in pres.q_letters}
    q_ext = {reduce_word(q.nf + (y,), pres) for y in pres.q_letters}
    shared = p_ext & q_ext
    if not shared:
        return IntersectionResult(EMPTY, (), "base-search")
    bases = tuple(sorted((Element(w, pres) for w in shared), key=element_key))
    if len(bases) == 1:
        return IntersectionResult(PRINCIPAL, bases, "base-search")
    if len(bases) == 2 and pres.n == 1:
        return IntersectionResult(GENERATORS, bases, "base-search")
    raise AlignmentViolation(
        f"{len(bases)} incomparable bases for p={p}, q={q} at n={pres.n}: "
        + "; ".join(str(b) for b in bases)
    )


def _ideal_words(root, window: int, pres: Presentation):
    """Every word of length <= window equal to root times some word: the
    closure of the literal extensions of root, generated lazily.  The
    identity's extensions are already every word within the window, and
    relations preserve length, so they are returned as a stream, unclosed."""
    seeds = (
        root + x
        for extra in range(window - len(root) + 1)
        for x in product(pres.generators, repeat=extra)
    )
    return closure(seeds, pres) if root else seeds


def common_multiples(p: Element, q: Element, window: int, pres: Presentation):
    """All elements of length <= window divisible by both p and q, sorted."""
    if window < max(len(p.nf), len(q.nf)) + 1:
        raise WindowTooSmall(
            f"window {window} cannot reach a minimal common multiple of "
            f"{p} and {q}"
        )
    if not p.nf:  # the identity's ideal is every word: the meet is qM
        p, q = q, p
    words = _ideal_words(p.nf, window, pres)
    if q.nf:
        q_words = set(_ideal_words(q.nf, window, pres))
        words = (w for w in words if w in q_words)
    elements = {Element(reduce_word(w, pres), pres) for w in words}
    return sorted(elements, key=element_key)


def minimal_elements(elements, pres: Presentation):
    """Subset not properly left-divisible by any other member.

    Divisibility increases length, so scanning by element_key and testing
    only against minimals found so far is exact.
    """
    minimal = []
    for e in sorted(set(elements), key=element_key):
        if not any(left_divides(m.nf, e.nf, pres) is not None for m in minimal):
            minimal.append(e)
    return minimal


def brute_force_intersection(p: Element, q: Element, window: int, pres: Presentation):
    """Minimal common multiples of p and q within the window; oracle for
    intersect_principal."""
    return minimal_elements(common_multiples(p, q, window, pres), pres)


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
    """Exhaustively intersect all ordered pairs of elements of length
    <= max_len, then validate a seeded sample of pairs against the
    brute-force oracle.  Problems are reported, not raised."""
    if pres.n is None:
        raise PresentationError("alignment verification needs the indexed family")
    if window < max_len + 1:
        raise WindowTooSmall(f"window {window} below element bound {max_len} + 1")
    elements = enumerate_elements(pres, max_len)
    total = len(elements) ** 2
    max_generators = 0
    non_principal = []
    mismatches = []
    results = {}
    for p in elements:
        for q in elements:
            try:
                res = intersect_principal(p, q, pres)
            except AlignmentViolation as exc:
                mismatches.append(f"({p}, {q}): {exc}")
                continue
            results[(p, q)] = res
            count = len(res.generators)
            if count > max_generators:
                max_generators = count
            if count >= 2:
                non_principal.append(
                    (str(p), str(q), tuple(str(g) for g in res.generators))
                )
    rng = random.Random(seed)
    k = min(samples, total)
    for idx in rng.sample(range(total), k):
        p = elements[idx // len(elements)]
        q = elements[idx % len(elements)]
        res = results.get((p, q))
        if res is None:
            continue  # already reported above
        common = common_multiples(p, q, window, pres)
        minimal = minimal_elements(common, pres)
        if {g.nf for g in res.generators} != {m.nf for m in minimal}:
            mismatches.append(
                f"({p}, {q}): fast generators "
                f"{[str(g) for g in res.generators]} vs oracle "
                f"{[str(m) for m in minimal]}"
            )
            continue
        for w in common:
            if not any(
                left_divides(g.nf, w.nf, pres) is not None
                for g in res.generators
            ):
                mismatches.append(
                    f"({p}, {q}): common multiple {w} not divisible by any "
                    f"returned generator"
                )
                break
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
