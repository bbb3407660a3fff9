"""Computational toolkit for a family of finitely presented cancellative
monoids with length-preserving relations: normal forms, equality-class
search, Cayley graph analysis, principal right ideal intersections, and
machine-checked group-derivation certificates.

The public names below are resolved on first access (PEP 562), so importing
the package loads none of its modules; each name is looked up in its
defining module on every access, and so follows a replacement made there.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(
        ("CayleyBall", "build_ball", "export_dot", "predecessors"), "cayley"
    ),
    **dict.fromkeys(
        ("DEFAULT_CAP", "closure", "equality_class", "partition_agreement"),
        "congruence",
    ),
    **dict.fromkeys(
        (
            "DerivationStep",
            "ObstructionCertificate",
            "OccurrenceMismatch",
            "apply_step",
            "build_obstruction_script",
            "free_reduce",
            "validate_script",
            "verify_obstruction",
        ),
        "group_derivation",
    ),
    **dict.fromkeys(
        (
            "AlignmentReport",
            "AlignmentViolation",
            "IntersectionResult",
            "WindowTooSmall",
            "brute_force_intersection",
            "common_multiples",
            "intersect_principal",
            "verify_alignment",
        ),
        "ideals",
    ),
    **dict.fromkeys(
        (
            "AmbiguousRewrite",
            "CapExceeded",
            "ForeignLetter",
            "IndexOutOfRange",
            "Letter",
            "LROverlap",
            "NotBalanced",
            "PQOverlap",
            "Presentation",
            "PresentationError",
            "Relation",
            "UnknownToken",
            "Word",
            "build_presentation",
            "format_word",
            "parse_word",
            "validate_generic",
        ),
        "presentation",
    ),
    **dict.fromkeys(
        (
            "count_elements",
            "enumerate_elements",
            "equal",
            "is_intersection_base",
            "left_divides",
            "left_normal_form",
            "reduce_word",
        ),
        "rewriting",
    ),
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
