"""Computational toolkit for a family of finitely presented cancellative
monoids with length-preserving relations: normal forms, equality-class
search, Cayley graph analysis, principal right ideal intersections, and
machine-checked group-derivation certificates."""

from .cayley import (
    CayleyBall,
    build_ball,
    export_dot,
    predecessors,
    vertex_name,
)
from .congruence import (
    CapExceeded,
    DEFAULT_CAP,
    closure,
    equality_class,
    partition_agreement,
)
from .group_derivation import (
    DerivationStep,
    ObstructionCertificate,
    OccurrenceMismatch,
    apply_step,
    build_obstruction_script,
    free_reduce,
    validate_script,
    verify_obstruction,
)
from .ideals import (
    AlignmentReport,
    AlignmentViolation,
    IntersectionResult,
    WindowTooSmall,
    brute_force_intersection,
    common_multiples,
    intersect_principal,
    verify_alignment,
)
from .presentation import (
    AmbiguousRewrite,
    ForeignLetter,
    IndexOutOfRange,
    Letter,
    LROverlap,
    NotBalanced,
    PQOverlap,
    Presentation,
    PresentationError,
    Relation,
    UnknownToken,
    Word,
    build_presentation,
    format_word,
    parse_word,
    validate_generic,
)
from .rewriting import (
    count_elements,
    enumerate_elements,
    equal,
    is_intersection_base,
    left_divides,
    left_normal_form,
    reduce_word,
)

__version__ = "0.1.0"
