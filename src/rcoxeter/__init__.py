"""Right-angled Coxeter groups, their Davis complexes, and a fixed-point
verifier.

Given any finite defining graph this package solves the word problem by
shortlex normal forms (cross-checked against an exact integer reflection
representation), enumerates the spherical subsets and the chamber, builds
finite balls of the Davis complex in its cube-complex model, constructs the
order-two element obtained by multiplying a maximum clique, and certifies
that this involution fixes exactly one point of the examined complex while
moving every sphere by an ever-growing amount.
"""

from .graphs import (
    DefiningGraph,
    DuplicateLabelError,
    EmptyVertexListError,
    GraphParseError,
    PRESETS,
    SelfLoopError,
    UnknownLabelError,
    parse_graph,
    preset,
)
from .words import (
    IDENTITY,
    Word,
    conjugate,
    has_order_two,
    inverse,
    length,
    multiply,
    normal_form,
    parse_word,
    support,
    word_to_text,
)
from .reflection import (
    Matrix,
    generator_matrix,
    identity_matrix,
    matrix_product,
    tits_matrix,
)
from .spherical import (
    ChamberComplex,
    Clique,
    SphericalPoset,
    all_cliques,
    chamber_complex,
    is_spherical,
    maximum_spherical,
    spherical_poset,
)
from .davis import (
    Ball,
    BallCensus,
    Cube,
    FlagCheckReport,
    FlagViolation,
    ResourceCapError,
    ball_census,
    build_ball,
    canonical_cube,
    cubes_at_vertex,
    export_complex,
    links_flag_check,
    sphere,
)
from .involution import (
    FixedLocus,
    FixedPointReport,
    Involution,
    SphereWalk,
    antipodal_check,
    build_involution,
    conjugates,
    fixed_loci,
    invariant_cubes,
    walk_spheres,
)
from .probe import (
    Certificate,
    DisplacementProfile,
    certify,
    displacement,
    displacement_profile,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BallCensus",
    "Certificate",
    "ChamberComplex",
    "Clique",
    "Cube",
    "DefiningGraph",
    "DisplacementProfile",
    "DuplicateLabelError",
    "EmptyVertexListError",
    "FixedLocus",
    "FixedPointReport",
    "FlagCheckReport",
    "FlagViolation",
    "GraphParseError",
    "IDENTITY",
    "Involution",
    "Matrix",
    "PRESETS",
    "ResourceCapError",
    "SelfLoopError",
    "SphereWalk",
    "SphericalPoset",
    "UnknownLabelError",
    "Word",
    "all_cliques",
    "antipodal_check",
    "ball_census",
    "build_ball",
    "build_involution",
    "canonical_cube",
    "certify",
    "chamber_complex",
    "conjugate",
    "conjugates",
    "cubes_at_vertex",
    "displacement",
    "displacement_profile",
    "export_complex",
    "fixed_loci",
    "generator_matrix",
    "has_order_two",
    "identity_matrix",
    "invariant_cubes",
    "inverse",
    "is_spherical",
    "length",
    "links_flag_check",
    "matrix_product",
    "maximum_spherical",
    "multiply",
    "normal_form",
    "parse_graph",
    "parse_word",
    "preset",
    "sphere",
    "spherical_poset",
    "support",
    "tits_matrix",
    "walk_spheres",
    "word_to_text",
]
