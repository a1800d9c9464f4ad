"""Right-angled Coxeter groups, their Davis complexes, and a fixed-point
verifier.

Given any finite defining graph this package solves the word problem by
shortlex normal forms (cross-checked against an exact integer reflection
representation), enumerates the spherical subsets and the chamber, builds
finite balls of the Davis complex in its cube-complex model, constructs the
order-two element obtained by multiplying a maximum clique, and certifies
that this involution fixes exactly one point of the examined complex while
moving every sphere by an ever-growing amount.

``import rcoxeter`` loads no submodule: each public name below is imported
from its submodule on first use (PEP 562), so a script that only parses a
graph loads only ``rcoxeter.graphs``.
"""

__version__ = "0.1.0"

#: Each public name, mapped to the submodule that defines it.
_SUBMODULE_OF = {
    name: module
    for module, names in {
        "graphs": "DefiningGraph DuplicateLabelError EmptyVertexListError"
        " GraphParseError PRESETS SelfLoopError UnknownLabelError parse_graph preset",
        "words": "IDENTITY Word conjugate has_order_two inverse length multiply"
        " normal_form parse_word support word_to_text",
        "reflection": "Matrix generator_matrix identity_matrix matrix_product"
        " tits_matrix",
        "spherical": "ChamberComplex Clique SphericalPoset all_cliques"
        " chamber_complex is_spherical maximum_spherical spherical_poset",
        "davis": "Ball BallCensus Cube FlagCheckReport FlagViolation"
        " ResourceCapError ball_census build_ball canonical_cube cubes_at_vertex"
        " export_complex links_flag_check sphere",
        "involution": "FixedLocus FixedPointReport Involution antipodal_check"
        " build_involution fixed_loci invariant_cubes",
        "probe": "Certificate DisplacementProfile certify displacement_profile",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(_SUBMODULE_OF.values()) | {"cli"}

__all__ = sorted(_SUBMODULE_OF)


def _submodule(name: str):
    # The relative __import__ returns the submodule itself; unlike
    # importlib.import_module it goes through the import statement's code
    # path, so ``python -X importtime`` still reports the lazy imports.
    return __import__(name, globals(), level=1)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULE_OF) | _SUBMODULES)
