"""Unit-quadrance graphs over finite fields.

Builds the graphs on F_q^m whose edges join points at quadrance 1,
produces proper colorings from slope/shift certificates, computes exact
chromatic numbers by branch and bound, and evaluates spectra both
densely and as additive character sums.

`import uqgraph` loads no submodule and not numpy: each exported name,
and each submodule, is imported on first use (PEP 562), so
`uqgraph.make_field` loads `field` and `errors` alone.
"""

__version__ = "0.1.0"

# each submodule and the names it exports
_EXPORTS = {
    "chi": ("ChiResult", "clique_lower", "exact_chromatic", "greedy_bound"),
    "construction": (
        "CharCountReport",
        "Coloring",
        "ColoringPlan",
        "build_coloring_md",
        "count_Aq",
        "expected_color_count",
        "make_plan",
        "read_coloring",
        "validate_plan",
        "verify_coloring",
        "write_coloring",
    ),
    "errors": (
        "ConstructionUnavailableError",
        "DegenerateSpectrumError",
        "DimensionTooSmallError",
        "DivisionByZeroError",
        "EvenCharacteristicError",
        "IncompleteColoringError",
        "InvalidConnectionSetError",
        "InvalidPlanError",
        "IOFailureError",
        "NoConvergenceError",
        "NonPrimeError",
        "NotNonsquareError",
        "TooLargeError",
        "UQGraphError",
    ),
    "field": ("FieldCtx", "is_prime", "make_field", "prime_power"),
    "graph": (
        "UnitQuadranceGraph",
        "build_graph",
        "degree_formula",
        "export_dimacs",
        "triangle_count",
        "triangle_free_predicted",
        "unit_circle",
    ),
    "spectral": (
        "Spectrum",
        "cayley_spectrum",
        "dense_spectrum",
        "grouped_eigenvalues",
        "hoffman_bound",
        "spectrum_record",
        "write_spectrum",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    module = name if name in _EXPORTS else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own route, so that -X importtime reports it;
    # loading a submodule binds it in this namespace
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)  # later lookups skip this function
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
