"""Weak-value tensors of projector products for pre- and post-selected
multi-qudit systems, with scenario catalogs, multiwise-interaction dynamics,
hypercube realizations, and grid/SVG rendering.

Each public name is imported from its submodule on first access (PEP 562),
so ``import weaktensor`` loads no numpy and leaves the process environment
alone; ``python -m weaktensor`` can then choose numpy's BLAS threads first.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Submodule -> the public names it exports: the one statement of the API.
_EXPORTS = {
    "errors": (
        "DimensionOverflowError", "DuplicateSubsystemError", "InvalidCountError",
        "LengthMismatchError", "LevelOutOfRangeError", "MissingParamError",
        "NonFiniteAmplitudeError", "NonFiniteEnergyError", "NonNumericAmplitudeError",
        "OrthogonalSelectionError", "OutOfRangeError", "ParseError", "SchemaViolationError",
        "ShapeMismatchError", "SubsystemOutOfRangeError", "UnknownNameError",
        "UnsupportedRankError", "WeakTensorError", "ZeroVectorError",
    ),
    "hilbert": (
        "MAX_DIMENSION", "Ket", "ProjectorProduct", "apply_pauli_string", "basis_label",
        "basis_labels", "basis_state", "check_dims", "flat_index", "inner", "make_ket", "norm",
        "normalize", "tensor_product",
    ),
    "weakvalues": (
        "ORTHO_TOL", "WeakValueTensor", "expectation_tensor", "marginalize",
        "selection_overlap", "total_sum", "weak_tensor", "weak_value",
    ),
    "scenarios": (
        "SCENARIO_NAMES", "Scenario", "bell", "build_named", "cheshire", "custom", "ghz",
        "ghz3_selected", "ghz_ket", "hardy", "hardy_gamma", "hardy_overlap_labels",
    ),
    "dynamics": (
        "ComparisonReport", "DiagonalHamiltonian", "HamiltonianTerm", "PhaseReport",
        "build_hamiltonian", "compare_states", "epr_pair", "evolve", "exact_counterpart",
        "joint_hamiltonian", "phase_report", "product_form",
    ),
    "realization": ("diagonal_cells", "is_diagonal_supported", "stabilizer_eigenvalue"),
    "render": ("render_cube", "render_grid", "render_svg"),
    "schemefile": (
        "SchemeDocument", "document_to_json", "parse_scenario", "read_ket_file",
        "read_scenario_file", "render_document", "scenario_to_json", "scheme_document",
    ),
    "cli": ("cli_main",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

#: The public API: every name of the table above.
__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
