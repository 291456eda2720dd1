"""Weak-value tensors of projector products for pre- and post-selected
multi-qudit systems, with scenario catalogs, multiwise-interaction dynamics,
hypercube realizations, and grid/SVG rendering."""

from types import ModuleType as _ModuleType

from .errors import (
    DimensionOverflowError,
    DuplicateSubsystemError,
    InvalidCountError,
    LabelMismatchError,
    LengthMismatchError,
    LevelOutOfRangeError,
    MissingParamError,
    NonFiniteAmplitudeError,
    NonFiniteEnergyError,
    NonNumericAmplitudeError,
    NonQubitShapeError,
    NonUniformShapeError,
    NotThreeAxesError,
    NotTwoAxesError,
    OrthogonalSelectionError,
    OutOfRangeError,
    ParseError,
    SchemaViolationError,
    ShapeMismatchError,
    SubsystemOutOfRangeError,
    UnknownFamilyError,
    UnknownNameError,
    UnsupportedRankError,
    WeakTensorError,
    WrongScenarioError,
    ZeroVectorError,
)
from .hilbert import (
    MAX_DIMENSION,
    Ket,
    ProjectorProduct,
    apply_pauli_string,
    apply_projector_product,
    basis_label,
    basis_labels,
    basis_state,
    check_dims,
    flat_index,
    inner,
    make_ket,
    norm,
    normalize,
    tensor_product,
    total_dim,
)
from .weakvalues import (
    ORTHO_TOL,
    WeakValueTensor,
    expectation_tensor,
    marginalize,
    selection_overlap,
    total_sum,
    weak_tensor,
    weak_value,
    weak_value_observable,
)
from .scenarios import (
    SCENARIO_NAMES,
    Scenario,
    bell,
    build_named,
    cheshire,
    custom,
    ghz,
    ghz3_selected,
    ghz_ket,
    hardy,
    hardy_gamma,
    hardy_overlap_labels,
)
from .dynamics import (
    PRODUCT_FAMILIES,
    ComparisonReport,
    DiagonalHamiltonian,
    HamiltonianTerm,
    PhaseReport,
    build_hamiltonian,
    compare_states,
    epr_pair,
    evolve,
    exact_counterpart,
    multiwise_epr_hamiltonian,
    multiwise_ghz_hamiltonian,
    paired_epr_hamiltonian,
    phase_report,
    product_form,
)
from .realization import (
    basis_to_cell,
    cell_to_basis,
    diagonal_cells,
    is_diagonal_supported,
    stabilizer_eigenvalue,
)
from .render import render_cube, render_grid, render_svg
from .schemefile import (
    SchemeDocument,
    document_to_json,
    parse_scenario,
    read_ket_file,
    read_scenario_file,
    render_document,
    scenario_to_json,
    scheme_document,
    write_scenario_file,
    write_scheme,
)
from .cli import cli_main

__version__ = "0.1.0"

#: The public API: every name bound above that is neither private nor a submodule.
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType))
