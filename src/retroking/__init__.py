"""Two-qutrit retrodiction toolkit.

Four mutually unbiased spin-1 bases, an entangled two-atom preparation,
and a nine-state final measurement whose outcome pins down, with
certainty, the result of an unknown intermediate measurement.
"""

# the layers in the order they build on each other: linalg imports numpy first
from .linalg import (
    TOL,
    ContractViolation,
    ImpossibleOutcome,
    OrthonormalBasis,
    StateVector,
    born_probabilities,
    inner_product,
    project_and_normalize,
    sample_outcome,
)
from .mub import (
    OMEGA,
    DensityMatrix,
    MubSet,
    ProbabilityTable,
    build_qubit_mubs,
    build_qutrit_mubs,
    certify_unbiasedness,
    density_from_probabilities,
    fourier_matrix,
    probabilities_from_density,
    probability_map_rank,
    qutrit_basis_matrices,
    random_density_matrix,
)
from .brackets import (
    ALL_LABELS,
    PHYSICIST_LABELS,
    PhysicistBasis,
    bracket_state,
    build_physicist_basis,
    build_psi_basis,
    entangled_forms,
    infer,
    prepare_psi0,
    search_bases,
    trio_matrix,
)
from .protocol import (
    RoundRecord,
    exhaustive_verify,
    king_measure,
    round_stream,
    run_round,
    simulate_rounds,
)
from .reporting import Check

__version__ = "0.1.0"
