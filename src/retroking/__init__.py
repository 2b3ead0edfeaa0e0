"""Two-qutrit retrodiction toolkit.

Four mutually unbiased spin-1 bases, an entangled two-atom preparation,
and a nine-state final measurement whose outcome pins down, with
certainty, the result of an unknown intermediate measurement.
"""

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
from .protocol import (
    ALL_LABELS,
    PHYSICIST_LABELS,
    PhysicistBasis,
    RoundRecord,
    bracket_state,
    build_physicist_basis,
    build_psi_basis,
    entangled_forms,
    exhaustive_verify,
    infer,
    king_measure,
    prepare_psi0,
    round_stream,
    run_round,
    search_bases,
    simulate_rounds,
    trio_matrix,
)
from .reporting import Check

__version__ = "0.1.0"
