"""Bad input at a public entry point raises ContractViolation (or, for a
projection onto nothing, ImpossibleOutcome), never a raw Python or numpy
error."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from retroking import (
    ContractViolation,
    ImpossibleOutcome,
    OrthonormalBasis,
    StateVector,
    born_probabilities,
    bracket_state,
    equal_up_to_global_phase,
    exhaustive_verify,
    infer,
    inner_product,
    king_measure,
    prepare_psi0,
    project_and_normalize,
    random_density_matrix,
    sample_outcome,
    standard_basis,
    standard_basis_vector,
    tensor_product,
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: StateVector([[1, 0], [0, 0]]),
        lambda: StateVector("x"),
        lambda: inner_product(1, standard_basis_vector(3, 0)),
        lambda: tensor_product(standard_basis_vector(3, 0), None),
        lambda: born_probabilities("x", standard_basis(9)),
        lambda: born_probabilities(prepare_psi0(), [1]),
        lambda: project_and_normalize(1, standard_basis_vector(3, 0)),
        lambda: OrthonormalBasis([1]),
        lambda: king_measure(1, 0, None, 0),
        lambda: bracket_state((0, 0, 0, 0), standard_basis(3)),
        lambda: sample_outcome([1.0], None),
        lambda: sample_outcome("ab", np.random.default_rng(0)),
        lambda: random_density_matrix(None),
        lambda: exhaustive_verify("x"),
    ],
    ids=[
        "state-from-matrix", "state-from-str", "inner-product-int", "tensor-product-none",
        "born-str-state", "born-list-basis", "project-int-state", "basis-of-int",
        "king-measure-int-state", "bracket-qutrit-basis", "sample-no-generator",
        "sample-str-probabilities", "random-density-no-generator", "exhaustive-verify-str",
    ],
)
def test_bad_arguments_are_contract_violations(call):
    with pytest.raises(ContractViolation):
        call()


def test_state_vector_keeps_one_dimensional_numbers():
    assert StateVector([0, 1]).dim == 2
    assert StateVector(np.array([1j, 0, 0])).amps.tolist() == [1j, 0, 0]


# moderate magnitudes: norms and sums of huge finite numbers overflow with a
# numpy warning, which is not what these tests probe
numbers = st.one_of(
    st.integers(-3, 3),
    st.floats(-10, 10),
    st.sampled_from([float("nan"), float("inf")]),
    st.complex_numbers(max_magnitude=10),
)
junk = st.one_of(
    numbers,
    st.integers(-(2**70), 2**70),
    st.text(max_size=4),
    st.none(),
    st.lists(numbers, max_size=10),
    st.just([[1, 0], [0]]),
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=2, max_dims=2, max_side=4),
               elements=st.complex_numbers(max_magnitude=10)),
)

qutrit = standard_basis_vector(3, 0)
ENTRY_POINTS = {
    "state": lambda a, b: StateVector(a),
    "inner-product": lambda a, b: inner_product(a, b),
    "inner-product-ket": lambda a, b: inner_product(qutrit, a),
    "equal-up-to-phase": lambda a, b: equal_up_to_global_phase(qutrit, a),
    "tensor-product": lambda a, b: tensor_product(a, b),
    "born": lambda a, b: born_probabilities(a, b),
    "born-basis": lambda a, b: born_probabilities(prepare_psi0(), a),
    "project": lambda a, b: project_and_normalize(a, b),
    "project-vector": lambda a, b: project_and_normalize(prepare_psi0(), a),
    "project-slot": lambda a, b: project_and_normalize(prepare_psi0(), qutrit, a),
    "basis": lambda a, b: OrthonormalBasis(a),
    "basis-of-two": lambda a, b: OrthonormalBasis([a, b]),
    "king-measure": lambda a, b: king_measure(a, 0, None, b),
    "king-measure-generator": lambda a, b: king_measure(prepare_psi0(), 0, a),
    "bracket": lambda a, b: bracket_state(a, b),
    "bracket-basis": lambda a, b: bracket_state((0, 1, 2, 0), a),
    "sample": lambda a, b: sample_outcome(a, np.random.default_rng(0)),
    "sample-generator": lambda a, b: sample_outcome([0.5, 0.5], a),
    "random-density": lambda a, b: random_density_matrix(a),
    "exhaustive-verify": lambda a, b: exhaustive_verify(a),
    "infer": lambda a, b: infer(a, b),
}


@given(st.sampled_from(sorted(ENTRY_POINTS)), junk, junk)
def test_junk_raises_only_contract_errors(name, a, b):
    try:
        ENTRY_POINTS[name](a, b)
    except (ContractViolation, ImpossibleOutcome):
        pass
