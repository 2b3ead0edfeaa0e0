import numpy as np
import pytest
from hypothesis import given, strategies as st

from retroking import (
    OMEGA,
    ContractViolation,
    ImpossibleOutcome,
    OrthonormalBasis,
    StateVector,
    born_probabilities,
    inner_product,
    prepare_psi0,
    project_and_normalize,
    sample_outcome,
)
from retroking import build_physicist_basis, build_qubit_mubs, build_qutrit_mubs
from retroking.brackets import PHYSICIST_LABELS

from conftest import sample_many

INV_SQRT3 = 3**-0.5

# an orthonormal basis per dimension the package uses: the qubit and qutrit
# reference bases, whose ket k is e_k, and the physicist's
BASES = {
    2: build_qubit_mubs().bases[0],
    3: build_qutrit_mubs().bases[0],
    9: build_physicist_basis().basis,
}


def random_state(seed: int, dim: int) -> StateVector:
    gen = np.random.default_rng(seed)
    amps = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return StateVector(amps / np.linalg.norm(amps))


seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ContractViolation):
            StateVector([1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ContractViolation):
            StateVector([np.nan, 0.0])
        with pytest.raises(ContractViolation):
            StateVector([np.inf + 0j, 0.0])

    def test_amps_are_read_only(self):
        v = BASES[3][0]
        with pytest.raises(ValueError):
            v.amps[0] = 0.0

    @given(seeds, st.sampled_from([2, 3, 9]))
    def test_random_states_accepted(self, seed, dim):
        assert random_state(seed, dim).dim == dim


class TestOrthonormalBasis:
    def test_rejects_non_orthonormal(self):
        v = StateVector(np.ones(3) / np.sqrt(3))
        with pytest.raises(ContractViolation):
            OrthonormalBasis((v, v, v))

    def test_rejects_wrong_count(self):
        e0 = BASES[3][0]
        e1 = BASES[3][1]
        with pytest.raises(ContractViolation):
            OrthonormalBasis((e0, e1))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ContractViolation, match="share one dimension"):
            OrthonormalBasis((BASES[2][0], BASES[3][1]))

    def test_matrix_columns_are_vectors(self):
        basis = OrthonormalBasis(tuple(map(StateVector, np.eye(3))))
        assert np.array_equal(basis.matrix, np.eye(3))


class TestInnerProduct:
    def test_identity_case(self):
        e0 = BASES[3][0]
        assert inner_product(e0, e0) == pytest.approx(1)

    def test_orthogonal_units(self):
        e0 = BASES[3][0]
        e1 = BASES[3][1]
        assert inner_product(e0, e1) == pytest.approx(0)

    def test_reference_to_first_basis_amplitude(self, qutrit_mubs):
        # <0_0|1_0> is the cube root of unity over sqrt(3)
        value = inner_product(qutrit_mubs.bases[0][0], qutrit_mubs.bases[1][0])
        assert value == pytest.approx(OMEGA * INV_SQRT3)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            inner_product(BASES[2][0], BASES[3][0])

    @given(seeds, seeds)
    def test_conjugate_symmetry(self, sa, sb):
        a, b = random_state(sa, 3), random_state(sb, 3)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


class TestTensorProduct:
    """Two-atom product states, built as np.kron of one-atom amplitudes."""

    def test_matches_entangled_component(self):
        e0 = BASES[3][0]
        product = StateVector(np.kron(e0.amps, e0.amps))
        # the (0,0)-component of the entangled preparation, before its 3**-0.5
        assert inner_product(product, prepare_psi0()) == pytest.approx(INV_SQRT3)


class TestProjectAndNormalize:
    def test_given_slot_collapse(self, qutrit_mubs, trios, same_ray):
        collapsed = project_and_normalize(prepare_psi0(), qutrit_mubs.bases[1][0])
        assert same_ray(collapsed, trios(1, 0))

    def test_fourth_basis_pairs_swapped_outcomes(self, qutrit_mubs, trios, same_ray):
        collapsed = project_and_normalize(prepare_psi0(), qutrit_mubs.bases[3][1])
        assert same_ray(collapsed, trios(3, 1))
        # i.e. the auxiliary atom carries outcome 2 of basis 3
        aux = StateVector(np.kron(qutrit_mubs.bases[3][1].amps, qutrit_mubs.bases[3][2].amps))
        assert same_ray(collapsed, aux)

    def test_impossible_outcome(self):
        two_atom = StateVector(np.kron(BASES[3][0].amps, BASES[3][0].amps))
        with pytest.raises(ImpossibleOutcome):
            project_and_normalize(two_atom, BASES[3][1])

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ContractViolation):
            project_and_normalize(BASES[3][0], BASES[3][0])
        with pytest.raises(ContractViolation):
            project_and_normalize(prepare_psi0(), BASES[2][0])

    @given(seeds, seeds)
    def test_output_normalized(self, sa, sb):
        state, direction = random_state(sa, 9), random_state(sb, 3)
        try:
            out = project_and_normalize(state, direction)
        except ImpossibleOutcome:
            return
        assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-12)


class TestBornProbabilities:
    def test_unit_vector(self):
        probs = born_probabilities(BASES[3][0], BASES[3])
        assert probs == pytest.approx([1, 0, 0])

    def test_complementary_basis_is_uniform(self, qutrit_mubs):
        probs = born_probabilities(qutrit_mubs.bases[0][0], qutrit_mubs.bases[1])
        assert probs == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_collapsed_state_in_physicist_basis(self, trios, physicist):
        # |0_1 0_1>: probability 1/3 on exactly the outcomes whose label starts with 1
        probs = born_probabilities(trios(0, 1), physicist.basis)
        expected = [1 / 3 if lab[0] == 1 else 0.0 for lab in PHYSICIST_LABELS]
        assert probs == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            born_probabilities(BASES[3][0], BASES[2])

    @given(seeds, st.sampled_from([2, 3, 9]))
    def test_sums_to_one(self, seed, dim):
        probs = born_probabilities(random_state(seed, dim), BASES[dim])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestSampleOutcome:
    def test_deterministic_point_masses(self, rng):
        assert sample_outcome([1.0, 0.0, 0.0], rng) == 0
        assert sample_outcome([0.0, 0.0, 1.0], rng) == 2

    def test_uniform_frequencies_within_four_sigma(self):
        n = 100_000
        draws = sample_many([1 / 3, 1 / 3, 1 / 3], np.random.default_rng(5), n)
        counts = np.bincount(draws, minlength=3)
        bound = 4 * np.sqrt(n * (1 / 3) * (2 / 3))
        assert np.abs(counts - n / 3).max() < bound

    def test_same_seed_same_draws(self):
        p = [0.2, 0.5, 0.3]
        draws = [[sample_outcome(p, rng) for _ in range(50)]
                 for rng in (np.random.default_rng(99), np.random.default_rng(99))]
        assert draws[0] == draws[1]

    def test_tiny_probabilities_never_sampled(self):
        p = [1e-13, 1.0 - 1e-13, 0.0]
        draws = sample_many(p, np.random.default_rng(3), 2000)
        assert np.all(draws == 1)

    def test_rejects_malformed(self, rng):
        with pytest.raises(ContractViolation):
            sample_outcome([0.5, 0.6], rng)
        with pytest.raises(ContractViolation):
            sample_outcome([-0.2, 1.2], rng)
        with pytest.raises(ContractViolation):
            sample_outcome([np.nan, 1.0], rng)

    @pytest.mark.parametrize("size", [3, 9])
    def test_rejects_huge_entries_without_overflow(self, rng, size):
        # finite entries whose sum overflows: below 8 entries the message's
        # numpy sum, from 8 on the sum check itself; warnings are errors here
        with pytest.raises(ContractViolation, match="malformed distribution"):
            sample_outcome([1e308] * size, rng)

    @given(seeds)
    def test_only_supported_outcomes(self, seed):
        gen = np.random.default_rng(seed)
        weights = gen.random(4)
        p = weights / weights.sum()
        draws = sample_many(p, gen, 100)
        assert set(np.unique(draws)) <= set(np.flatnonzero(p > 0))
