import numpy as np
import pytest
from hypothesis import given, strategies as st

from retroking import (
    OMEGA,
    TOL,
    ContractViolation,
    DensityMatrix,
    MubSet,
    ProbabilityTable,
    build_qubit_mubs,
    build_qutrit_mubs,
    certify_unbiasedness,
    density_from_probabilities,
    fourier_matrix,
    inner_product,
    probabilities_from_density,
    probability_map_rank,
    random_density_matrix,
)
from retroking import linalg, mub

INV_SQRT3 = 3**-0.5
# the qubit and qutrit reference bases: ket k is e_k
Z2, Z3 = build_qubit_mubs().bases[0], build_qutrit_mubs().bases[0]

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestQutritConstruction:
    def test_first_basis_amplitude(self, qutrit_mubs):
        value = inner_product(qutrit_mubs.bases[0][0], qutrit_mubs.bases[1][0])
        assert value == pytest.approx(OMEGA * INV_SQRT3)

    def test_second_basis_off_diagonal(self, qutrit_mubs):
        value = inner_product(qutrit_mubs.bases[0][1], qutrit_mubs.bases[2][2])
        assert value == pytest.approx(INV_SQRT3)

    def test_third_basis_power_pattern(self, qutrit_mubs):
        value = inner_product(qutrit_mubs.bases[0][2], qutrit_mubs.bases[3][1])
        assert value == pytest.approx(OMEGA**2 * INV_SQRT3)

    def test_third_basis_is_fourier(self, qutrit_mubs):
        assert np.allclose(qutrit_mubs.bases[3].matrix, fourier_matrix())

    def test_reference_basis_is_standard(self, qutrit_mubs):
        assert np.array_equal(qutrit_mubs.bases[0].matrix, np.eye(3))


class TestQubitConstruction:
    def test_z_to_x_amplitude(self, qubit_mubs):
        value = inner_product(qubit_mubs.bases[0][0], qubit_mubs.bases[1][0])
        assert value == pytest.approx(2**-0.5)

    def test_x_to_y_transition_probability(self, qubit_mubs):
        value = inner_product(qubit_mubs.bases[1][0], qubit_mubs.bases[2][0])
        assert abs(value) ** 2 == pytest.approx(0.5)

    def test_z_eigenstates_orthogonal(self, qubit_mubs):
        value = inner_product(qubit_mubs.bases[0][0], qubit_mubs.bases[0][1])
        assert abs(value) ** 2 == pytest.approx(0.0)

    def test_y_basis_uses_imaginary_unit(self, qubit_mubs):
        assert qubit_mubs.bases[2][0].amps[1] == pytest.approx(1j * 2**-0.5)


class TestCertification:
    def test_qutrit_set_passes_tightly(self, qutrit_mubs):
        checks = certify_unbiasedness(qutrit_mubs)
        assert [c.name for c in checks] == ["qutrit-basis-gram", "qutrit-unbiasedness"]
        assert all(c.passed and c.max_deviation < 1e-12 for c in checks)

    def test_qubit_set_passes(self, qubit_mubs):
        checks = certify_unbiasedness(qubit_mubs)
        assert [c.name for c in checks] == ["qubit-basis-gram", "qubit-unbiasedness"]
        assert all(c.passed for c in checks)

    def test_broken_set_fails(self, qutrit_mubs):
        bases = list(qutrit_mubs.bases)
        bases[1] = bases[0]
        with pytest.raises(ContractViolation, match="bases 0 and 1 are not unbiased"):
            MubSet(tuple(bases))

    @pytest.mark.parametrize(
        "family",
        [
            pytest.param([], id="empty-family"),
            pytest.param([list(Z3), []], id="empty-basis"),
            pytest.param([list(Z2), list(Z3)], id="mixed-dimensions"),
            pytest.param([[Z2[0], Z3[1], Z3[2]]], id="mixed-dimensions-in-one-basis"),
            pytest.param([[Z3[0], Z3[1]]], id="non-square"),
        ],
    )
    def test_rejects_malformed_family(self, family):
        with pytest.raises(ContractViolation):
            certify_unbiasedness(family)

    def test_mubset_rejects_biased_family(self):
        with pytest.raises(ContractViolation):
            MubSet((Z3, Z3, Z3, Z3))

    def test_one_biased_pair_is_named_with_its_worst_deviation(self, qutrit_mubs):
        bases = qutrit_mubs.bases[:3] + qutrit_mubs.bases[2:3]
        message = "bases 2 and 3 are not unbiased: deviation 6.667e-01"
        with pytest.raises(ContractViolation, match=message):
            MubSet(bases)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(3, dtype=complex) / 3
        m[0, 1] = 0.5
        with pytest.raises(ContractViolation):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ContractViolation):
            DensityMatrix(np.eye(3))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ContractViolation):
            DensityMatrix(np.diag([1.5, -0.5, 0.0]))

    @given(seeds)
    def test_random_density_is_valid(self, seed):
        rho = random_density_matrix(np.random.default_rng(seed))
        assert rho.entries.trace() == pytest.approx(1.0)


    @pytest.mark.parametrize(
        "entries", ["abc", [["a", "b", "c"]] * 3, [[1, 0, 0], [0, 1]], None]
    )
    def test_rejects_non_numeric_entries(self, entries):
        with pytest.raises(ContractViolation):
            DensityMatrix(entries)

    def test_rejects_a_stack(self):
        with pytest.raises(ContractViolation, match="3x3"):
            DensityMatrix((np.eye(3) / 3)[None])


class TestProbabilityTable:
    def test_rejects_bad_row_sum(self):
        v = np.full((4, 3), 1 / 3)
        v[2, 0] = 0.4
        with pytest.raises(ContractViolation):
            ProbabilityTable(v)

    def test_rejects_out_of_range(self):
        v = np.full((4, 3), 1 / 3)
        v[0] = [1.2, -0.1, -0.1]
        with pytest.raises(ContractViolation):
            ProbabilityTable(v)

    @pytest.mark.parametrize(
        "values",
        [[["a", "b", "c"]] * 4, np.full((4, 3), "0.25"), np.full((4, 3), 1 / 3 + 0j)],
        ids=["letters", "numeric-strings", "complex"],
    )
    def test_rejects_non_real_numbers(self, values):
        with pytest.raises(ContractViolation):
            ProbabilityTable(values)


class Converted:
    """An array-like that counts how often numpy converts it."""

    def __init__(self, array):
        self.array = array
        self.conversions = 0

    def __array__(self, dtype=None, copy=None):
        self.conversions += 1
        return self.array if dtype is None else self.array.astype(dtype)


@pytest.mark.parametrize(("record", "value", "shape"), [
    (DensityMatrix, np.eye(3) / 3, "3x3"),
    (ProbabilityTable, np.full((4, 3), 1 / 3), "4x3"),
], ids=["density", "table"])
def test_a_record_converts_its_value_once(record, value, shape):
    # the gate's array decides one matrix against a stack, so a caller's
    # value is converted once, whether it is taken or refused as a stack
    one = Converted(value)
    assert np.array_equal(getattr(record(one), record.__slots__[0]), value)
    assert one.conversions == 1
    stack = Converted(value[None])
    with pytest.raises(ContractViolation, match=f"expected one {shape} .*, got a stack"):
        record(stack)
    assert stack.conversions == 1


def sequential_draws(seed: int, count: int) -> np.ndarray:
    """GG*/tr(GG*) drawn one matrix at a time: real parts of G, then imaginary."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = linalg._product(g, g.conj().T)
        draws.append(m / m.trace().real)
    return np.array(draws)


class TestStackValidators:
    @staticmethod
    def stack(count=100):
        return mub._random_densities(np.random.default_rng(5), count)

    def test_valid_stack_passes_unchanged(self):
        stack = self.stack()
        assert np.array_equal(mub._check_densities(stack), stack)
        assert np.array_equal(mub._check_densities(stack.reshape(4, 25, 3, 3)), stack)

    def test_non_hermitian_member_is_named(self):
        stack = self.stack()
        stack[37, 0, 1] += 0.1
        message = r"Hermitian, deviation .* \(stack index 37\)"
        with pytest.raises(ContractViolation, match=message):
            mub._check_densities(stack)

    def test_non_positive_member_is_named(self):
        stack = self.stack()
        stack[62] = np.diag([1.5, -0.5, 0.0])
        message = r"positive, smallest eigenvalue -5.000e-01 \(stack index 62\)"
        with pytest.raises(ContractViolation, match=message):
            mub._check_densities(stack)

    # Member 37 of the positivity gate's stack: its eigenvalues, and whether
    # they sit in a random basis or on the diagonal.
    GATE_MEMBERS = {
        **{str(s): ((s, 0.4, 0.6 - s), True)
           for s in [-0.5, -2e-10, -1.01e-10, -0.99e-10, -5e-11, 0.0]},
        "rank-1": ((0.0, 0.0, 1.0), True),  # a pure state
        "rank-2": ((0.0, 0.3, 0.7), True),  # mixed but singular
        # a_00 = m_00 + 0.99 TOL is exactly 0: the first pivot is zero, and
        # eigvalsh accepts the member
        "zero-pivot": ((-0.99 * TOL, 0.4, 0.6 + 0.99 * TOL), False),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no pivot may warn
    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("member", list(GATE_MEMBERS))
    def test_positivity_gate_agrees_with_eigvalsh(self, member, skewed):
        # skewed, member 37's upper triangle is off by 0.9 TOL, which the
        # Hermitian check lets through
        spectrum, rotated = self.GATE_MEMBERS[member]
        rng = np.random.default_rng(37)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        q = q if rotated else np.eye(3)
        stack = self.stack()
        stack[37] = q @ np.diag(spectrum) @ q.conj().T
        stack[37, 0, 1] += 0.9 * TOL * skewed
        # the rule it replaced: one batched eigvalsh, the first offender named
        eigenvalues = np.linalg.eigvalsh(stack)[:, 0]
        bad = np.flatnonzero(eigenvalues < -TOL).tolist()
        assert bad == ([37] if min(spectrum) < -TOL else [])
        if bad:
            want = (f"density matrix must be positive, smallest eigenvalue "
                    f"{eigenvalues[37]:.3e} (stack index 37)")
            with pytest.raises(ContractViolation) as got:
                mub._check_densities(stack)
            assert str(got.value) == want
        else:
            assert np.array_equal(mub._check_densities(stack), stack)

    def test_bad_table_row_is_named(self):
        tables = np.full((10, 4, 3), 1 / 3)
        tables[4, 2] = [0.5, 0.5, 0.5]
        with pytest.raises(ContractViolation, match=r"sum to 1, .* \(stack index 4\)"):
            mub._check_tables(tables)

    def test_leading_axes_are_flattened(self):
        stack = self.stack(12).reshape(3, 4, 3, 3)
        stack[2, 1] = np.eye(3)
        with pytest.raises(ContractViolation, match=r"stack index 9\)"):
            mub._check_densities(stack)


class TestTomographyRoundTripCheck:
    @staticmethod
    def round_trip():
        return next(c for c in mub.invariant_checks() if c.name == "tomography-round-trip")

    def test_spanning_states_are_a_real_basis_of_the_hermitian_matrices(self):
        states = mub._spanning_densities()
        assert states.shape == (9, 3, 3)
        assert not states.flags.writeable
        assert np.array_equal(mub._check_densities(states), states)
        # each state is pure
        assert np.abs(states @ states - states).max() < TOL
        flat = states.reshape(9, 9)
        assert np.linalg.matrix_rank(np.hstack([flat.real, flat.imag])) == 9

    @pytest.mark.parametrize("seed", [0, 31, 2**64 - 1])
    def test_batched_sources_equal_sequential_draws(self, seed):
        expected = sequential_draws(seed, 100)
        batched = mub._random_densities(np.random.default_rng(seed), 100)
        assert np.array_equal(batched, expected)
        rng = np.random.default_rng(seed)
        public = np.array([random_density_matrix(rng).entries for _ in range(100)])
        assert np.array_equal(public, expected)

    def test_passes_tightly(self):
        check = self.round_trip()
        assert check.passed
        assert check.max_deviation < 1e-14

    def test_an_offset_reconstruction_fails_with_its_deviation(self, monkeypatch):
        # the rebuilt stack is not validated: a wrong rebuild is a failed
        # check carrying how far it lies off, not a raised construction
        densities = mub._densities
        monkeypatch.setattr(mub, "_densities", lambda t, p: densities(t, p) + 0.125)
        check = self.round_trip()
        assert not check.passed
        assert check.max_deviation == pytest.approx(0.125)

    def test_swapped_projector_rows_fail(self, monkeypatch, qutrit_mubs):
        # Rows 0 and 3 belong to bases 0 and 1, so table rows 0 and 1 stop
        # summing to 1.  A swap within one basis only relabels its outcomes,
        # which both maps undo alike, so the round trip cannot see it; the
        # projector-row test below can.
        doctored = MubSet(qutrit_mubs.bases)
        projectors = qutrit_mubs.projectors.copy()
        projectors[[0, 3]] = projectors[[3, 0]]
        object.__setattr__(doctored, "projectors", projectors)
        monkeypatch.setattr(mub, "build_qutrit_mubs", lambda: doctored)
        with pytest.raises(ContractViolation, match="rows must sum to 1"):
            self.round_trip()


class TestProbabilitiesFromDensity:
    def test_maximally_mixed(self, qutrit_mubs):
        table = probabilities_from_density(np.eye(3) / 3, qutrit_mubs)
        assert table.values == pytest.approx(np.full((4, 3), 1 / 3))

    def test_pure_reference_state(self, qutrit_mubs):
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        table = probabilities_from_density(rho, qutrit_mubs)
        assert table.values[0] == pytest.approx([1, 0, 0])
        # a sharp value in one basis leaves the other bases uniform
        assert table.values[1:] == pytest.approx(np.full((3, 3), 1 / 3))

    def test_diagonal_mixture(self, qutrit_mubs):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        table = probabilities_from_density(rho, qutrit_mubs)
        assert table.values[0] == pytest.approx([0.5, 0.5, 0.0])

    def test_rejects_non_density(self, qutrit_mubs):
        with pytest.raises(ContractViolation):
            probabilities_from_density(np.eye(3), qutrit_mubs)


class TestDensityFromProbabilities:
    def test_uniform_table_gives_maximally_mixed(self, qutrit_mubs):
        rho = density_from_probabilities(np.full((4, 3), 1 / 3), qutrit_mubs)
        assert rho.entries == pytest.approx(np.eye(3) / 3)

    def test_pure_state_round_trip(self, qutrit_mubs):
        pure = np.zeros((3, 3), dtype=complex)
        pure[0, 0] = 1.0
        table = probabilities_from_density(pure, qutrit_mubs)
        rebuilt = density_from_probabilities(table, qutrit_mubs)
        assert rebuilt.entries == pytest.approx(pure, abs=1e-12)

    def test_hundred_random_round_trips(self, qutrit_mubs, rng):
        worst = 0.0
        for _ in range(100):
            rho = random_density_matrix(rng)
            table = probabilities_from_density(rho, qutrit_mubs)
            rebuilt = density_from_probabilities(table, qutrit_mubs)
            worst = max(worst, np.abs(rebuilt.entries - rho.entries).max())
        assert worst < 1e-10

    def test_rejects_bad_row_sums(self, qutrit_mubs):
        bad = np.full((4, 3), 0.32)
        with pytest.raises(ContractViolation):
            density_from_probabilities(bad, qutrit_mubs)

    @given(seeds)
    def test_round_trip_property(self, qutrit_mubs, seed):
        rho = random_density_matrix(np.random.default_rng(seed))
        table = probabilities_from_density(rho, qutrit_mubs)
        rebuilt = density_from_probabilities(table, qutrit_mubs)
        assert np.abs(rebuilt.entries - rho.entries).max() < 1e-10


def test_tomography_refuses_the_qubit_set(qubit_mubs):
    with pytest.raises(ContractViolation, match="qutrit set only"):
        probabilities_from_density(np.eye(3) / 3, qubit_mubs)
    with pytest.raises(ContractViolation, match="qutrit set only"):
        density_from_probabilities(np.full((4, 3), 1 / 3), qubit_mubs)


def test_probability_map_rank_is_nine(qutrit_mubs):
    # 12 probabilities minus 4 row sums leave 8 parameters plus the trace
    assert probability_map_rank(qutrit_mubs) == 9


def test_qubit_probability_map_rank_is_four(qubit_mubs):
    # 6 probabilities minus 3 row sums leave 3 parameters plus the trace
    assert probability_map_rank(qubit_mubs) == 4


def _with_projectors(mubs, edit):
    """A copy of ``mubs`` whose projector matrix ``edit`` has doctored in place."""
    doctored = MubSet(mubs.bases)
    projectors = mubs.projectors.copy()
    edit(projectors)
    object.__setattr__(doctored, "projectors", projectors)
    return doctored


def _copy_basis_2_into_3(p):
    p[9:12] = p[6:9]


def _row_4_times_i(p):
    p[4] *= 1j


@pytest.mark.parametrize("name, edit, rank", [
    ("qutrit_mubs", None, 9),
    ("qubit_mubs", None, 4),
    # a repeated basis spans nothing new: 12 rows, 7 independent
    ("qutrit_mubs", _copy_basis_2_into_3, 7),
    # i|m_k><m_k| is not Hermitian: its real and imaginary parts add a tenth
    # direction, so the frame identity must not decide this one
    ("qutrit_mubs", _row_4_times_i, 10),
])
def test_map_rank_is_the_svd_rank_of_real_and_imaginary_parts(request, name, edit, rank):
    mubs = request.getfixturevalue(name)
    if edit is not None:
        mubs = _with_projectors(mubs, edit)
    p = mubs.projectors
    assert np.linalg.matrix_rank(np.hstack([p.real, p.imag]), tol=TOL) == rank
    assert probability_map_rank(mubs) == rank


@pytest.mark.parametrize("name", ["qutrit_mubs", "qubit_mubs"])
def test_projectors_satisfy_the_frame_identity(request, name):
    # P^dagger P = I + vec(I) vec(I)^T for a complete MUB set: the fact
    # probability_map_rank decides rank d**2 by
    mubs = request.getfixturevalue(name)
    p, d = mubs.projectors, mubs.dim
    vec_i = np.eye(d).reshape(-1)
    assert np.abs(p.conj().T @ p - np.eye(d * d) - np.outer(vec_i, vec_i)).max() <= TOL


@pytest.mark.parametrize("name", ["qutrit_mubs", "qubit_mubs"])
def test_projector_rows_are_flattened_projectors(request, name):
    mubs = request.getfixturevalue(name)
    d = mubs.dim
    assert mubs.projectors.shape == ((d + 1) * d, d * d)
    assert not mubs.projectors.flags.writeable
    for m, basis in enumerate(mubs.bases):
        for k, ket in enumerate(basis):
            expected = np.outer(ket.amps, ket.amps.conj()).reshape(-1)
            assert np.abs(mubs.projectors[d * m + k] - expected).max() < TOL


def test_mubset_matrices_stack_the_bases(qutrit_mubs):
    assert qutrit_mubs.matrices.shape == (4, 3, 3)
    assert not qutrit_mubs.matrices.flags.writeable
    for matrix, basis in zip(qutrit_mubs.matrices, qutrit_mubs.bases):
        assert np.array_equal(matrix, basis.matrix)
