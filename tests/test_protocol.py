import itertools
import math
import pickle
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from retroking import (
    ALL_LABELS,
    PARTNER_BASIS,
    PHYSICIST_LABELS,
    TOL,
    ContractViolation,
    PhysicistBasis,
    bracket_overlap,
    bracket_state,
    born_probabilities,
    entangled_forms,
    equal_up_to_global_phase,
    exhaustive_verify,
    infer,
    inner_product,
    king_measure,
    label_agreement,
    partner_outcome,
    prepare_psi0,
    round_stream,
    run_round,
    sample_outcome,
    search_bases,
    simulate_rounds,
    standard_basis_vector,
    tensor_product,
    trio_matrix,
)
from retroking import cli, linalg, protocol
from retroking.protocol import CHUNK_ROUNDS, king_outcome_probabilities, round_chunks

INV_SQRT3 = 3**-0.5

labels_strategy = st.tuples(*[st.integers(0, 2)] * 4)


class Draw:
    """Stands in for a Generator: random_raw() hands out the given words and
    random() reads the first as Generator.random() would."""

    def __init__(self, *words):
        self.bit_generator = self
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, n):
        return self.words[:n]

    def random(self, size=None):
        return (int(self.words[0]) >> 11) * 2.0**-53


def exact_round(m, w1, w2):
    """[m, k, j, inferred] by the exact rational cdf: word w draws the
    uniform Fraction(w >> 11, 2**53) and picks the outcome given by how many
    of the steps 1/3 and 2/3 it reaches; the physicist's outcomes after the
    king's (m, k) are the labels with k in coordinate m, in order."""

    def pick(w):
        u = Fraction(w >> 11, 2**53)
        return (u >= Fraction(1, 3)) + (u >= Fraction(2, 3))

    k = pick(w1)
    j = [j for j, label in enumerate(PHYSICIST_LABELS) if label[m] == k][pick(w2)]
    return [m, k, j, infer(m, j)]


def former_thresholds():
    """The words ceil(c * 2**53) << 11 at which sample_outcome, on a row's
    float Born vector, passes its two cdf steps c: king rows m = 0..3, then
    collapse rows 3*m + k."""
    psi0 = prepare_psi0()
    physicist = protocol.build_physicist_basis().basis
    rows = [king_outcome_probabilities(psi0, m) for m in range(4)]
    rows += [
        born_probabilities(king_measure(psi0, m, None, force_outcome=k)[1], physicist)
        for m in range(4)
        for k in range(3)
    ]
    return [
        [math.ceil(c * 2.0**53) << 11 for c in linalg._prepare_distribution(p)[1][:2].tolist()]
        for p in rows
    ]


def as_lists(records):
    return [[r.king_basis, r.king_outcome, r.physicist_outcome, r.inferred] for r in records]


class TestPreparation:
    def test_reference_amplitude(self):
        assert prepare_psi0().amps[0] == pytest.approx(INV_SQRT3)

    def test_overlap_with_first_basis_pair(self, qutrit_mubs):
        pair = tensor_product(qutrit_mubs.bases[1][0], qutrit_mubs.bases[2][0])
        assert abs(inner_product(pair, prepare_psi0())) == pytest.approx(INV_SQRT3)

    def test_fourth_basis_equal_outcomes_are_absent(self, qutrit_mubs):
        pair = tensor_product(qutrit_mubs.bases[3][1], qutrit_mubs.bases[3][1])
        assert inner_product(pair, prepare_psi0()) == pytest.approx(0, abs=1e-12)

    def test_four_forms_agree_exactly(self):
        psi0 = prepare_psi0()
        for form in entangled_forms():
            assert np.abs(form.amps - psi0.amps).max() < 1e-12
            assert abs(inner_product(psi0, form)) >= 1 - 1e-12


class TestTrioTable:
    def test_partner_map(self):
        assert PARTNER_BASIS == (0, 2, 1, 3)
        assert [partner_outcome(0, k) for k in range(3)] == [0, 1, 2]
        assert [partner_outcome(3, k) for k in range(3)] == [0, 2, 1]

    def test_states_are_products(self, qutrit_mubs, trios):
        for m in range(4):
            for k in range(3):
                expected = tensor_product(
                    qutrit_mubs.bases[m][k],
                    qutrit_mubs.bases[PARTNER_BASIS[m]][partner_outcome(m, k)],
                )
                assert np.abs(trios(m, k).amps - expected.amps).max() == 0

    def test_within_trio_orthogonality(self, trios):
        for m in range(4):
            for k in range(3):
                for kp in range(k + 1, 3):
                    value = inner_product(trios(m, k), trios(m, kp))
                    assert abs(value) < 1e-12


class TestKingMeasure:
    def test_forced_collapse_reference_basis(self, trios):
        k, collapsed = king_measure(prepare_psi0(), 0, None, force_outcome=1)
        assert k == 1
        assert equal_up_to_global_phase(collapsed, trios(0, 1))

    def test_forced_collapse_fourth_basis(self, qutrit_mubs):
        _, collapsed = king_measure(prepare_psi0(), 3, None, force_outcome=2)
        expected = tensor_product(qutrit_mubs.bases[3][2], qutrit_mubs.bases[3][1])
        assert equal_up_to_global_phase(collapsed, expected)

    def test_all_collapses_land_on_trios(self, trios):
        for m in range(4):
            for k in range(3):
                _, collapsed = king_measure(prepare_psi0(), m, None, force_outcome=k)
                assert equal_up_to_global_phase(collapsed, trios(m, k))

    def test_outcomes_uniform(self, rng):
        n = 3000
        counts = np.zeros(3, dtype=int)
        for _ in range(n):
            k, _ = king_measure(prepare_psi0(), 2, rng)
            counts[k] += 1
        bound = 4 * np.sqrt(n * (1 / 3) * (2 / 3))
        assert np.abs(counts - n / 3).max() < bound

    def test_outcome_distribution_at_scale(self):
        # vectorized draws from the same distribution king_measure samples
        n = 100_000
        for m in range(4):
            probs = king_outcome_probabilities(prepare_psi0(), m)
            draws = sample_outcome(probs, np.random.default_rng(8 + m), size=n)
            counts = np.bincount(draws, minlength=3)
            bound = 4 * np.sqrt(n * (1 / 3) * (2 / 3))
            assert np.abs(counts - n / 3).max() < bound

    def test_probabilities_are_exact_thirds(self):
        for m in range(4):
            probs = king_outcome_probabilities(prepare_psi0(), m)
            assert probs == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)

    def test_requires_generator_or_forced_outcome(self):
        with pytest.raises(ContractViolation):
            king_measure(prepare_psi0(), 0, None)

    def test_rejects_bad_indices(self, rng):
        with pytest.raises(ContractViolation):
            king_measure(prepare_psi0(), 4, rng)
        with pytest.raises(ContractViolation):
            king_measure(prepare_psi0(), 0, None, force_outcome=3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: king_measure(prepare_psi0(), 0, None, force_outcome=1.5),
        lambda: king_measure(prepare_psi0(), 1.5, None, force_outcome=0),
        lambda: king_measure(prepare_psi0(), 1.0, None, force_outcome=0),
        lambda: king_measure(prepare_psi0(), 0, None, force_outcome="1"),
        lambda: infer(1.5, 0),
        lambda: infer(0, 2.5),
        lambda: infer(np.float64(1), 0),
        lambda: king_outcome_probabilities(prepare_psi0(), 1.5),
        lambda: run_round(1.0, np.random.default_rng(0)),
        lambda: simulate_rounds(3, seed=1, basis=2.0),
        lambda: simulate_rounds(1.5, seed=1),
        lambda: simulate_rounds("3", seed=1),
        lambda: standard_basis_vector(3, 1.5),
        lambda: standard_basis_vector(1.5, 0),
        lambda: cli.RunConfig("verify", seed="a"),
        lambda: cli.RunConfig("simulate", rounds=1.5),
        lambda: cli.RunConfig("simulate", basis=1.0),
    ],
    ids=[
        "forced-outcome-1.5",
        "king-basis-1.5",
        "king-basis-1.0",
        "forced-outcome-str",
        "infer-basis-1.5",
        "infer-outcome-2.5",
        "infer-basis-float64",
        "king-probabilities-basis-1.5",
        "run-round-basis-1.0",
        "simulate-basis-2.0",
        "simulate-rounds-1.5",
        "simulate-rounds-str",
        "basis-vector-index-1.5",
        "basis-vector-dim-1.5",
        "config-seed-str",
        "config-rounds-1.5",
        "config-basis-1.0",
    ],
)
def test_non_integer_arguments_are_contract_violations(call):
    with pytest.raises(ContractViolation):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_round(None, "x"),
        lambda: run_round(None, None),
        lambda: sample_outcome([0.5, 0.5], np.random.default_rng(0), size=-1),
        lambda: sample_outcome([0.5, 0.5], np.random.default_rng(0), size=1.5),
        lambda: infer(0, 0, basis="x"),
    ],
    ids=["run-round-str-rng", "run-round-no-rng", "sample-size--1", "sample-size-1.5",
         "infer-str-basis"],
)
def test_bad_sampling_arguments_are_contract_violations(call):
    with pytest.raises(ContractViolation):
        call()


def test_numpy_integer_indices_are_accepted():
    assert infer(np.int8(3), np.int64(3)) == 2
    assert king_measure(prepare_psi0(), np.int64(2), None, force_outcome=np.int8(1))[0] == 1


class TestPsiBasis:
    def test_gram_is_identity(self, psi_basis):
        gram = psi_basis.matrix.conj().T @ psi_basis.matrix
        assert np.abs(gram - np.eye(9)).max() < 1e-10

    def test_cross_trio_orthogonality(self, psi_basis):
        assert inner_product(psi_basis[0], psi_basis[5]) == pytest.approx(0, abs=1e-12)

    def test_normalization(self, psi_basis):
        assert inner_product(psi_basis[3], psi_basis[3]) == pytest.approx(1)

    def test_first_slot_is_preparation(self, psi_basis):
        assert np.abs(psi_basis[0].amps - prepare_psi0().amps).max() == 0

    def test_mixing_reproduces_reference_trio(self, psi_basis, trios, qutrit_mubs):
        mixing = qutrit_mubs.bases[3].matrix  # the same unitary mixes every trio
        triple = np.stack([psi_basis[j].amps for j in (0, 1, 2)], axis=1)
        remixed = triple @ mixing
        for k in range(3):
            assert np.abs(remixed[:, k] - trios(0, k).amps).max() < 1e-12

    def test_mixing_reproduces_every_trio_exactly(self, psi_basis, trios, qutrit_mubs):
        mixing = qutrit_mubs.bases[3].matrix
        for m in range(4):
            triple = np.stack(
                [psi_basis[0].amps, psi_basis[2 * m + 1].amps, psi_basis[2 * m + 2].amps],
                axis=1,
            )
            remixed = triple @ mixing
            for k in range(3):
                # equality on the nose, not merely up to a phase
                assert np.abs(remixed[:, k] - trios(m, k).amps).max() < 1e-12

    def test_paired_states_orthogonal(self, psi_basis):
        for m in range(4):
            value = inner_product(psi_basis[2 * m + 1], psi_basis[2 * m + 2])
            assert abs(value) < 1e-12

    def test_mixing_matrix_unitary(self, qutrit_mubs):
        mixing = qutrit_mubs.bases[3].matrix
        assert np.abs(mixing.conj().T @ mixing - np.eye(3)).max() < 1e-12


class TestBracketStates:
    def test_preparation_component(self, psi_basis):
        value = inner_product(psi_basis[0], bracket_state((0, 0, 0, 0)))
        assert value == pytest.approx(1 / 3, abs=1e-12)

    def test_defining_property_all_labels(self, trios):
        for label in ALL_LABELS:
            state = bracket_state(label)
            for m in range(4):
                for k in range(3):
                    value = inner_product(trios(m, k), state)
                    if k == label[m]:
                        assert abs(value) == pytest.approx(INV_SQRT3, abs=1e-10)
                    else:
                        assert abs(value) < 1e-10

    @given(labels_strategy)
    def test_normalized(self, label):
        assert np.linalg.norm(bracket_state(label).amps) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_labels(self):
        with pytest.raises(ContractViolation):
            bracket_state((0, 1, 2))
        with pytest.raises(ContractViolation):
            bracket_state((0, 1, 2, 3))

    @pytest.mark.parametrize(
        "label", [(0, 1, 2, 0.5), (0, 1, 2, 1.0), (0, np.float64(1), 2, 0), "0120", 7]
    )
    def test_rejects_non_integer_coordinates(self, label):
        for call in (
            lambda: bracket_state(label),
            lambda: label_agreement(label, (0, 0, 0, 0)),
            lambda: bracket_overlap((0, 0, 0, 0), label),
        ):
            with pytest.raises(ContractViolation):
                call()

    def test_accepts_numpy_integer_coordinates(self):
        row = protocol.label_matrix()[5]
        assert np.array_equal(bracket_state(row).amps, bracket_state(ALL_LABELS[5]).amps)


class TestBracketFamily:
    def test_columns_are_bracket_states(self):
        brackets = protocol.bracket_matrix()
        assert brackets.shape == (9, 81)
        for i, label in enumerate(ALL_LABELS):
            assert np.abs(brackets[:, i] - bracket_state(label).amps).max() < 1e-14

    def test_agreement_matrix_counts_matching_coordinates(self):
        agreement = protocol.agreement_matrix()
        assert agreement.shape == (81, 81)
        for i, a in enumerate(ALL_LABELS):
            assert agreement[i].tolist() == [label_agreement(a, b) for b in ALL_LABELS]

    def test_cached_arrays_are_read_only(self):
        for array in (
            protocol.label_matrix(),
            protocol.agreement_matrix(),
            protocol.bracket_matrix(),
            protocol.bracket_gram(),
        ):
            assert not array.flags.writeable


class TestLabelSetDeviations:
    def test_clashing_pair_reads_a_third(self):
        # (0,0,0,0) and (0,0,1,1) agree in 2 coordinates: overlap (2 - 1) / 3
        labels = ((0, 0, 0, 0), (0, 0, 1, 1)) + PHYSICIST_LABELS[2:]
        assert protocol.label_set_deviations([labels])[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_every_searched_set_is_orthonormal(self):
        deviations = protocol.label_set_deviations(search_bases())
        assert deviations.shape == (72,)
        assert deviations.max() < TOL

    @pytest.mark.parametrize(
        "sets", [[[(0, 0, 0, 3)]], [[(0, 0, 0)]], [[(0, 0, 0, 0.5)]], [(0, 0, 0, 0)]]
    )
    def test_rejects_malformed_sets(self, sets):
        with pytest.raises(ContractViolation):
            protocol.label_set_deviations(sets)


class TestDoctoredBracketFamily:
    """Certification must notice a bracket matrix whose columns are not the
    states of their labels."""

    @pytest.fixture
    def doctored(self, monkeypatch):
        # column i holds the state of label i - 1
        brackets = np.roll(protocol.bracket_matrix(), 1, axis=1)
        monkeypatch.setattr(protocol, "bracket_matrix", lambda: brackets)
        monkeypatch.setattr(protocol, "bracket_gram", lambda: brackets.conj().T @ brackets)

    @pytest.mark.parametrize("name", ["bracket-trio-selectivity", "bracket-overlap-law"])
    def test_verify_check_fails(self, doctored, name):
        check = next(c for c in protocol.invariant_checks() if c.name == name)
        assert not check.passed
        assert check.max_deviation > 0.1

    def test_search_raises(self, doctored):
        with pytest.raises(RuntimeError, match="orthonormality"):
            search_bases()


def test_paired_orthogonality_reads_the_psi_matrix(monkeypatch):
    protocol.invariant_checks()  # every cache built from the true psi basis
    matrix = protocol.build_psi_basis().matrix.copy()
    matrix[:, 4] = matrix[:, 3]  # pair m = 1 made parallel
    monkeypatch.setattr(protocol, "build_psi_basis", lambda: SimpleNamespace(matrix=matrix))
    check = next(c for c in protocol.invariant_checks() if c.name == "paired-orthogonality")
    assert not check.passed


class TestDoctoredTrioMatrix:
    """Certification must notice a trio matrix whose rows are not the
    collapses they stand for."""

    @pytest.fixture
    def doctored(self, monkeypatch):
        protocol.build_psi_basis()  # cached from the true trios
        # the rows of trio 1 in the order (1, 1), (1, 2), (1, 0)
        trios = protocol.trio_matrix().copy()
        trios[3:6] = np.roll(trios[3:6], -1, axis=0)
        monkeypatch.setattr(protocol, "trio_matrix", lambda: trios)
        protocol._round_engine.cache_clear()
        yield
        protocol._round_engine.cache_clear()

    @pytest.mark.parametrize(
        "name", ["trio-reconstruction", "retrodiction-certainty", "round-engine-replay"]
    )
    def test_verify_check_fails(self, doctored, name):
        check = next(c for c in protocol.invariant_checks() if c.name == name)
        assert not check.passed

    def test_engine_rows_still_look_like_thirds(self, doctored):
        # every collapse row keeps three outcomes of 1/3, so only the
        # explicit-path replay can tell that basis 1's rows moved
        engine = protocol._round_engine()
        assert engine.shape == (36, 4)
        assert (engine[9:18, 3] != engine[9:18, 1]).all()


class TestCollapseBorn:
    def test_a_third_exactly_where_the_label_names_the_outcome(self, physicist):
        labels = np.array(physicist.labels).T  # labels[m, j] = label_j[m]
        m, k = np.divmod(np.arange(12), 3)
        expected = (labels[m] == k[:, None]) / 3.0
        assert np.abs(protocol._collapse_born(physicist) - expected).max() < 1e-15

    def test_trio_matrix_is_read_only(self):
        assert trio_matrix().shape == (12, 9)
        assert not trio_matrix().flags.writeable


class TestBracketOverlap:
    def test_identical_labels(self):
        assert bracket_overlap((0, 0, 0, 0), (0, 0, 0, 0)) == pytest.approx(1.0)

    def test_single_agreement_is_orthogonal(self):
        assert bracket_overlap((0, 0, 0, 0), (0, 1, 1, 1)) == 0.0

    def test_no_agreement(self):
        assert bracket_overlap((0, 0, 0, 0), (1, 1, 1, 1)) == pytest.approx(-1 / 3)

    @given(labels_strategy, labels_strategy)
    def test_matches_numeric_inner_product(self, a, b):
        numeric = inner_product(bracket_state(a), bracket_state(b))
        assert abs(numeric.imag) < 1e-10
        assert numeric.real == pytest.approx(bracket_overlap(a, b), abs=1e-10)

    @given(labels_strategy, labels_strategy)
    def test_symmetric(self, a, b):
        assert bracket_overlap(a, b) == bracket_overlap(b, a)


class TestPhysicistBasis:
    def test_reference_labels(self, physicist):
        assert physicist.labels == PHYSICIST_LABELS
        assert physicist.labels[3] == (1, 0, 1, 2)
        assert physicist.labels[8] == (2, 2, 1, 0)

    def test_orthonormal(self, physicist):
        gram = physicist.basis.matrix.conj().T @ physicist.basis.matrix
        assert np.abs(gram - np.eye(9)).max() < 1e-10

    def test_pairwise_agreement_exactly_one(self, physicist):
        for a in range(9):
            for b in range(a + 1, 9):
                assert label_agreement(physicist.labels[a], physicist.labels[b]) == 1

    def test_rejects_clashing_labels(self, physicist):
        labels = ((0, 0, 0, 0), (0, 0, 1, 1)) + PHYSICIST_LABELS[2:]
        with pytest.raises(ContractViolation):
            PhysicistBasis(physicist.basis, labels)

    def test_clash_message_names_the_first_pair(self, physicist):
        labels = PHYSICIST_LABELS[:7] + ((2, 1, 1, 1), PHYSICIST_LABELS[8])
        message = r"labels \(0, 0, 0, 0\) and \(2, 1, 1, 1\) agree in 0 coordinates"
        with pytest.raises(ContractViolation, match=message + ", want exactly 1"):
            PhysicistBasis(physicist.basis, labels)


class TestInfer:
    def test_worked_example_outcome_three(self):
        assert [infer(m, 3) for m in range(4)] == [1, 0, 1, 2]

    def test_fourth_basis(self):
        assert infer(3, 3) == 2

    def test_all_zero_label(self):
        assert infer(1, 0) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractViolation):
            infer(4, 0)
        with pytest.raises(ContractViolation):
            infer(0, 9)


class TestRounds:
    def test_every_round_succeeds(self):
        records = simulate_rounds(2000, seed=314)
        assert all(r.success for r in records)
        assert all(r.inferred == r.king_outcome for r in records)

    def test_forced_basis_respected(self):
        records = simulate_rounds(100, seed=9, basis=2)
        assert all(r.king_basis == 2 for r in records)

    def test_seed_metadata(self):
        records = simulate_rounds(5, seed=77)
        assert [r.round_index for r in records] == list(range(5))
        assert all(r.seed == 77 for r in records)

    def test_deterministic_given_seed(self):
        assert simulate_rounds(200, seed=42) == simulate_rounds(200, seed=42)

    def test_rounds_are_order_independent(self):
        forward = simulate_rounds(50, seed=5)
        backward = [
            run_round(None, round_stream(5, i), seed=5, round_index=i)
            for i in reversed(range(50))
        ]
        assert forward == list(reversed(backward))

    def test_matches_unbatched_measurement_path(self, physicist):
        # the cached sampling tables must reproduce the explicit
        # measure-collapse-measure sequence draw for draw
        indices = [*range(100), *range(2**40 - 50, 2**40 + 50)]
        for seed, i in itertools.product((0, 2024, 2**64 - 1), indices):
            gen = round_stream(seed, i)
            m = int(gen.bit_generator.random_raw() >> 62)
            k, collapsed = king_measure(prepare_psi0(), m, gen)
            j = sample_outcome(born_probabilities(collapsed, physicist.basis), gen)
            record = run_round(None, round_stream(seed, i))
            assert (record.king_basis, record.king_outcome, record.physicist_outcome) == (m, k, j)

    def test_stream_is_numpys_keyed_philox(self):
        # every index owns its own counter block, up to 2**64 - 1, and no
        # cast on the way warns
        seeds = (0, 7, 2**63, 2**64 - 1)
        indices = (0, 1, 2**40, 2**63 - 1, 2**63 + 1, 2**64 - 1024, 2**64 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed, i in itertools.product(seeds, indices):
                ours = round_stream(seed, i).bit_generator
                numpys = np.random.Philox(key=seed, counter=i)
                state, expected = ours.state["state"], numpys.state["state"]
                assert state.keys() == expected.keys()
                for name in state:
                    assert np.array_equal(state[name], expected[name]), (seed, i, name)
                assert np.array_equal(ours.random_raw(8), numpys.random_raw(8)), (seed, i)
            last = round_stream(5, 2**64 - 1).bit_generator.random_raw(4)
            first = round_stream(5, 0).bit_generator.random_raw(4)
        assert not np.array_equal(last, first)

    def test_stream_pickles_and_draws_like_generator(self):
        gen = round_stream(3, 2**40)
        again = pickle.loads(pickle.dumps(gen))
        assert gen.random() == again.random() == np.random.Generator(
            np.random.Philox(key=3, counter=2**40)).random()

    @pytest.mark.parametrize("request_", [(4, np.uint64), (2, np.uint32), (1, np.uint64)])
    def test_stream_key_refuses_other_requests(self, request_):
        with pytest.raises(RuntimeError, match="expected 2 of uint64"):
            protocol._PhiloxKey(1).generate_state(*request_)

    def test_physicist_outcomes_uniform_over_compatible(self, physicist):
        n = 30_000
        records = simulate_rounds(n, seed=11, basis=1)
        for k in range(3):
            outcomes = [r.physicist_outcome for r in records if r.king_outcome == k]
            compatible = {j for j in range(9) if physicist.labels[j][1] == k}
            assert set(outcomes) <= compatible
            counts = np.bincount(outcomes, minlength=9)[sorted(compatible)]
            total = len(outcomes)
            bound = 4 * np.sqrt(total * (1 / 3) * (2 / 3))
            assert np.abs(counts - total / 3).max() < bound

    def test_rejects_bad_round_count(self, rng):
        with pytest.raises(ContractViolation):
            simulate_rounds(0, seed=1)

    def test_rejects_bad_basis(self, rng):
        with pytest.raises(ContractViolation):
            run_round(7, rng)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_rejects_seed_outside_key_range(self, seed):
        with pytest.raises(ContractViolation):
            round_stream(seed, 0)
        with pytest.raises(ContractViolation):
            simulate_rounds(3, seed)

    @pytest.mark.parametrize("index", [-1, 2**64, 2**70])
    def test_rejects_round_index_outside_counter_block(self, index):
        with pytest.raises(ContractViolation):
            round_stream(1, index)

    def test_simulate_rejects_bad_basis(self):
        for basis in (-1, 4, 7):
            with pytest.raises(ContractViolation):
                simulate_rounds(3, seed=1, basis=basis)


class TestRoundChunks:
    ROUNDS = CHUNK_ROUNDS + 2

    @pytest.mark.parametrize("basis", [None, 0, 3])
    def test_lone_rounds_match_the_batch_across_the_chunk_seam(self, basis):
        n, seed = self.ROUNDS, 99
        records = simulate_rounds(n, seed, basis)
        assert len(records) == n
        for i in (0, CHUNK_ROUNDS - 1, CHUNK_ROUNDS, CHUNK_ROUNDS + 1, n - 1):
            lone = run_round(basis, round_stream(seed, i), seed=seed, round_index=i)
            assert lone == records[i]
        king = np.zeros((4, 3), dtype=int)
        physicist = np.zeros(9, dtype=int)
        for r in records:
            king[r.king_basis, r.king_outcome] += 1
            physicist[r.physicist_outcome] += 1
        report = cli.run(cli.RunConfig("simulate", rounds=n, seed=seed, basis=basis))
        assert report["data"]["king_outcomes"] == king.tolist()
        assert report["data"]["physicist_outcomes"] == physicist.tolist()
        assert report["data"]["successes"] == n

    def test_batch_and_lone_paths_agree_on_cdf_boundaries(self):
        # words on, just below and just above both word constants and every
        # former float threshold, where a < / <= slip or an off-by-one in the
        # shift would split the paths; each round is also mapped by the exact
        # rational cdf
        edges = {protocol.ONE_THIRD, protocol.TWO_THIRDS}
        edges.update(itertools.chain.from_iterable(former_thresholds()))
        near = sorted({e + d for e in edges for d in (-2048, -1, 0, 1)})
        rows = [[m << 62, w1, w2, 0] for m in range(4) for w1 in near for w2 in near]
        expected = [exact_round(m >> 62, w1, w2) for m, w1, w2, _ in rows]
        words = np.array(rows, dtype=np.uint64)
        outcomes = protocol.round_outcomes()
        assert {k for _, k, *_ in expected} == {0, 1, 2}
        assert outcomes[protocol._map_words(words, None)].tolist() == expected
        assert as_lists(run_round(None, Draw(*row)) for row in rows) == expected
        for m in range(4):
            forced = outcomes[protocol._map_words(words[words[:, 0] == m << 62], m)]
            assert forced.tolist() == [e for e in expected if e[0] == m]

    def test_float_path_moves_rounds_only_in_named_windows(self):
        # sample_outcome on a float Born vector reaches a cdf step at the
        # former threshold, the engine at the exact word constant; between
        # the two (the other word in the middle of a third) a round moves
        # from the float path's bin to the engine's.  Each entry is
        # (float bin, engine bin, window width in words).
        word = np.random.Philox(key=3).random_raw()
        assert Draw(word).random() == np.random.Generator(np.random.Philox(key=3)).random()
        psi0 = prepare_psi0()
        physicist = protocol.build_physicist_basis().basis
        outcomes = [tuple(row) for row in protocol.round_outcomes()[:, :3].tolist()]
        middle = [(2 * i + 1) * 2**64 // 6 for i in range(3)]

        def float_bin(m, w1, w2):
            k = sample_outcome(king_outcome_probabilities(psi0, m), Draw(w1))
            born = born_probabilities(king_measure(psi0, m, None, force_outcome=k)[1], physicist)
            return outcomes.index((m, k, sample_outcome(born, Draw(w2))))

        def bins(row, w):
            m, k = (row, 0) if row < 4 else divmod(row - 4, 3)
            w1, w2 = (w, middle[0]) if row < 4 else (middle[k], w)
            engine = protocol._map_words(np.array([[m << 62, w1, w2, 0]], dtype=np.uint64), None)
            return float_bin(m, w1, w2), int(engine[0])

        moved = []
        for row, steps in enumerate(former_thresholds()):
            for former, exact in zip(steps, (protocol.ONE_THIRD, protocol.TWO_THIRDS)):
                lo, hi = sorted((former, exact))
                for w in (lo - 1, hi):
                    assert len(set(bins(row, w))) == 1, (row, w)
                if lo < hi:
                    assert bins(row, lo) == bins(row, hi - 1)
                    moved.append((*bins(row, lo), hi - lo))
        # king basis 0's second step, then collapse rows 0, 1, 2, 3, 5, 5,
        # 6, 6, 7, 8, 9, 10, 11: at most 2 * 2**11 words each
        assert moved == [
            (6, 3, 2048),
            (2, 1, 2048), (5, 4, 2048), (8, 7, 2048), (9, 10, 2048),
            (16, 15, 2048), (17, 16, 4096), (18, 19, 2048), (19, 20, 2048),
            (21, 22, 2048), (26, 25, 2048), (27, 28, 4096), (31, 30, 4096),
            (34, 33, 2048),
        ]

    @given(*[st.one_of(
        st.integers(0, 2**64 - 1),
        st.tuples(st.sampled_from([protocol.ONE_THIRD, protocol.TWO_THIRDS]),
                  st.integers(-(2**12), 2**12)).map(sum),
    )] * 3)
    def test_mapping_follows_the_exact_rule(self, w0, w1, w2):
        words = np.array([[w0, w1, w2, 0]], dtype=np.uint64)
        for basis in (None, 0, 1, 2, 3):
            expected = exact_round(w0 >> 62 if basis is None else basis, w1, w2)
            assert as_lists([run_round(basis, Draw(w0, w1, w2, 0))]) == [expected]
            batch = protocol.round_outcomes()[protocol._map_words(words, basis)]
            assert batch.tolist() == [expected]

    @pytest.mark.parametrize("probs", [[0.5, 0.5, 0.0], [0.25] * 4, [1.0], [0.3, 0.3, 0.4]])
    def test_engine_rows_need_three_outcomes(self, probs):
        with pytest.raises(RuntimeError, match="expected three of 1/3"):
            protocol._third_outcomes(probs, "row")

    def test_engine_rows_keep_the_outcomes_of_a_third(self):
        assert protocol._third_outcomes([0, 1 / 3, 0, 1 / 3, 1 / 3], "row") == [1, 3, 4]

    def test_engine_build_certifies_the_king_rows(self, monkeypatch):
        monkeypatch.setattr(protocol, "king_outcome_probabilities",
                            lambda psi0, m: np.array([0.3, 0.3, 0.4]))
        with pytest.raises(RuntimeError, match="king basis 0 has outcome probabilities"):
            protocol._round_engine.__wrapped__()

    def test_tally_matches_the_measurement_path(self):
        # _measured_round never reads the engine's tables
        n = 600
        for seed in (0, 2**64 - 1):
            king = np.zeros((4, 3), dtype=int)
            physicist = np.zeros(9, dtype=int)
            successes = 0
            for i in range(n):
                m, k, j = protocol._measured_round(seed, i)
                king[m, k] += 1
                physicist[j] += 1
                successes += infer(m, j) == k
            data = cli.run(cli.RunConfig("simulate", rounds=n, seed=seed))["data"]
            assert data["basis_choices"] == king.sum(axis=1).tolist()
            assert data["king_outcomes"] == king.tolist()
            assert data["physicist_outcomes"] == physicist.tolist()
            assert data["successes"] == successes == n

    def test_chunks_validate_before_iteration(self):
        with pytest.raises(ContractViolation):
            round_chunks(0, seed=1)
        with pytest.raises(ContractViolation):
            round_chunks(5, seed=1, basis=4)

    def test_chunks_are_bounded_int8_bins(self):
        sizes = []
        for bins in round_chunks(self.ROUNDS, seed=4):
            assert bins.dtype == np.int8 and bins.ndim == 1
            assert 0 <= bins.min() and bins.max() < 36
            sizes.append(bins.size)
        assert sizes == [CHUNK_ROUNDS, 2]

    def test_simulate_memory_does_not_grow_with_rounds(self):
        def peak(rounds):
            tracemalloc.start()
            try:
                cli.run(cli.RunConfig("simulate", rounds=rounds, seed=6))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10**6) <= 1.5 * peak(2 * CHUNK_ROUNDS)


class TestRoundEngineReplayCheck:
    @staticmethod
    def replay_check():
        return next(c for c in protocol.invariant_checks() if c.name == "round-engine-replay")

    def test_passes_and_covers_every_king_basis(self):
        assert self.replay_check().passed
        records = simulate_rounds(protocol.REPLAY_CHECK_ROUNDS, 0)
        assert {r.king_basis for r in records} == {0, 1, 2, 3}

    def test_catches_a_wrong_table(self, monkeypatch):
        # the physicist outcomes of each collapse's three bins in reverse order
        wrong = protocol._round_engine().copy()
        wrong[:, 2] = wrong[:, 2].reshape(12, 3)[:, ::-1].ravel()
        monkeypatch.setattr(protocol, "_round_engine", lambda: wrong)
        check = self.replay_check()
        assert not check.passed
        assert check.max_deviation > 0


class TestExhaustiveVerify:
    def test_built_in_basis_passes(self):
        report = exhaustive_verify()
        assert report.passed
        assert report.cases_checked == 12
        assert report.outcomes_checked == 36
        assert report.max_probability_deviation < 1e-10
        assert report.failures == ()

    def test_swapped_labels_fail_with_offending_tuple(self, physicist):
        labels = list(physicist.labels)
        labels[0], labels[1] = labels[1], labels[0]
        broken = PhysicistBasis(physicist.basis, tuple(labels))
        report = exhaustive_verify(broken)
        assert not report.passed
        assert report.failures
        assert any("m=" in f and "j=" in f for f in report.failures)


class TestSearchBases:
    def test_count_and_reference_membership(self):
        sets = search_bases()
        assert len(sets) == 72  # frozen from the independent clique oracle
        assert tuple(sorted(PHYSICIST_LABELS)) in sets

    def test_canonical_ordering(self):
        sets = search_bases()
        assert list(sets) == sorted(sets)
        for labels in sets:
            assert list(labels) == sorted(labels)
        assert len(set(sets)) == len(sets)

    def test_sets_are_orthogonal_latin_square_pairs(self):
        pairs = set()
        for labels in search_bases():
            a, b, f, g = np.array(labels).T
            assert a.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
            assert b.tolist() == [0, 1, 2] * 3
            for square in (f.reshape(3, 3), g.reshape(3, 3)):
                assert (np.sort(square, axis=0) == np.arange(3)[:, None]).all()
                assert (np.sort(square, axis=1) == np.arange(3)).all()
            assert sorted(3 * f + g) == list(range(9))
            pairs.add((tuple(f), tuple(g)))
        assert len(pairs) == 72

    def test_pairwise_orthogonality_criterion(self):
        for labels in search_bases():
            for a in range(9):
                for b in range(a + 1, 9):
                    assert bracket_overlap(labels[a], labels[b]) == 0.0
