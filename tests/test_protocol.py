import collections
import functools
import inspect
import itertools
import json
import math
import pickle
import random
import re
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from numpy.random.bit_generator import ISeedSequence
import pytest
from hypothesis import given, strategies as st

from retroking import (
    ALL_LABELS,
    OMEGA,
    PHYSICIST_LABELS,
    TOL,
    ContractViolation,
    PhysicistBasis,
    RoundRecord,
    StateVector,
    bracket_state,
    born_probabilities,
    build_qutrit_mubs,
    entangled_forms,
    exhaustive_verify,
    infer,
    inner_product,
    king_measure,
    prepare_psi0,
    round_stream,
    run_round,
    sample_outcome,
    search_bases,
    simulate_rounds,
    trio_matrix,
)
from retroking import brackets, cli, linalg, mub, protocol
from retroking.protocol import CHUNK_ROUNDS, round_chunks

from conftest import Uniform, _clear_caches, forced_collapse, mutated, perfbench_checks, sample_many

INV_SQRT3 = 3**-0.5

labels_strategy = st.tuples(*[st.integers(0, 2)] * 4)


class Draw:
    """Stands in for a Generator: random_raw() hands out the given words in
    turn, and random() reads the next as Generator.random() would."""

    def __init__(self, *words):
        self.bit_generator = self
        self.words = iter(words)

    def random_raw(self):
        return next(self.words)

    def random(self, size=None):
        u = (next(self.words) >> 11) * 2.0**-53
        return u if size is None else np.full(size, u)


def exact_round(w0, w1, basis=None):
    """[m, k, j, inferred] by the exact rational cdf: the king's word w0
    names his basis m in its low two bits (unless it is forced), and word w
    draws the uniform Fraction(w >> 11, 2**53) and picks the outcome given by
    how many of the steps 1/3 and 2/3 it reaches; the physicist's outcomes
    after the king's (m, k) are the labels with k in coordinate m, in order."""

    def pick(w):
        u = Fraction(w >> 11, 2**53)
        return (u >= Fraction(1, 3)) + (u >= Fraction(2, 3))

    m, k = w0 & 3 if basis is None else basis, pick(w0)
    j = [j for j, label in enumerate(PHYSICIST_LABELS) if label[m] == k][pick(w1)]
    return [m, k, j, infer(m, j)]


def float_rows():
    """The float Born vectors the explicit path samples from: king rows
    m = 0..3, then collapse rows 3*m + k."""
    psi0 = prepare_psi0()
    physicist = brackets.build_physicist_basis().basis
    rows = [protocol._king_born(psi0, matrix) for matrix in build_qutrit_mubs().matrices]
    return rows + [
        born_probabilities(forced_collapse(m, k)[1], physicist)
        for m in range(4)
        for k in range(3)
    ]


def former_thresholds():
    """The words ceil(c * 2**53) << 11 at which sample_outcome, on a row's
    float Born vector, passes its two cdf steps c."""
    return [
        [math.ceil(c * 2.0**53) << 11 for c in numpy_distribution(p)[1][:2]]
        for p in float_rows()
    ]


def as_lists(records):
    return [[r.king_basis, r.king_outcome, r.physicist_outcome, r.inferred] for r in records]


def law_overlap(a, b):
    """The overlap law at the matches of labels a and b, read off the agreement matrix."""
    i, j = ALL_LABELS.index(a), ALL_LABELS.index(b)
    return brackets.overlap_law(brackets.agreement_matrix()[i, j])


class TestPreparation:
    def test_reference_amplitude(self):
        assert prepare_psi0().amps[0] == pytest.approx(INV_SQRT3)

    def test_overlap_with_first_basis_pair(self, qutrit_mubs):
        pair = StateVector(np.kron(qutrit_mubs.bases[1][0].amps, qutrit_mubs.bases[2][0].amps))
        assert abs(inner_product(pair, prepare_psi0())) == pytest.approx(INV_SQRT3)

    def test_fourth_basis_equal_outcomes_are_absent(self, qutrit_mubs):
        pair = StateVector(np.kron(qutrit_mubs.bases[3][1].amps, qutrit_mubs.bases[3][1].amps))
        assert inner_product(pair, prepare_psi0()) == pytest.approx(0, abs=1e-12)

    def test_four_forms_agree_exactly(self):
        psi0 = prepare_psi0()
        for form in entangled_forms():
            assert np.abs(form.amps - psi0.amps).max() < 1e-12
            assert abs(inner_product(psi0, form)) >= 1 - 1e-12


class TestTrioTable:
    def test_trios_are_the_qutrit_projectors(self, qutrit_mubs):
        assert trio_matrix() is qutrit_mubs.projectors

    def test_states_are_products(self, qutrit_mubs, trios):
        # outcome k of basis m leaves |m_k> on the given atom and its
        # conjugate on the auxiliary one
        for m in range(4):
            for k in range(3):
                ket = qutrit_mubs.bases[m][k]
                expected = StateVector(np.kron(ket.amps, ket.amps.conj()))
                assert np.abs(trios(m, k).amps - expected.amps).max() <= np.spacing(1.0)

    def test_within_trio_orthogonality(self, trios):
        for m in range(4):
            for k in range(3):
                for kp in range(k + 1, 3):
                    value = inner_product(trios(m, k), trios(m, kp))
                    assert abs(value) < 1e-12


class TestKingMeasure:
    def test_forced_collapse_reference_basis(self, trios, same_ray):
        k, collapsed = forced_collapse(0, 1)
        assert k == 1
        assert same_ray(collapsed, trios(0, 1))

    def test_forced_collapse_fourth_basis(self, qutrit_mubs, same_ray):
        k, collapsed = forced_collapse(3, 2)
        assert k == 2
        expected = StateVector(np.kron(qutrit_mubs.bases[3][2].amps, qutrit_mubs.bases[3][1].amps))
        assert same_ray(collapsed, expected)

    def test_all_collapses_land_on_trios(self, trios, same_ray):
        for m in range(4):
            for k in range(3):
                drawn, collapsed = forced_collapse(m, k)
                assert drawn == k
                assert same_ray(collapsed, trios(m, k))

    def test_outcomes_uniform(self, rng):
        n = 3000
        counts = np.zeros(3, dtype=int)
        for _ in range(n):
            k, _ = king_measure(prepare_psi0(), 2, rng)
            counts[k] += 1
        bound = 4 * np.sqrt(n * (1 / 3) * (2 / 3))
        assert np.abs(counts - n / 3).max() < bound

    def test_outcome_distribution_at_scale(self, qutrit_mubs):
        # stacked draws by the rule king_measure draws with, on its distribution
        n = 100_000
        for m in range(4):
            probs = protocol._king_born(prepare_psi0(), qutrit_mubs.matrices[m])
            draws = sample_many(probs, np.random.default_rng(8 + m), n)
            counts = np.bincount(draws, minlength=3)
            bound = 4 * np.sqrt(n * (1 / 3) * (2 / 3))
            assert np.abs(counts - n / 3).max() < bound

    def test_probabilities_are_exact_thirds(self, qutrit_mubs):
        probs = protocol._king_born(prepare_psi0(), qutrit_mubs.matrices)
        assert probs == pytest.approx(np.full((4, 3), 1 / 3), abs=1e-12)

    def test_stacks_give_the_per_matrix_results_bit_for_bit(self, qutrit_mubs, qubit_mubs):
        psi0 = prepare_psi0()
        king = protocol._king_born(psi0, qutrit_mubs.matrices)
        assert np.array_equal(king, [protocol._king_born(psi0, m) for m in qutrit_mubs.matrices])
        for stack in (qutrit_mubs.matrices, qubit_mubs.matrices):
            deviations = linalg._orthonormality_deviation(stack)
            assert np.array_equal(deviations, [linalg._orthonormality_deviation(m) for m in stack])

    def test_requires_generator_or_forced_outcome(self):
        with pytest.raises(ContractViolation):
            king_measure(prepare_psi0(), 0, None)

    def test_rejects_bad_indices(self, rng):
        with pytest.raises(ContractViolation):
            king_measure(prepare_psi0(), 4, rng)


@pytest.mark.parametrize(
    "call",
    [
        lambda: king_measure(prepare_psi0(), 1.5, Uniform(1 / 6)),
        lambda: king_measure(prepare_psi0(), 1.0, Uniform(1 / 6)),
        lambda: infer(1.5, 0),
        lambda: infer(0, 2.5),
        lambda: infer(np.float64(1), 0),
        lambda: run_round(1.0, np.random.default_rng(0)),
        lambda: simulate_rounds(3, seed=1, basis=2.0),
        lambda: simulate_rounds(1.5, seed=1),
        lambda: simulate_rounds("3", seed=1),
        lambda: cli.RunConfig("verify", seed="a"),
        lambda: cli.RunConfig("simulate", rounds=1.5),
        lambda: cli.RunConfig("simulate", basis=1.0),
    ],
    ids=[
        "king-basis-1.5",
        "king-basis-1.0",
        "infer-basis-1.5",
        "infer-outcome-2.5",
        "infer-basis-float64",
        "run-round-basis-1.0",
        "simulate-basis-2.0",
        "simulate-rounds-1.5",
        "simulate-rounds-str",
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
        lambda: infer(0, 0, basis="x"),
    ],
    ids=["run-round-str-rng", "run-round-no-rng", "infer-str-basis"],
)
def test_bad_sampling_arguments_are_contract_violations(call):
    with pytest.raises(ContractViolation):
        call()


def test_numpy_integer_indices_are_accepted():
    assert infer(np.int8(3), np.int64(3)) == 2
    assert king_measure(prepare_psi0(), np.int64(2), Uniform(1 / 2))[0] == 1


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
        with pytest.raises(ContractViolation):
            bracket_state(label)

    def test_accepts_numpy_integer_coordinates(self):
        row = np.array(ALL_LABELS, dtype=np.int8)[5]
        assert np.array_equal(bracket_state(row).amps, bracket_state(ALL_LABELS[5]).amps)


class TestBracketFamily:
    def test_columns_are_bracket_states(self):
        family = brackets.bracket_matrix()
        assert family.shape == (9, 81)
        for i, label in enumerate(ALL_LABELS):
            assert np.array_equal(family[:, i], bracket_state(label).amps)

    def test_every_searched_basis_measures_its_columns(self):
        for labels in search_bases():
            positions = [ALL_LABELS.index(lab) for lab in labels]
            matrix = PhysicistBasis(labels).basis.matrix
            assert np.array_equal(matrix, brackets.bracket_matrix()[:, positions])

    @pytest.mark.parametrize("matches", range(5))
    def test_tables_print_the_overlap_law(self, matches):
        other = (0,) * matches + (1,) * (4 - matches)
        printed = cli.run(cli.RunConfig("tables"))["data"]["overlap_by_matches"]
        assert printed[str(matches)] == law_overlap((0, 0, 0, 0), other)

    def test_matches_the_psi_basis_construction(self):
        # the former build: 1/3 on psi_0 and OMEGA**(+-k_m) / 3 on
        # psi_2m+1, psi_2m+2, over the psi basis
        coefficients = np.empty((9, 81), dtype=np.complex128)
        coefficients[0] = 1 / 3
        coefficients[1::2] = OMEGA ** np.array(ALL_LABELS).T / 3
        coefficients[2::2] = coefficients[1::2].conj()
        reference = brackets.build_psi_basis().matrix @ coefficients
        assert np.abs(brackets.bracket_matrix() - reference).max() < 1e-15

    def test_selection_matrix_marks_the_selected_trio_members(self):
        selection = brackets.selection_matrix()
        assert selection.shape == (12, 81) and selection.dtype == np.int8
        for i, label in enumerate(ALL_LABELS):
            assert selection[:, i].tolist() == [int(label[m] == k) for m in range(4) for k in range(3)]

    def test_trios_meet_each_bracket_as_selected(self):
        # T* B = S / sqrt(3), phases included
        overlaps = brackets.trio_matrix().conj() @ brackets.bracket_matrix()
        assert np.abs(overlaps - brackets.selection_matrix() * 3**-0.5).max() < 1e-15

    def test_agreement_matrix_counts_matching_coordinates(self):
        agreement = brackets.agreement_matrix()
        assert agreement.shape == (81, 81)
        for i, a in enumerate(ALL_LABELS):
            assert agreement[i].tolist() == [
                sum(x == y for x, y in zip(a, b)) for b in ALL_LABELS
            ]


def _handed_out_arrays(value, path):
    """(path, array) for each array in a cached result: the result itself,
    tuple members and the slots of returned records, all the way down."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _handed_out_arrays(item, f"{path}[{i}]")
    elif isinstance(value, linalg._Record):
        for name in value.__slots__:
            yield from _handed_out_arrays(getattr(value, name), f"{path}.{name}")


def _writable_paths(result, name):
    """The paths of the writable arrays a cached result hands out."""
    arrays = dict(_handed_out_arrays(result, name))
    assert arrays or _holds_only_ints(result)
    return [path for path, array in arrays.items() if array.flags.writeable]


def _cached_builders(*modules):
    """Every argument-free cached builder the modules hold, each named by the
    first module that holds it: protocol names the bracket builders it
    re-exports, and brackets only those it keeps to itself."""
    found = {}
    for module in modules:
        for name, f in vars(module).items():
            if (hasattr(f, "cache_clear") and not inspect.signature(f).parameters
                    and f not in found.values()):
                found[f"{module.__name__}.{name}"] = f
    return found


CACHED_BUILDERS = _cached_builders(mub, protocol, brackets)


def test_cached_builders_are_all_listed():
    names = {name.rpartition(".")[2] for name in CACHED_BUILDERS}
    assert names >= {"qutrit_basis_matrices", "_round_engine", "prepare_psi0",
                     "build_psi_basis", "build_physicist_basis", "bracket_matrix",
                     "selection_matrix", "_label_digits", "_coverage", "_law_gram",
                     "entangled_forms", "_search", "_positivity_shift", "_round_rows"}


@pytest.mark.parametrize("n", [2, 3, 9])
def test_cached_identity_is_read_only(n):
    identity = linalg._identity(n)
    assert np.array_equal(identity, np.eye(n)) and not identity.flags.writeable


def _holds_only_ints(value):
    """Whether ``value`` is an int, or a tuple of such values all the way down."""
    return type(value) is int or (isinstance(value, tuple) and all(map(_holds_only_ints, value)))


@pytest.mark.parametrize("name", sorted(CACHED_BUILDERS))
def test_cached_builders_hand_out_only_read_only_arrays(name):
    # every caller shares a cached result: one writable array in it would let
    # one caller change what all the others read.  A builder of no array
    # hands out ints in tuples, which no caller can change
    assert _writable_paths(CACHED_BUILDERS[name](), name) == []


def test_a_record_holding_a_writable_array_is_caught():
    # the control: a writable array deep in a record, in a tuple of records
    mubs = mub.build_qubit_mubs.__wrapped__()
    object.__setattr__(mubs.bases[1], "matrix", mubs.bases[1].matrix.copy())
    assert _writable_paths((mubs,), "mubs") == ["mubs[0].bases[1].matrix"]


def set_deviations(label_sets):
    """brackets._set_deviations of a stack of label sets, placed by the one label rule."""
    return brackets._set_deviations(brackets._label_index(label_sets, 2))


class TestLabelSetDeviations:
    def test_clashing_pair_reads_a_third(self):
        # (0,0,0,0) and (0,0,1,1) agree in 2 coordinates: overlap (2 - 1) / 3
        labels = ((0, 0, 0, 0), (0, 0, 1, 1)) + PHYSICIST_LABELS[2:]
        assert set_deviations([labels])[0] == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.uint64])
    def test_takes_any_integer_dtype(self, dtype):
        labels = np.array([PHYSICIST_LABELS], dtype=dtype)
        assert set_deviations(labels)[0] < TOL

    def test_every_searched_set_is_orthonormal(self):
        deviations = brackets._set_deviations(brackets._search()[0])
        assert deviations.shape == (72,)
        assert deviations.max() < TOL

    @pytest.mark.parametrize(
        "sets", [[[(0, 0, 0, 3)]], [[(0, 0, 0)]], [[(0, 0, 0, 0.5)]], [(0, 0, 0, 0)]]
    )
    def test_rejects_malformed_sets(self, sets):
        with pytest.raises(ContractViolation):
            set_deviations(sets)


class TestDoctoredBracketFamily:
    """Certification must notice a bracket matrix whose columns are not the
    states of their labels."""

    @pytest.fixture
    def doctored(self, monkeypatch):
        # the physicist basis reads its states off the bracket matrix: cached
        # afresh from the true one, so that only the family checks see the
        # doctoring, whatever ran before
        _clear_caches()
        brackets.build_physicist_basis()
        # column i holds the state of label i - 1
        rolled = np.roll(brackets.bracket_matrix(), 1, axis=1)
        # the search and the family's suite both read them in brackets
        monkeypatch.setattr(brackets, "bracket_matrix", lambda: rolled)
        monkeypatch.setattr(brackets, "bracket_gram", lambda: rolled.conj().T @ rolled)

    @pytest.mark.parametrize("name", ["bracket-trio-selectivity", "bracket-overlap-law"])
    def test_verify_check_fails(self, doctored, name):
        check = next(c for c in brackets.invariant_checks() if c.name == name)
        assert not check.passed
        assert check.max_deviation > 0.1

    def test_search_finds_the_sets_and_its_report_fails(self, doctored, capsys):
        # the search is combinatorial, so it still finds every set; the
        # search-bases report is what certifies their states
        assert len(search_bases()) == 72
        # every set reads labels shifted by one, so each fails by 1/3 or 2/3
        thirds = 3 * brackets._set_deviations(brackets._search()[0])
        assert thirds == pytest.approx(np.rint(thirds))
        assert np.bincount(np.rint(thirds).astype(int)).tolist() == [0, 36, 36]
        assert cli.main(["search-bases", "--format", "json"]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        recertification = checks["search-recertification"]
        assert not recertification["pass"]
        assert recertification["max_deviation"] == pytest.approx(2 / 3)


def test_paired_orthogonality_reads_the_psi_matrix(monkeypatch):
    matrix = brackets.build_psi_basis().matrix.copy()
    matrix[:, 4] = matrix[:, 3]  # pair m = 1 made parallel
    monkeypatch.setattr(brackets, "build_psi_basis", lambda: SimpleNamespace(matrix=matrix))
    check = next(c for c in brackets.invariant_checks() if c.name == "paired-orthogonality")
    assert not check.passed


@pytest.fixture
def doctored_trios(monkeypatch):
    """A trio matrix whose rows of trio 1 come in the order (1, 1), (1, 2),
    (1, 0)."""
    # cached afresh from the true trios, whatever ran before: the bracket
    # family, the physicist basis measuring it and the psi basis
    _clear_caches()
    brackets.build_physicist_basis()
    brackets.build_psi_basis()
    trios = brackets.trio_matrix().copy()
    trios[3:6] = np.roll(trios[3:6], -1, axis=0)
    for module in (brackets, protocol):  # the readers of the family's suite and of protocol's
        monkeypatch.setattr(module, "trio_matrix", lambda: trios)
    yield
    _clear_caches()


class TestDoctoredTrioMatrix:
    """Certification must notice a trio matrix whose rows are not the
    collapses they stand for."""

    @pytest.mark.parametrize(
        "name", ["trio-reconstruction", "retrodiction-certainty", "round-engine-replay"]
    )
    def test_verify_check_fails(self, doctored_trios, name):
        checks = brackets.invariant_checks() + protocol.invariant_checks()
        check = next(c for c in checks if c.name == name)
        assert not check.passed

    def test_engine_rows_still_look_like_thirds(self, doctored_trios):
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
        assert law_overlap((0, 0, 0, 0), (0, 0, 0, 0)) == pytest.approx(1.0)

    def test_single_agreement_is_orthogonal(self):
        assert law_overlap((0, 0, 0, 0), (0, 1, 1, 1)) == 0.0

    def test_no_agreement(self):
        assert law_overlap((0, 0, 0, 0), (1, 1, 1, 1)) == pytest.approx(-1 / 3)

    @given(labels_strategy, labels_strategy)
    def test_matches_numeric_inner_product(self, a, b):
        numeric = inner_product(bracket_state(a), bracket_state(b))
        assert abs(numeric.imag) < 1e-10
        assert numeric.real == pytest.approx(law_overlap(a, b), abs=1e-10)

    @given(labels_strategy, labels_strategy)
    def test_symmetric(self, a, b):
        assert law_overlap(a, b) == law_overlap(b, a)


class TestPhysicistBasis:
    def test_reference_labels(self, physicist):
        assert physicist.labels == PHYSICIST_LABELS
        assert physicist.labels[3] == (1, 0, 1, 2)
        assert physicist.labels[8] == (2, 2, 1, 0)

    def test_reference_labels_are_the_stated_table(self):
        assert PHYSICIST_LABELS == (
            (0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 2),
            (1, 0, 1, 2), (1, 1, 2, 0), (1, 2, 0, 1),
            (2, 0, 2, 1), (2, 1, 0, 2), (2, 2, 1, 0),
        )
        assert search_bases()[0] == PHYSICIST_LABELS

    def test_orthonormal(self, physicist):
        gram = physicist.basis.matrix.conj().T @ physicist.basis.matrix
        assert np.abs(gram - np.eye(9)).max() < 1e-10

    def test_pairwise_agreement_exactly_one(self, physicist):
        for a in range(9):
            for b in range(a + 1, 9):
                pair = zip(physicist.labels[a], physicist.labels[b])
                assert sum(x == y for x, y in pair) == 1

    def test_stores_label_tuples_of_any_integer_array(self):
        labels = PhysicistBasis(np.array(PHYSICIST_LABELS, dtype=np.uint8)).labels
        assert labels == PHYSICIST_LABELS
        assert all(type(k) is int for label in labels for k in label)

    def test_rejects_clashing_labels(self):
        labels = ((0, 0, 0, 0), (0, 0, 1, 1)) + PHYSICIST_LABELS[2:]
        with pytest.raises(ContractViolation):
            PhysicistBasis(labels)

    def test_clash_message_names_the_first_pair(self):
        labels = PHYSICIST_LABELS[:7] + ((2, 1, 1, 1), PHYSICIST_LABELS[8])
        message = r"labels \(0, 0, 0, 0\) and \(2, 1, 1, 1\) agree in 0 coordinates"
        with pytest.raises(ContractViolation, match=message + ", want exactly 1"):
            PhysicistBasis(labels)


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
        # measure-collapse-measure sequence draw for draw, with the basis
        # read off one stream and both draws off a second
        indices = [*range(100), *range(2**40 - 50, 2**40 + 50)]
        for seed, i in itertools.product((0, 2024, 2**64 - 1), indices):
            m = round_stream(seed, i).bit_generator.random_raw() & 3
            gen = round_stream(seed, i)
            k, collapsed = king_measure(prepare_psi0(), m, gen)
            j = sample_outcome(born_probabilities(collapsed, physicist.basis), gen)
            record = run_round(None, round_stream(seed, i))
            assert (record.king_basis, record.king_outcome, record.physicist_outcome) == (m, k, j)

    def test_stream_is_numpys_keyed_philox(self):
        # index i starts at counter block i >> 1, past its first two words
        # when i is odd, up to 2**64 - 1, and no cast on the way warns
        seeds = (0, 7, 2**63, 2**64 - 1)
        indices = (0, 1, 2**40, 2**63 - 1, 2**63 + 1, 2**64 - 1024, 2**64 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed, i in itertools.product(seeds, indices):
                ours = round_stream(seed, i).bit_generator
                numpys = np.random.Philox(key=seed, counter=i >> 1)
                numpys.random_raw(2 * (i & 1))
                # key, counter, buffer and buffer position, all in one dict
                state, expected = ({**s.pop("state"), **s} for s in (ours.state, numpys.state))
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
            np.random.Philox(key=3, counter=2**39)).random()

    @pytest.mark.parametrize("request_", [(4, np.uint64), (2, np.uint32), (1, np.uint64)])
    def test_stream_key_refuses_other_requests(self, request_):
        with pytest.raises(RuntimeError, match="expected 2 of uint64"):
            protocol._PhiloxKey(1).generate_state(*request_)

    def test_stream_key_is_a_seed_sequence_once_a_stream_is_made(self):
        # the first round_stream call registers the key type with numpy
        round_stream(0, 0)
        assert isinstance(protocol._PhiloxKey(1), ISeedSequence)

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


class TestRoundRecordContract:
    FIELDS = ("king_basis", "king_outcome", "physicist_outcome", "inferred", "success",
              "seed", "round_index")
    VALUES = (2, 1, 7, 1, True, 9, 4095)
    RECORD = RoundRecord(*VALUES)

    def test_fields_order_and_defaults(self):
        params = inspect.signature(RoundRecord).parameters.values()
        assert tuple(p.name for p in params) == self.FIELDS
        assert [p.default for p in params] == [inspect.Parameter.empty] * 5 + [None, None]

    def test_repr(self):
        assert repr(self.RECORD) == (
            "RoundRecord(king_basis=2, king_outcome=1, physicist_outcome=7, inferred=1, "
            "success=True, seed=9, round_index=4095)"
        )

    def test_equality_and_hash_are_field_wise(self):
        same = RoundRecord(2, 1, 7, 1, True, seed=9, round_index=4095)
        assert same == self.RECORD and hash(same) == hash(self.RECORD)
        assert len({same, self.RECORD}) == 1
        assert RoundRecord(2, 1, 7, 1, True) == RoundRecord(2, 1, 7, 1, True, None, None)
        for name, value in (("physicist_outcome", 6), ("seed", None), ("round_index", 4094)):
            assert RoundRecord(**dict(zip(self.FIELDS, self.VALUES), **{name: value})) != self.RECORD

    @pytest.mark.parametrize("name", ["king_outcome", "seed"])
    def test_is_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(self.RECORD, name, 0)

    def test_is_a_tuple_of_its_fields(self):
        assert RoundRecord._fields == self.FIELDS
        assert self.RECORD == self.VALUES and hash(self.RECORD) == hash(self.VALUES)
        with pytest.raises(AttributeError):
            self.RECORD.extra = 0

    def test_pickles(self):
        again = pickle.loads(pickle.dumps(self.RECORD))
        assert type(again) is RoundRecord and again == self.RECORD


class TestRoundChunks:
    ROUNDS = CHUNK_ROUNDS + 2

    @pytest.mark.parametrize("basis", [None, 0, 3])
    def test_lone_rounds_match_the_batch_across_the_chunk_seam(self, basis):
        n, seed = self.ROUNDS, 99
        records = simulate_rounds(n, seed, basis)
        assert len(records) == n
        # 4095 is the last round of the benchmark's replay batch
        for i in (0, 4095, CHUNK_ROUNDS - 1, CHUNK_ROUNDS, CHUNK_ROUNDS + 1, n - 1):
            lone = run_round(basis, round_stream(seed, i), seed=seed, round_index=i)
            assert type(lone) is type(records[i]) is RoundRecord
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
        # rounds 0 and n - 1 replayed alone match their bins across the seam
        assert report["pass"] is True

    def test_batch_and_lone_paths_agree_on_cdf_boundaries(self):
        # words on, just below and just above both word constants and every
        # former float threshold, where a < / <= slip or an off-by-one in the
        # shift would split the paths; each round is also mapped by the exact
        # rational cdf.  The king's word carries each basis m in its low two
        # bits, which move no word across an edge: every edge has zero low
        # 11 bits
        edges = {protocol.ONE_THIRD, protocol.TWO_THIRDS}
        edges.update(itertools.chain.from_iterable(former_thresholds()))
        near = sorted({e + d for e in edges for d in (-2048, -1, 0, 1)})
        rows = [[w0 & ~3 | m, w1] for m in range(4) for w0 in near for w1 in near]
        expected = [exact_round(w0, w1) for w0, w1 in rows]
        words = np.array(rows, dtype=np.uint64)
        outcomes = protocol.round_outcomes()
        assert {k for _, k, *_ in expected} == {0, 1, 2}
        assert outcomes[protocol._map_words(words, None)].tolist() == expected
        assert as_lists(run_round(None, Draw(*row)) for row in rows) == expected
        for m in range(4):
            forced = outcomes[protocol._map_words(words[(words[:, 0] & 3) == m], m)]
            assert forced.tolist() == [e for e in expected if e[0] == m]

    def test_float_path_moves_rounds_only_in_named_windows(self):
        # sample_outcome on a float Born vector reaches a cdf step at the
        # former threshold, the engine at the exact word constant; between
        # the two (the other word in the middle of a third) a round moves
        # from the float path's bin to the engine's.  Each entry is
        # (float bin, engine bin, window width in words).
        word = np.random.Philox(key=3).random_raw()
        assert Draw(word).random() == np.random.Generator(np.random.Philox(key=3)).random()
        psi0, kets = prepare_psi0(), build_qutrit_mubs().matrices
        physicist = brackets.build_physicist_basis().basis
        outcomes = [tuple(row) for row in protocol.round_outcomes()[:, :3].tolist()]
        middle = [(2 * i + 1) * 2**64 // 6 for i in range(3)]

        def float_bin(m, w1, w2):
            k = sample_outcome(protocol._king_born(psi0, kets[m]), Draw(w1))
            born = born_probabilities(forced_collapse(m, k)[1], physicist)
            return outcomes.index((m, k, sample_outcome(born, Draw(w2))))

        def bins(row, w):
            m, k = (row, 0) if row < 4 else divmod(row - 4, 3)
            w1, w2 = (w, middle[0]) if row < 4 else (middle[k], w)
            # the king's word names basis m in its low two bits, which no
            # uniform reads
            w1 = w1 & ~3 | m
            engine = protocol._map_words(np.array([[w1, w2]], dtype=np.uint64), None)
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
        # king basis 0's second step, then collapse rows 0 to 3, 4 (both
        # steps), 5, 6 (both), 8 (both), 9, 10 (both) and 11: at most
        # 2 * 2**11 words each
        assert moved == [
            (6, 3, 2048),
            (2, 1, 2048), (5, 4, 2048), (8, 7, 2048), (11, 10, 2048), (13, 12, 2048),
            (14, 13, 4096), (17, 16, 2048), (19, 18, 4096), (20, 19, 4096), (25, 24, 2048),
            (26, 25, 4096), (29, 28, 2048), (31, 30, 4096), (32, 31, 4096),
            (35, 34, 2048),
        ]

    @given(*[st.one_of(
        st.integers(0, 2**64 - 1),
        st.tuples(st.sampled_from([protocol.ONE_THIRD, protocol.TWO_THIRDS]),
                  st.integers(-(2**12), 2**12)).map(sum),
    )] * 2)
    def test_mapping_follows_the_exact_rule(self, w0, w1):
        words = np.array([[w0, w1]], dtype=np.uint64)
        for basis in (None, 0, 1, 2, 3):
            expected = exact_round(w0, w1, basis)
            assert as_lists([run_round(basis, Draw(w0, w1))]) == [expected]
            batch = protocol.round_outcomes()[protocol._map_words(words, basis)]
            assert batch.tolist() == [expected]

    @pytest.mark.parametrize("probs", [[0.5, 0.5, 0.0], [0.25] * 4, [1.0], [0.3, 0.3, 0.4]])
    def test_engine_rows_need_three_outcomes(self, probs):
        _, count, worst = protocol._thirds(np.array([probs]))
        assert count[0] != 3 or worst[0] >= TOL

    def test_engine_rows_keep_the_outcomes_of_a_third(self):
        possible, count, worst = protocol._thirds(np.array([[0, 1 / 3, 0, 1 / 3, 1 / 3]]))
        assert np.flatnonzero(possible[0]).tolist() == [1, 3, 4]
        assert count.tolist() == [3] and worst[0] < TOL

    def test_lone_rounds_read_the_engine_table_row_for_row(self):
        rows = protocol._round_rows()
        assert list(map(list, rows)) == protocol.round_outcomes().tolist()
        assert _holds_only_ints(rows)

    def test_engine_build_certifies_the_collapse_rows(self, monkeypatch):
        monkeypatch.setattr(protocol, "_collapse_born", lambda pb: np.full((12, 9), 1 / 9))
        with pytest.raises(RuntimeError, match=r"collapse \(m=0, k=0\) has outcome probabilities"):
            protocol._round_engine.__wrapped__()

    def test_engine_build_certifies_the_king_rows(self, monkeypatch):
        monkeypatch.setattr(protocol, "_king_born",
                            lambda psi0, matrices: np.tile([0.3, 0.3, 0.4], (4, 1)))
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


class TestLoneAndBatchRoundsAgree:
    """The agreements the benchmark's own output checks rest on, at spread
    seeds and at even and odd indices from the first rounds to the last
    counter word: a lone round is its batch record, its measured replay
    and its round on an in-order stream, in any order."""

    SEEDS = [*map(random.Random(48).randrange, [2**64] * 24), 2**63, 2**64 - 1]
    BATCH = 4096
    INDICES = (0, 1, 2, 3, 14, 15, 4094, 4095, 2**40, 2**40 + 1,
               2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lone_rounds_are_batch_and_measured_rounds(self, seed):
        batch = simulate_rounds(self.BATCH, seed)
        for i in self.INDICES:
            lone = run_round(None, round_stream(seed, i), seed=seed, round_index=i)
            if i < self.BATCH:
                assert lone == batch[i], (seed, i)
            assert protocol._measured_round(seed, i) == lone[:3], (seed, i)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_an_in_order_stream_replays_in_reverse(self, seed):
        for start in (0, 1, 2**40 + 1, 2**64 - 5):
            stream = round_stream(seed, start)
            forward = [run_round(None, stream, seed=seed, round_index=i)
                       for i in range(start, start + 5)]
            backward = [run_round(None, round_stream(seed, i), seed=seed, round_index=i)
                        for i in reversed(range(start, start + 5))]
            assert forward == backward[::-1], (seed, start)

    @pytest.mark.parametrize("rounds", [1, 2, 3, 16, 17, CHUNK_ROUNDS + 1])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_simulate_reports_pass_the_benchmark_checks(self, rounds, seed):
        report = cli.run(cli.RunConfig("simulate", rounds=rounds, seed=seed))
        assert perfbench_checks().simulate_failures(report, rounds) == (0, [])


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
        # lone rounds read the wrong table too, through a cache of their own
        fresh = functools.lru_cache(protocol._round_rows.__wrapped__)
        monkeypatch.setattr(protocol, "_round_rows", fresh)
        check = self.replay_check()
        assert not check.passed
        assert check.max_deviation > 0

    def test_catches_a_wrong_lone_round(self, monkeypatch):
        original = protocol.run_round

        def wrong(*args, **kwargs):
            record = original(*args, **kwargs)
            return record._replace(physicist_outcome=(record.physicist_outcome + 1) % 9)

        monkeypatch.setattr(protocol, "run_round", wrong)
        check = self.replay_check()
        assert not check.passed
        assert check.max_deviation == protocol.REPLAY_CHECK_ROUNDS

    @pytest.mark.parametrize("name, fragment, replacement", [
        # a lone round that reads the physicist's word as the king's
        ("run_round", "9 * m + 3 * k + jb", "9 * m + 3 * jb + k"),
        # round i on counter word 1 instead of word 0: block 0 is unchanged,
        # so a batch still starts right
        ("round_stream", "counter[0] = index", "counter[1] = index"),
    ])
    def test_catches_a_mutated_lone_path(self, name, fragment, replacement):
        with mutated(protocol, name, fragment, replacement):
            check = self.replay_check()
        assert not check.passed
        assert self.replay_check().passed

    def test_replays_take_the_explicit_path(self, monkeypatch):
        # round 0 on the public lone path: one collapse, one physicist Born
        # vector and two draws.  The other rounds are measured all at once,
        # by a stack that reads none of the engine (see test_source.py), and
        # every measured round is retrodicted by infer
        calls = collections.Counter()
        for name in ("project_and_normalize", "born_probabilities", "sample_outcome", "infer"):
            def counted(*args, _name=name, _original=getattr(protocol, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(protocol, name, counted)
        assert all(c.passed for c in protocol.invariant_checks())
        assert calls == {"project_and_normalize": 1, "born_probabilities": 1,
                         "sample_outcome": 2, "infer": protocol.REPLAY_CHECK_ROUNDS}

    def test_replayed_rounds_cover_every_king_basis(self):
        # the fact REPLAY_CHECK_ROUNDS states, on the measured stack and on
        # the engine: 4 bases, 10 of the 12 collapses and 15 of the 36 bins
        measured = protocol._measured_rounds(0, protocol.REPLAY_CHECK_ROUNDS)
        engine = as_lists(simulate_rounds(protocol.REPLAY_CHECK_ROUNDS, 0))
        assert measured.tolist() == [row[:3] for row in engine]
        assert set(measured[:, 0].tolist()) == {0, 1, 2, 3}
        assert len({(m, k) for m, k, _ in measured.tolist()}) == 10
        assert len(set(map(tuple, measured.tolist()))) == 15

    @pytest.mark.parametrize("seed", [0, 2024, 2**64 - 1])
    def test_measured_stack_equals_the_lone_path(self, seed):
        rounds = 4096
        lone = [list(protocol._measured_round(seed, i)) for i in range(rounds)]
        assert protocol._measured_rounds(seed, rounds).tolist() == lone


def assert_rows_sample_as_lone(rows):
    """linalg._sample_rows on a stack of equal-length probability rows picks
    sample_outcome's outcome at draws just below, at and just above every
    cdf step of each row, and at 0 and the largest uniform."""
    for row in rows:
        _, cdf = numpy_distribution(row)
        draws = [u for c in cdf for u in (np.nextafter(c, -1.0), c, np.nextafter(c, 2.0))
                 if u < 1.0] + [0.0, np.nextafter(1.0, 0.0)]
        stack = np.tile(np.asarray(row, dtype=float), (len(draws), 1))
        picked = linalg._sample_rows(stack, np.array(draws)).tolist()
        assert picked == [sample_outcome(row, Uniform(u)) for u in draws]
    # every row of one stack with one draw each, too
    draws = np.random.default_rng(len(rows)).random(len(rows))
    want = [sample_outcome(row, Uniform(u)) for row, u in zip(rows, draws)]
    assert linalg._sample_rows(np.array(rows, dtype=float), draws).tolist() == want


class TestStackedSampling:
    """linalg._sample_rows draws each row of a stack as sample_outcome draws
    it alone, on the vectors TestLeanSampling checks against numpy."""

    def test_engine_rows(self):
        rows = float_rows()
        assert_rows_sample_as_lone(rows[:4])  # the king's rows
        assert_rows_sample_as_lone(rows[4:])  # the physicist's, after each collapse

    @pytest.mark.parametrize("size", [8, 9])
    def test_eight_and_nine_weights(self, size):
        # eight or more kept weights are summed pairwise, as numpy's .sum() does
        rows = []
        for seed in range(100):
            weights = np.random.default_rng(seed).random(size)
            rows.append(weights / weights.sum())
        assert_rows_sample_as_lone(rows)

    def test_dropped_entries_weigh_nothing(self):
        # entries below TOL, of either sign, anywhere in the row
        rows = [[0.0, 0.5, -1e-11, 0.5], [0.25, 5e-11, 0.75, 0.0], [1e-11, 0.0, -0.0, 1.0]]
        assert_rows_sample_as_lone(rows)

    def test_three_kept_of_nine_sum_left_to_right(self):
        # a pairwise sum over the nine entries adds 0.1 + (0.2 + 0.7), one ulp
        # below the running sum (0.1 + 0.2) + 0.7 that sample_outcome takes
        row = [0.0, 0.0, 0.0, 0.1, 0.2, 0.7, 0.0, 0.0, 0.0]
        assert np.sum(row) != (0.1 + 0.2) + 0.7
        assert_rows_sample_as_lone([row])


def numpy_distribution(probs):
    """sample_outcome's distribution as numpy reductions used to find it:
    (outcome indices, cdf), or the same ContractViolation."""
    try:
        v = np.asarray(probs)
    except ValueError:
        raise ContractViolation("probabilities must form a regular array") from None
    if v.ndim != 1 or v.dtype.kind not in "biuf":
        raise ContractViolation(
            f"probabilities must be a 1-d array of numbers, got shape {v.shape} of dtype {v.dtype}"
        )
    p = v.astype(float)
    if p.size == 0 or not np.all(np.isfinite(p)):
        raise ContractViolation("probabilities must be a finite non-empty sequence")
    if p.min() < -TOL or abs(p.sum() - 1.0) > TOL:
        raise ContractViolation(f"malformed distribution: min {p.min():.3e}, sum {p.sum():.12f}")
    keep = np.flatnonzero(p >= TOL)
    weights = p[keep]
    return keep, np.cumsum(weights / weights.sum())


def assert_agrees_with_numpy(probs):
    """The same ContractViolation message as numpy_distribution, or the
    same draws."""
    try:
        numpy_distribution(probs)
    except ContractViolation as want:
        with pytest.raises(ContractViolation, match=re.escape(str(want))):
            sample_outcome(probs, Uniform(0.5))
    else:
        assert_samples_as_numpy(probs)


def assert_samples_as_numpy(probs):
    """sample_outcome picks numpy_distribution's outcome at draws just below,
    at and just above every cdf step, so a cdf one ulp off shows, and at 0
    and the largest uniform; a lone draw is a Python int."""
    keep, cdf = numpy_distribution(probs)
    draws = [u for c in cdf for u in (np.nextafter(c, -1.0), c, np.nextafter(c, 2.0)) if u < 1.0]
    draws += [0.0, np.nextafter(1.0, 0.0)]
    picked = keep[np.minimum(np.searchsorted(cdf, draws, side="right"), len(keep) - 1)].tolist()
    lone = [sample_outcome(probs, Uniform(u)) for u in draws]
    assert lone == picked and {type(k) for k in lone} == {int}
    assert sample_many(probs, Uniform(*draws), len(draws)).tolist() == picked


# mostly valid distributions: weights normalized, with entries within TOL of
# zero (either sign) left as they are
small_entries = st.one_of(st.floats(-TOL, TOL), st.just(0.0), st.just(-0.0))
distributions = st.lists(st.one_of(st.floats(1e-3, 1.0), small_entries), min_size=1, max_size=9)


class TestLeanSampling:
    """sample_outcome, one vector at a time, must agree with the numpy
    reference numpy_distribution, bit for bit and message for message."""

    @pytest.mark.parametrize("row", range(16))
    def test_engine_rows(self, row):
        assert_samples_as_numpy(float_rows()[row])

    @pytest.mark.parametrize("size", [8, 9])
    def test_eight_and_nine_weights(self, size):
        # numpy sums eight or more weights pairwise, not left to right
        for seed in range(100):
            weights = np.random.default_rng(seed).random(size)
            assert_samples_as_numpy(weights / weights.sum())

    @given(distributions)
    def test_short_vectors(self, entries):
        total = sum(x for x in entries if x >= TOL) or 1.0
        assert_agrees_with_numpy([x / total if x >= TOL else x for x in entries])

    @pytest.mark.parametrize("probs", [
        [np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], [-0.2, 1.2], [0.5, 0.6], [0.5, 0.4],
        [], [[0.5, 0.5]], [[1.0], [0.5, 0.5]], np.array([0.5 + 0j, 0.5]), "ab", ["a", "b"],
        [None, 1.0], [0.5, -0.0, 0.0] * 3, [-0.0] * 9, [0.0] * 2, [2, -1], [True, True],
        [1e-11] * 9, [0.1] * 9 + [0.1 - 2e-10],
        # numpy's pairwise sum is 1 + 1.0000001e-10, a left-to-right one 1 + 9.999978e-11
        [0.13937792765628781, 0.05903386937565211, 0.008965695998011745,
         0.00361652456219005, 0.1779572032968058, 0.1997262680921799,
         0.13274210818469523, 0.1596261138671538, 0.11895428906702353],
    ])
    def test_bad_vectors_raise_the_same_message(self, probs):
        with pytest.raises(ContractViolation) as want:
            numpy_distribution(probs)
        with pytest.raises(ContractViolation) as got:
            sample_outcome(probs, Uniform(0.5))
        assert str(got.value) == str(want.value)

    @given(st.lists(st.one_of(st.floats(-2.0, 2.0), small_entries), min_size=1, max_size=9))
    def test_raw_vectors_agree(self, probs):
        assert_agrees_with_numpy(probs)


class TestExhaustiveVerify:
    def test_built_in_basis_passes(self):
        check = exhaustive_verify()
        assert check.name == "retrodiction-certainty"
        assert check.passed
        assert check.max_deviation < 1e-10

    def test_every_searched_set_retrodicts_with_certainty(self):
        # Hayashi, Horibe and Hashimoto: each orthogonal-Latin-square label
        # set is a physicist basis that names the king's outcome
        for labels in search_bases():
            check = exhaustive_verify(PhysicistBasis(labels))
            assert check.passed, labels
            assert check.max_deviation < 1e-10, labels

    def test_swapped_labels_fail_with_offending_tuple(self, doctored_trios):
        # trio 1's rows moved one place on: collapse (1, k) is the true
        # (1, k + 1), so each of its outcomes names k + 1.  Every collapse
        # still gives three outcomes of 1/3: only the inference fails
        check = exhaustive_verify()
        assert not check.passed
        assert check.max_deviation < TOL


class TestSearchBases:
    def test_positions_and_labels_are_one_derivation(self):
        positions, labels = brackets._search()
        assert labels is search_bases()
        assert positions.dtype == np.intp and positions.shape == (72, 9)
        assert np.array_equal(brackets._label_index(labels, 2), positions)
        assert np.array_equal(brackets._label_digits(), ALL_LABELS)

    def test_one_of_each_is_numpys_unique_rows(self):
        # the 648 translates of the 8 sets through label 0 by the 81 digit
        # vectors hold each of the 72 sets nine times, once per member
        through_zero = [s for s in search_bases() if s[0] == (0, 0, 0, 0)]
        assert len(through_zero) == 8
        digits = np.array(ALL_LABELS)
        rows = ((digits[None] + np.array(through_zero)[:, :, None]) % 3) @ (27, 9, 3, 1)
        rows = np.sort(rows.transpose(0, 2, 1).reshape(648, 9), axis=1)
        unique, counts = np.unique(rows, axis=0, return_counts=True)
        assert np.array_equal(brackets._search()[0], unique)
        assert counts.tolist() == [9] * 72

    def test_coverage_counts_sets_out_of_order(self, monkeypatch):
        # the sets listed in reverse: each of the 71 adjacent pairs that does
        # not strictly increase adds one to search-coverage's deviation
        positions, labels = brackets._search()
        monkeypatch.setattr(brackets, "_search", lambda: (positions, labels[::-1]))
        coverage = {c.name: c for c in brackets.search_report()[0]}["search-coverage"]
        assert (coverage.passed, coverage.max_deviation) == (False, 71.0)

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
                    assert law_overlap(labels[a], labels[b]) == 0.0

    def test_agreement_is_invariant_under_every_digit_shift(self):
        # the search's one premise: adding one digit vector mod 3 to both
        # labels keeps their agreement, so translates of a set are sets
        digits = np.array(ALL_LABELS)
        shifted = ((digits + digits[:, None]) % 3) @ (27, 9, 3, 1)  # shifted[s, i]: label i + s
        agreement = brackets.agreement_matrix()
        assert shifted.shape == (81, 81)
        assert (agreement[shifted[:, :, None], shifted[:, None, :]] == agreement).all()
