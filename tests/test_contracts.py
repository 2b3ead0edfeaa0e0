"""Bad input at a public entry point raises ContractViolation (or, for a
projection onto nothing, ImpossibleOutcome), never a raw Python or numpy
error."""

import copy
import gc
import inspect
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import retroking
from retroking import (
    Check,
    ContractViolation,
    DensityMatrix,
    ImpossibleOutcome,
    MubSet,
    PHYSICIST_LABELS,
    OrthonormalBasis,
    PhysicistBasis,
    ProbabilityTable,
    RoundRecord,
    StateVector,
    TOL,
    born_probabilities,
    bracket_state,
    build_qutrit_mubs,
    certify_unbiasedness,
    density_from_probabilities,
    exhaustive_verify,
    infer,
    inner_product,
    king_measure,
    prepare_psi0,
    probabilities_from_density,
    probability_map_rank,
    project_and_normalize,
    random_density_matrix,
    round_stream,
    run_round,
    sample_outcome,
    simulate_rounds,
)
from retroking import linalg, mub
from retroking.cli import RunConfig, run
from retroking.protocol import CHUNK_ROUNDS, round_chunks
from retroking.reporting import within

from conftest import Uniform


@pytest.mark.parametrize(
    "call",
    [
        lambda: StateVector([[1, 0], [0, 0]]),
        lambda: StateVector("x"),
        lambda: StateVector(np.array([1e200 + 1e200j, 0, 0])),
        lambda: inner_product(1, qutrit),
        lambda: born_probabilities("x", OrthonormalBasis(tuple(map(StateVector, np.eye(9))))),
        lambda: born_probabilities(prepare_psi0(), [1]),
        lambda: project_and_normalize(1, qutrit),
        lambda: OrthonormalBasis([1]),
        lambda: king_measure(1, 0, Uniform(0.5)),
        lambda: sample_outcome([1.0], None),
        lambda: sample_outcome("ab", np.random.default_rng(0)),
        lambda: random_density_matrix(None),
        lambda: exhaustive_verify("x"),
        lambda: Check(1, 2, "x"),
        lambda: Check(1, True, 0.0),
        lambda: probabilities_from_density(np.eye(3) / 3, 5),
        lambda: probability_map_rank(5),
        lambda: certify_unbiasedness(5),
        lambda: MubSet(5),
        lambda: MubSet(()),
        lambda: PhysicistBasis(1),
        lambda: PhysicistBasis([(0, 0, 0, 0), (0, 1, 1)]),
        lambda: Check("x", True, "0.1"),
        lambda: Check("x", True, 1j),
        lambda: Check("x", True, None),
        lambda: RunConfig("verify", format=np.array(["a", "b"])),
        lambda: RunConfig("verify", state=np.array(["a", "b"])),
        # a bool is not an index, though operator.index takes it
        lambda: infer(True, 0),
        lambda: RunConfig("simulate", rounds=True),
        # round i draws half of counter block i >> 1, and there are 2**64 rounds
        lambda: RunConfig("simulate", rounds=2**64 + 1),
        lambda: round_chunks(2**64 + 1, 0),
        lambda: within("x", "abc"),
        lambda: within("x", None),
        lambda: within("x", [[0.0], [0.0, 0.0]]),
        lambda: run("verify"),
        # indefinite, with entries whose squares overflow
        lambda: DensityMatrix([[1e200, 1e200, 0], [1e200, -1e200, 0], [0, 0, 1]]),
        # a pass reports a deviation below TOL
        lambda: Check("x", True, 1.0),
        lambda: Check("x", True, TOL),
        lambda: Check("x", True, float("nan")),
    ],
    ids=[
        "state-from-matrix", "state-from-str", "state-overflowed-norm", "inner-product-int",
        "born-str-state", "born-list-basis", "project-int-state", "basis-of-int",
        "king-measure-int-state", "sample-no-generator",
        "sample-str-probabilities", "random-density-no-generator", "exhaustive-verify-str",
        "check-ints-and-str", "check-int-name", "probabilities-int-mubs", "map-rank-int",
        "certify-int", "mub-set-int-bases", "mub-set-empty", "physicist-basis-ints",
        "label-sets-ragged",
        "check-str-deviation", "check-complex-deviation", "check-none-deviation",
        "run-config-array-format", "run-config-array-state",
        "infer-bool-basis", "run-config-bool-rounds",
        "run-config-rounds-past-blocks", "round-chunks-past-blocks",
        "within-str-deviation", "within-none-deviation", "within-ragged-deviation",
        "cli-run-str-config", "density-overflowing-pivot",
        "check-pass-off-tolerance", "check-pass-at-tolerance", "check-pass-nan",
    ],
)
def test_bad_arguments_are_contract_violations(call):
    with pytest.raises(ContractViolation):
        call()


def test_rounds_reach_the_last_counter_block():
    assert RunConfig("simulate", rounds=2**64).rounds == 2**64
    assert next(round_chunks(2**64, 0)).shape == (CHUNK_ROUNDS,)


def test_within_fails_an_empty_deviation():
    # an empty deviation measured nothing
    assert within("x", np.zeros(0)) == Check("x", False, 0.0)
    assert within("x", []) == Check("x", False, 0.0)


# Every entry point that takes an array of numbers from its caller, and the
# labels among them: linalg._numbers words each refusal.
ARRAY_ENTRY_POINTS = {
    "state": StateVector,
    "sample": lambda a: sample_outcome(a, np.random.default_rng(0)),
    "density": DensityMatrix,
    "table": ProbabilityTable,
    "density-stack": mub._check_densities,
    "bracket": bracket_state,
    "physicist-basis": PhysicistBasis,
    "within": lambda a: within("x", a),
    "check": lambda a: Check("x", False, a),
}
LABEL_ENTRY_POINTS = {"bracket", "physicist-basis"}


@pytest.mark.parametrize("name", list(ARRAY_ENTRY_POINTS))
@pytest.mark.parametrize(("value", "ending"), [
    ([[1, 0], [0]], "must form a regular array"),
    ([["a", "b"], ["c", "d"]], "got shape (2, 2) of dtype <U1"),
], ids=["ragged", "strings"])
def test_every_array_entry_point_refuses_in_one_form(name, value, ending):
    with pytest.raises(ContractViolation) as refused:
        ARRAY_ENTRY_POINTS[name](value)
    message = str(refused.value)
    assert message.endswith(ending), message
    assert message.startswith("bracket labels") == (name in LABEL_ENTRY_POINTS), message


# Candidate bracket labels and whether they are labels.
LABELS = {
    "tuple": ((0, 1, 2, 0), True),
    "list": ([0, 1, 2, 0], True),
    "uint8": (np.array([0, 1, 2, 0], dtype=np.uint8), True),
    "uint64": (np.array([0, 1, 2, 0], dtype=np.uint64), True),
    "bools": ((True, False, True, False), False),
    "bytes": (b"\x00\x01\x02\x00", False),
    "object-ints": (np.array([0, 1, 2, 0], dtype=object), False),
    "floats": ((0.0, 1.0, 2.0, 0.0), False),
    "string": ("0120", False),
    "digit-3": ((0, 1, 2, 3), False),
    "digit-minus-1": ((0, -1, 2, 0), False),
    "three-digits": ((0, 1, 2), False),
    "ragged": ([0, [1, 2], 0, 0], False),
    "bare-int": (7, False),
}


@pytest.mark.parametrize("name", list(LABELS))
def test_every_label_entry_point_gives_the_same_verdict(name):
    label, valid = LABELS[name]
    # nine equal labels clash, so a basis of them is refused either way: for
    # a label, by the orthogonality rule and not by the label rule
    verdicts = []
    for call in (lambda: bracket_state(label), lambda: PhysicistBasis([label] * 9)):
        try:
            call()
            verdicts.append(True)
        except ContractViolation as exc:
            verdicts.append(not str(exc).startswith("bracket labels"))
    assert verdicts == [valid] * 2


@pytest.mark.parametrize("count", [8, 10])
def test_physicist_basis_needs_nine_labels(count):
    with pytest.raises(ContractViolation, match="nine labelled"):
        PhysicistBasis((PHYSICIST_LABELS * 2)[:count])


def test_physicist_basis_rejects_a_one_shot_iterator():
    with pytest.raises(ContractViolation):
        PhysicistBasis(iter(PHYSICIST_LABELS))


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
label_shapes = st.one_of(
    st.sampled_from([(4,), (9, 4)]),
    st.integers(0, 3).map(lambda n: (n, 9, 4)),
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
    # near-valid bracket labels: one label, a basis, a stack of sets
    hnp.arrays(st.sampled_from([np.int8, np.int64]), label_shapes, elements=st.integers(-1, 3)),
    hnp.arrays(np.bool_, label_shapes),
)

qutrit = build_qutrit_mubs().bases[0][0]
# Each call's first global name is the entry point it fuzzes.  simulate_rounds
# keeps one round: junk integers run to 2**70.
ENTRY_POINTS = {
    "state": lambda a, b: StateVector(a),
    "inner-product": lambda a, b: inner_product(a, b),
    "inner-product-ket": lambda a, b: inner_product(qutrit, a),
    "born": lambda a, b: born_probabilities(a, b),
    "born-basis": lambda a, b: born_probabilities(prepare_psi0(), a),
    "project": lambda a, b: project_and_normalize(a, b),
    "project-vector": lambda a, b: project_and_normalize(prepare_psi0(), a),
    "basis": lambda a, b: OrthonormalBasis(a),
    "basis-of-two": lambda a, b: OrthonormalBasis([a, b]),
    "king-measure": lambda a, b: king_measure(a, b, Uniform(0.5)),
    "king-measure-generator": lambda a, b: king_measure(prepare_psi0(), 0, a),
    "bracket": lambda a, b: bracket_state(a),
    "sample": lambda a, b: sample_outcome(a, np.random.default_rng(0)),
    "sample-generator": lambda a, b: sample_outcome([0.5, 0.5], a),
    "random-density": lambda a, b: random_density_matrix(a),
    "exhaustive-verify": lambda a, b: exhaustive_verify(a),
    "infer": lambda a, b: infer(a, b),
    "check": lambda a, b: Check("x", a, b),
    "probabilities-mubs": lambda a, b: probabilities_from_density(np.eye(3) / 3, a),
    "map-rank": lambda a, b: probability_map_rank(a),
    "certify": lambda a, b: certify_unbiasedness(a),
    "mub-set": lambda a, b: MubSet(a),
    "physicist-basis": lambda a, b: PhysicistBasis(a),
    "density": lambda a, b: DensityMatrix(a),
    "table": lambda a, b: ProbabilityTable(a),
    "density-from-table": lambda a, b: density_from_probabilities(a, b),
    "round-stream": lambda a, b: round_stream(a, b),
    "run-round": lambda a, b: run_round(a, b),
    "simulate": lambda a, b: simulate_rounds(1, a, b),
    "run-config": lambda a, b: RunConfig(a, b),
    "run-config-format": lambda a, b: RunConfig("verify", format=a),
    "run-config-state": lambda a, b: RunConfig("verify", state=a),
    # a plain record of a computed round: it checks nothing, so any fields pass
    "round-record": lambda a, b: RoundRecord(a, b, 0, 0, True),
}

# Exports that take no arguments, so there is nothing to fuzz.
ARGUMENT_FREE = {
    "build_physicist_basis", "build_psi_basis", "build_qubit_mubs", "build_qutrit_mubs",
    "entangled_forms", "fourier_matrix", "prepare_psi0", "qutrit_basis_matrices",
    "search_bases", "trio_matrix",
}


# The package's one export list, pinned: adding or dropping an export is an
# edit here.
EXPORTS = [
    "ALL_LABELS", "Check", "ContractViolation", "DensityMatrix",
    "ImpossibleOutcome", "MubSet", "OMEGA", "OrthonormalBasis", "PHYSICIST_LABELS",
    "PhysicistBasis", "ProbabilityTable", "RoundRecord", "StateVector", "TOL",
    "born_probabilities", "bracket_state",
    "build_physicist_basis", "build_psi_basis", "build_qubit_mubs", "build_qutrit_mubs",
    "certify_unbiasedness", "density_from_probabilities", "entangled_forms",
    "exhaustive_verify", "fourier_matrix", "infer", "inner_product", "king_measure",
    "prepare_psi0", "probabilities_from_density",
    "probability_map_rank", "project_and_normalize", "qutrit_basis_matrices",
    "random_density_matrix",
    "round_stream", "run_round", "sample_outcome", "search_bases", "simulate_rounds",
    "trio_matrix",
]


def test_export_set_is_pinned():
    exports = sorted(
        name for name, value in vars(retroking).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exports == EXPORTS


def test_every_export_is_fuzzed_or_takes_no_arguments():
    exports = {
        name for name, value in vars(retroking).items()
        if callable(value) and not name.startswith("_")
        and not isinstance(value, types.GenericAlias)  # a type alias such as BracketLabel
        and not (isinstance(value, type) and issubclass(value, Exception))
    }
    fuzzed = {call.__code__.co_names[0] for call in ENTRY_POINTS.values()}
    assert exports - fuzzed - ARGUMENT_FREE == set()
    assert ARGUMENT_FREE <= exports
    for name in ARGUMENT_FREE:
        assert not inspect.signature(getattr(retroking, name)).parameters, name


# each entry point draws its own examples: shared among them, hypothesis's
# budget gave each about two, too few to reach a defect of one input kind
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=25)
@given(junk, junk)
def test_junk_at_each_entry_raises_only_contract_errors(name, a, b):
    try:
        ENTRY_POINTS[name](a, b)
    except (ContractViolation, ImpossibleOutcome):
        pass


# Each record type, built by keyword from its field names, with its fields
# in order: the names a frozen dataclass gave them.
RECORDS = {
    "StateVector": (lambda: StateVector(amps=[0, 1, 0]), ("amps",)),
    "OrthonormalBasis": (lambda: OrthonormalBasis(vectors=tuple(map(StateVector, np.eye(2)))),
                         ("vectors", "matrix")),
    "MubSet": (lambda: MubSet(bases=build_qutrit_mubs().bases),
               ("bases", "dim", "matrices", "projectors")),
    "DensityMatrix": (lambda: DensityMatrix(entries=np.eye(3) / 3), ("entries",)),
    "ProbabilityTable": (lambda: ProbabilityTable(values=np.full((4, 3), 1 / 3)), ("values",)),
    "PhysicistBasis": (lambda: PhysicistBasis(labels=PHYSICIST_LABELS), ("labels", "basis")),
    "Check": (lambda: Check(name="x", passed=True, max_deviation=5e-11),
              ("name", "passed", "max_deviation")),
    "RunConfig": (lambda: RunConfig(command="simulate", rounds=5, seed=1, basis=2,
                                    format="json", state="pure"),
                  ("command", "rounds", "seed", "basis", "format", "state")),
}

# The records that compare field by field, each with a twin that differs in one field.
VALUE_TWINS = {
    "Check": lambda: Check("x", False, 5e-11),
    "RunConfig": lambda: RunConfig("simulate", rounds=5, seed=2, basis=2, format="json",
                                   state="pure"),
}


def test_every_record_type_is_listed():
    assert {cls.__name__ for cls in linalg._Record.__subclasses__()} == set(RECORDS)


def _same(a, b):
    """Whether ``b`` holds what ``a`` does, field by field, all the way down;
    every array in ``b`` must be read-only."""
    if isinstance(a, linalg._Record):
        return type(a) is type(b) and all(map(_same, a._values(), b._values()))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
                and not b.flags.writeable)
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordContract:
    def test_keyword_construction_sets_the_named_fields(self, name):
        build, fields = RECORDS[name]
        record = build()
        assert type(record).__name__ == name and type(record).__slots__ == fields
        assert repr(record).startswith(f"{name}({fields[0]}=")

    def test_fields_can_be_neither_assigned_nor_deleted(self, name):
        build, fields = RECORDS[name]
        record = build()
        for field in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert _same(build(), record)

    @pytest.mark.parametrize("again", [
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
        copy.deepcopy,
        copy.copy,
    ], ids=["pickle", "pickle-protocol-0", "deepcopy", "copy"])
    def test_round_trips(self, name, again):
        record = RECORDS[name][0]()
        assert _same(record, again(record))

    def test_equality(self, name):
        build = RECORDS[name][0]
        record, twin = build(), build()
        assert record == record
        if name in VALUE_TWINS:
            assert record == twin and hash(record) == hash(twin)
            assert record != VALUE_TWINS[name]()
            # a tuple of the same fields is another type, not an equal record
            assert record.__eq__(record._values()) is NotImplemented
            assert record != record._values()
        else:
            assert record != twin


def test_records_freeze_only_their_own_arrays():
    # _Record.__init__ marks every array a record stores read-only; each record
    # stores a copy of what its caller handed it, so the caller's stays writable
    amps, entries, values = np.array([0j, 1, 0]), np.eye(3) / 3, np.full((4, 3), 1 / 3)
    state, rho, table = StateVector(amps), DensityMatrix(entries), ProbabilityTable(values)
    assert all(a.flags.writeable for a in (amps, entries, values))
    assert not any(a.flags.writeable for a in (state.amps, rho.entries, table.values))

    class Holder(linalg._Record):
        __slots__ = ("array", "label")

    given = np.zeros(2)
    holder = Holder(given, "x")
    assert holder.array is given and not given.flags.writeable and holder.label == "x"
    del Holder, holder
    gc.collect()  # so _Record.__subclasses__() lists only the package's records again
