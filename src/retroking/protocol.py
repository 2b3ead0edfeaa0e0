"""The two-atom retrodiction protocol.

One party (the king) measures one of the four complementary spin-1
observables on a given atom; the other (the physicist) must later name the
result without having been told which observable was measured.  She wins
with certainty by entangling the given atom with an auxiliary one before
the king's measurement and by measuring, afterwards, a basis of nine
two-atom "bracket" states |[k0 k1 k2 k3]> engineered so that outcome j is
impossible unless the king's result in basis m was label_j[m].

Index conventions: the given atom is the left tensor factor; two-atom
amplitudes sit at flat index 3*i + j.  The king's basis choices are
m = 0..3, outcomes k = 0..2, physicist outcomes j = 0..8.
"""

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .linalg import (
    TOL,
    ContractViolation,
    OrthonormalBasis,
    StateVector,
    _as_basis,
    _as_state,
    _index,
    _readonly,
    born_probabilities,
    inner_product,
    project_and_normalize,
    sample_outcome,
    tensor_product,
)
from .mub import OMEGA, build_qutrit_mubs, fourier_matrix
from .reporting import Check

BracketLabel = tuple[int, int, int, int]

# Auxiliary-atom basis paired with each given-atom basis in the entangled
# preparation, and the paired outcome within that basis.
PARTNER_BASIS = (0, 2, 1, 3)


def partner_outcome(m: int, k: int) -> int:
    return k if m < 3 else (-k) % 3


# Labels of the reference physicist basis, P_0 .. P_8.  Any two agree in
# exactly one coordinate, which is precisely the orthogonality criterion
# for bracket states.
PHYSICIST_LABELS: tuple[BracketLabel, ...] = (
    (0, 0, 0, 0),
    (0, 1, 1, 1),
    (0, 2, 2, 2),
    (1, 0, 1, 2),
    (1, 1, 2, 0),
    (1, 2, 0, 1),
    (2, 0, 2, 1),
    (2, 1, 0, 2),
    (2, 2, 1, 0),
)

ALL_LABELS: tuple[BracketLabel, ...] = tuple(itertools.product((0, 1, 2), repeat=4))


def _check_label(label) -> BracketLabel:
    try:
        lab = tuple(map(operator.index, label))
    except TypeError:
        raise ContractViolation(f"bad bracket label {label!r}") from None
    if len(lab) != 4 or any(k not in (0, 1, 2) for k in lab):
        raise ContractViolation(f"bad bracket label {label!r}")
    return lab


def label_agreement(a: BracketLabel, b: BracketLabel) -> int:
    """Number of coordinates where two labels coincide."""
    return sum(x == y for x, y in zip(_check_label(a), _check_label(b)))


def _agreements(labels: np.ndarray) -> np.ndarray:
    """Pairwise label agreement counts of the rows of an n x 4 label array."""
    return (labels[:, None] == labels[None]).sum(axis=-1)


@lru_cache(maxsize=None)
def label_matrix() -> np.ndarray:
    """ALL_LABELS as a read-only 81 x 4 int8 array; row i is ALL_LABELS[i]."""
    return _readonly(np.array(ALL_LABELS, dtype=np.int8))


@lru_cache(maxsize=None)
def agreement_matrix() -> np.ndarray:
    """81 x 81 read-only: entry (i, j) is label_agreement(ALL_LABELS[i], ALL_LABELS[j])."""
    return _readonly(_agreements(label_matrix()))


@lru_cache(maxsize=None)
def _compatible_masks() -> tuple[int, ...]:
    """Bit j of entry i is set when labels i and j agree in exactly one coordinate."""
    return tuple(
        sum(1 << j for j in np.flatnonzero(row == 1).tolist()) for row in agreement_matrix()
    )


@lru_cache(maxsize=None)
def prepare_psi0() -> StateVector:
    """The entangled two-atom preparation.

    Written in the reference basis it is 3**-0.5 times the sum of the three
    doubly-occupied kets (flat indices 0, 4, 8); summing any basis's trio
    reproduces the very same vector, see ``entangled_forms``.
    """
    amps = np.zeros(9, dtype=np.complex128)
    amps[[0, 4, 8]] = 3**-0.5
    return StateVector(amps)


@dataclass(frozen=True, eq=False)
class TrioTable:
    """The 4 trios of possible two-atom states after the king's measurement.

    ``states[m][k]`` is the product of the given atom's |m_k> with the
    auxiliary atom's partner ket.  Within fixed m the three members are
    mutually orthogonal.
    """

    states: tuple[tuple[StateVector, StateVector, StateVector], ...]

    def state(self, m: int, k: int) -> StateVector:
        return self.states[m][k]


@lru_cache(maxsize=None)
def trio_table() -> TrioTable:
    mubs = build_qutrit_mubs()
    rows = []
    for m in range(4):
        partner = mubs.bases[PARTNER_BASIS[m]]
        rows.append(
            tuple(
                tensor_product(mubs.bases[m][k], partner[partner_outcome(m, k)])
                for k in range(3)
            )
        )
    return TrioTable(tuple(rows))


def entangled_forms() -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """One decomposition of the preparation per king basis: the normalized
    sum of each trio.  All four come out as the same vector."""
    trios = trio_table()
    return tuple(
        StateVector(sum(trios.state(m, k).amps for k in range(3)) / np.sqrt(3))
        for m in range(4)
    )


@lru_cache(maxsize=None)
def build_psi_basis() -> OrthonormalBasis:
    """Nine orthonormal two-atom states underlying the bracket construction.

    Index 0 is the entangled preparation itself; indices 2m+1 and 2m+2 are
    obtained by undoing the Fourier-type mixing on the trio of basis m, so
    that each trio equals (psi_0, psi_2m+1, psi_2m+2) times the mixing
    matrix, exactly and not merely up to phase.
    """
    mixing = fourier_matrix()
    trios = trio_table()
    psi0 = prepare_psi0().amps
    columns = [psi0] + [None] * 8
    for m in range(4):
        t = np.stack([trios.state(m, k).amps for k in range(3)], axis=1)
        unmixed = t @ mixing.conj().T
        drift = np.abs(unmixed[:, 0] - psi0).max()
        if drift >= TOL:
            raise RuntimeError(f"trio {m} un-mixes to a shared column off psi_0 by {drift:.3e}")
        columns[2 * m + 1] = unmixed[:, 1]
        columns[2 * m + 2] = unmixed[:, 2]
    return OrthonormalBasis(tuple(StateVector(c) for c in columns))


def _bracket_coefficients(labels: np.ndarray) -> np.ndarray:
    """9 x n coefficients over the psi basis of the bracket states of the rows
    of an n x 4 label array: row 0 is 1/3, rows 2m+1 and 2m+2 are
    OMEGA**(+-k_m) / 3 (the two are conjugates)."""
    coefficients = np.empty((9, len(labels)), dtype=np.complex128)
    coefficients[0] = 1.0 / 3.0
    coefficients[1::2] = OMEGA**labels.T / 3.0
    coefficients[2::2] = coefficients[1::2].conj()
    return coefficients


def bracket_state(label, basis: OrthonormalBasis | None = None) -> StateVector:
    """The two-atom state |[k0 k1 k2 k3]>.

    It is orthogonal to every trio member except the one with outcome k_m
    in each basis m, where the overlap has magnitude 3**-0.5.
    """
    lab = _check_label(label)
    psi = build_psi_basis() if basis is None else _as_basis(basis, "a psi basis", 9)
    return StateVector(psi.matrix @ _bracket_coefficients(np.array([lab]))[:, 0])


@lru_cache(maxsize=None)
def bracket_matrix() -> np.ndarray:
    """9 x 81 read-only: column i is bracket_state(ALL_LABELS[i]) in the
    reference two-atom basis."""
    return _readonly(build_psi_basis().matrix @ _bracket_coefficients(label_matrix()))


@lru_cache(maxsize=None)
def bracket_gram() -> np.ndarray:
    """81 x 81 read-only Gram matrix of the bracket family: by the overlap
    law it equals (agreement_matrix() - 1) / 3."""
    brackets = bracket_matrix()
    return _readonly(brackets.conj().T @ brackets)


def bracket_overlap(a, b) -> float:
    """Analytic inner product of two bracket states: (matches - 1) / 3."""
    return (label_agreement(a, b) - 1) / 3.0


@dataclass(frozen=True, eq=False)
class PhysicistBasis:
    """An orthonormal two-atom basis of nine bracket states with their labels."""

    basis: OrthonormalBasis
    labels: tuple[BracketLabel, ...]

    def __post_init__(self):
        labels = tuple(_check_label(lab) for lab in self.labels)
        if len(labels) != 9 or self.basis.dim != 9:
            raise ContractViolation("a physicist basis holds nine labelled dim-9 states")
        agreement = _agreements(np.array(labels))
        clashes = np.argwhere(np.triu(agreement != 1, 1))
        if clashes.size:
            a, b = clashes[0]
            raise ContractViolation(
                f"labels {labels[a]} and {labels[b]} agree in "
                f"{agreement[a, b]} coordinates, want exactly 1"
            )
        object.__setattr__(self, "labels", labels)


@lru_cache(maxsize=None)
def build_physicist_basis() -> PhysicistBasis:
    """The reference final-measurement basis, labels as in PHYSICIST_LABELS."""
    psi = build_psi_basis()
    vectors = tuple(bracket_state(lab, psi) for lab in PHYSICIST_LABELS)
    return PhysicistBasis(OrthonormalBasis(vectors), PHYSICIST_LABELS)


def _as_physicist_basis(basis) -> PhysicistBasis:
    """The reference basis for None, ``basis`` if it is a PhysicistBasis;
    anything else is a ContractViolation."""
    if basis is None:
        return build_physicist_basis()
    if not isinstance(basis, PhysicistBasis):
        raise ContractViolation(f"basis must be a PhysicistBasis, got {type(basis).__name__}")
    return basis


def infer(m: int, j: int, basis: PhysicistBasis | None = None) -> int:
    """The king's outcome implied by physicist outcome j, given his basis m."""
    m = _index(m, 4, "basis index")
    j = _index(j, 9, "physicist outcome")
    return _as_physicist_basis(basis).labels[j][m]


def king_outcome_probabilities(psi0: StateVector, m: int) -> np.ndarray:
    """Born probabilities for measuring basis m on the given atom alone."""
    basis = build_qutrit_mubs().bases[_index(m, 4, "basis index")]
    grid = _as_state(psi0, "a two-atom state", 9).amps.reshape(3, 3)
    return (np.abs(basis.matrix.conj().T @ grid) ** 2).sum(axis=1)


def king_measure(
    psi0: StateVector,
    m: int,
    rng: np.random.Generator | None,
    force_outcome: int | None = None,
) -> tuple[int, StateVector]:
    """Measure basis m on the given atom; return the outcome and the
    collapsed two-atom state.

    ``force_outcome`` bypasses sampling (the collapse is still projective),
    so certainty can be checked for every outcome rather than sampled ones;
    the generator is unused in that case.
    """
    m = _index(m, 4, "basis index")
    if force_outcome is None:
        if rng is None:
            raise ContractViolation("sampling a king outcome needs a generator")
        k = sample_outcome(king_outcome_probabilities(psi0, m), rng)
    else:
        k = _index(force_outcome, 3, "forced outcome")
    basis = build_qutrit_mubs().bases[m]
    return k, project_and_normalize(psi0, basis[k], "given")


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """One full protocol round."""

    king_basis: int
    king_outcome: int
    physicist_outcome: int
    inferred: int
    success: bool
    seed: int | None = None
    round_index: int | None = None


# Rounds mapped per chunk of the batch path; bounds its memory for any round
# count.  A chunk's 256 KiB of words and its temporaries stay in a core's L2
# cache: on a 2 MiB-L2 Xeon, 2**16-round chunks made simulate ~1.6x slower.
CHUNK_ROUNDS = 2**13
# Round i owns Philox counter block i: four 64-bit words.  Word 0 picks the
# king's basis (its top two bits), words 1 and 2 are the king's and the
# physicist's draws, word 3 is unused.  Generator.random() would read a word
# w as the uniform u = (w >> 11) * 2**-53, and u >= c holds exactly when
# w >= ceil(c * 2**53) << 11.  Every distribution a round draws from picks
# one of three outcomes with probability 1/3 (``_round_engine`` certifies
# it), so its cdf steps are 1/3 and 2/3 and a draw picks the outcome given by
# how many of these two words it reaches.  Both are computed in integers:
# float division rounds 2**54 / 3 down by one.
WORDS_PER_ROUND = 4
_UNIFORM_SHIFT = 11
ONE_THIRD = -(-(2**53) // 3) << _UNIFORM_SHIFT
TWO_THIRDS = -(-(2**54) // 3) << _UNIFORM_SHIFT


def _third_outcomes(probs, what: str) -> list[int]:
    """The outcomes of a distribution that has exactly three, each of
    probability 1/3 within TOL: the fact the word constants rest on."""
    p = np.asarray(probs, dtype=float)
    keep = np.flatnonzero(p >= TOL)
    if keep.size != 3 or np.abs(p[keep] - 1.0 / 3.0).max() >= TOL:
        raise RuntimeError(
            f"{what} has outcome probabilities {p.tolist()}, expected three of 1/3 "
            f"within {TOL:g}"
        )
    return keep.tolist()


@lru_cache(maxsize=None)
def _round_engine() -> np.ndarray:
    """The round engine's 36 x 4 int8 outcome table, built once through the
    projective measurement path: row 9*m + 3*k + jb holds (m, k, j, inferred)
    for the king's outcome k in basis m and the physicist's jb-th possible
    outcome j after that collapse."""
    psi0 = prepare_psi0()
    pb = build_physicist_basis()
    outcomes = []
    for m in range(4):
        _third_outcomes(king_outcome_probabilities(psi0, m), f"king basis {m}")
        for k in range(3):
            collapsed = king_measure(psi0, m, None, force_outcome=k)[1]
            keep = _third_outcomes(
                born_probabilities(collapsed, pb.basis), f"collapse (m={m}, k={k})"
            )
            outcomes.extend((m, k, j, pb.labels[j][m]) for j in keep)
    return _readonly(np.array(outcomes, dtype=np.int8))


def round_outcomes() -> np.ndarray:
    """36 x 4 read-only int8: row b is (m, k, j, inferred) of a round in
    bin b, the unit ``round_chunks`` yields."""
    return _round_engine()


def _check_basis(m) -> int | None:
    """A king basis index, or None for a random basis per round."""
    return None if m is None else _index(m, 4, "basis index")


def run_round(
    m: int | None,
    rng: np.random.Generator,
    *,
    seed: int | None = None,
    round_index: int | None = None,
) -> RoundRecord:
    """Play one round: prepare, king measures (basis m, or random when m is
    None), physicist measures her basis, inference is recorded.  Reads the
    next four raw words of ``rng``, one counter block of ``round_stream``."""
    m = _check_basis(m)
    try:
        draw = rng.bit_generator.random_raw
    except AttributeError:
        raise ContractViolation(
            f"a round draws from a numpy Generator, got {type(rng).__name__}"
        ) from None
    w0, w1, w2, _ = draw(WORDS_PER_ROUND).tolist()
    if m is None:
        m = w0 >> 62
    k = (w1 >= ONE_THIRD) + (w1 >= TWO_THIRDS)
    jb = (w2 >= ONE_THIRD) + (w2 >= TWO_THIRDS)
    m, k, j, inferred = _round_engine()[9 * m + 3 * k + jb].tolist()
    return RoundRecord(m, k, j, inferred, inferred == k, seed, round_index)


class _PhiloxKey(ISeedSequence):
    """The key words ``[seed, 0]`` of ``Philox(key=seed)``, handed straight
    to Philox: ``Philox(key=...)`` first seeds and discards an OS-entropy
    SeedSequence, most of the cost of a lone round's stream."""

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(
                f"Philox asked its key for {n_words} words of {dtype}, expected 2 of uint64"
            )
        return np.array([self.key, 0], dtype=np.uint64)


def round_stream(seed: int, index: int) -> np.random.Generator:
    """The random stream of round ``index``: Philox keyed by ``seed`` at
    counter block ``index``.  It depends only on (seed, index), so rounds
    can run in any order (or in parallel) with identical results, and the
    stream of round 0 runs on through the blocks of rounds 1, 2, ..."""
    # one Philox key word and one counter word: both 64-bit.  An int counter
    # is split exactly; a list would pass through float64 and alias blocks.
    key = _index(seed, 2**64, "seed")
    block = _index(index, 2**64, "round index")
    return np.random.Generator(np.random.Philox(_PhiloxKey(key), counter=block))


def _map_words(words: np.ndarray, basis: int | None) -> np.ndarray:
    """Raw words, one row of WORDS_PER_ROUND per round, to int8 round bins
    9*m + 3*k + jb: the vectorized twin of ``run_round``."""
    # 1-d column views: a 2-d slice such as words[:, 1:3] would give numpy
    # inner loops of length 2
    w1, w2 = words[:, 1], words[:, 2]
    bins = (w1 >= ONE_THIRD).view(np.int8) + (w1 >= TWO_THIRDS).view(np.int8)
    bins *= 3
    bins += (w2 >= ONE_THIRD).view(np.int8)
    bins += (w2 >= TWO_THIRDS).view(np.int8)
    if basis is None:
        bins += 9 * (words[:, 0] >> 62).astype(np.int8)
    else:
        bins += 9 * basis
    return bins


def round_chunks(rounds: int, seed: int, basis: int | None = None):
    """Rounds 0 .. rounds-1 as int8 round bins (rows of ``round_outcomes()``),
    in chunks of at most CHUNK_ROUNDS rounds; entry i is the round
    ``run_round`` plays on ``round_stream(seed, i)``.  Arguments are checked
    on the call."""
    rounds = _index(rounds, None, "rounds", start=1)
    basis = _check_basis(basis)
    bits = round_stream(seed, 0).bit_generator
    sizes = (min(CHUNK_ROUNDS, rounds - start) for start in range(0, rounds, CHUNK_ROUNDS))
    return (
        _map_words(bits.random_raw(WORDS_PER_ROUND * n).reshape(n, WORDS_PER_ROUND), basis)
        for n in sizes
    )


def simulate_rounds(rounds: int, seed: int, basis: int | None = None) -> list[RoundRecord]:
    """Run rounds 0 .. rounds-1 of ``seed``; record i equals
    ``run_round(basis, round_stream(seed, i), seed=seed, round_index=i)``."""
    records: list[RoundRecord] = []
    for bins in round_chunks(rounds, seed, basis):
        m, k, j, inferred = round_outcomes()[bins].T.tolist()
        indices = range(len(records), len(records) + len(bins))
        success, seeds = map(operator.eq, inferred, k), itertools.repeat(seed)
        records.extend(map(RoundRecord, m, k, j, inferred, success, seeds, indices))
    return records


@dataclass(frozen=True)
class CertaintyReport:
    """Outcome of the exhaustive collapse-by-collapse verification."""

    passed: bool
    cases_checked: int
    outcomes_checked: int
    max_probability_deviation: float
    failures: tuple[str, ...] = ()


def exhaustive_verify(basis: PhysicistBasis | None = None) -> CertaintyReport:
    """Check every collapse case (m, k): exactly three physicist outcomes
    are possible, each with probability 1/3, and all of them infer k."""
    pb = _as_physicist_basis(basis)
    trios = trio_table()
    failures: list[str] = []
    worst = 0.0
    outcomes = 0
    for m in range(4):
        for k in range(3):
            probs = born_probabilities(trios.state(m, k), pb.basis)
            compatible = np.flatnonzero(probs > TOL)
            outcomes += compatible.size
            if compatible.size != 3:
                failures.append(
                    f"(m={m}, k={k}): {compatible.size} compatible outcomes, expected 3"
                )
            for j in compatible:
                guessed = infer(m, int(j), pb)
                if guessed != k:
                    failures.append(f"(m={m}, k={k}, j={int(j)}): inferred {guessed}")
            if compatible.size:
                worst = max(worst, float(np.abs(probs[compatible] - 1.0 / 3.0).max()))
    passed = not failures and worst < TOL
    return CertaintyReport(passed, 12, outcomes, worst, tuple(failures))


def label_set_deviations(label_sets) -> np.ndarray:
    """For each set of labels, the worst entry of |Gram - I| over its bracket
    states, read off the cached bracket Gram matrix.  Zero (to round-off)
    exactly when the set's bracket states are orthonormal."""
    sets = np.asarray(label_sets)
    if sets.ndim != 3 or sets.shape[2] != 4 or sets.dtype.kind not in "iu":
        raise ContractViolation("label sets must be an integer array of shape (sets, size, 4)")
    if sets.size and (sets.min() < 0 or sets.max() > 2):
        raise ContractViolation("label coordinates must lie in 0..2")
    index = sets @ np.array([27, 9, 3, 1])  # position in ALL_LABELS
    gram = bracket_gram()[index[:, :, None], index[:, None, :]]
    return np.abs(gram - np.eye(sets.shape[1])).max(axis=(1, 2), initial=0.0)


def search_bases() -> tuple[tuple[BracketLabel, ...], ...]:
    """Every 9-label set whose members pairwise agree in exactly one
    coordinate, found by backtracking over the 81 labels.

    Two labels with equal (k0, k1) agree in at least two coordinates, so a
    valid set holds each of the nine (k0, k1) pairs exactly once: sorted,
    its member d has (k0, k1) = divmod(d, 3) and lies in block d of
    ALL_LABELS (indices 9d .. 9d+8).  Depth d of the search branches only
    over that block.  Each returned set is sorted and the result is sorted,
    so the output is canonical; every set is re-certified at the state
    level (nine bracket states forming an orthonormal basis) before being
    returned.
    """
    compatible = _compatible_masks()
    found: list[tuple[int, ...]] = []

    def extend(chain: tuple[int, ...], candidates: int) -> None:
        depth = len(chain)
        if depth == 9:
            found.append(chain)
            return
        block = candidates & (0x1FF << 9 * depth)
        while block:
            lowest = block & -block
            block ^= lowest
            v = lowest.bit_length() - 1
            extend(chain + (v,), candidates & compatible[v])

    extend((), (1 << len(ALL_LABELS)) - 1)

    sets = tuple(tuple(ALL_LABELS[i] for i in indices) for indices in found)
    deviations = label_set_deviations(sets)
    if deviations.max(initial=0.0) >= TOL:
        worst = int(deviations.argmax())
        raise RuntimeError(
            f"label set {sets[worst]} fails state-level orthonormality: "
            f"Gram deviation {deviations[worst]:.3e}"
        )
    return sets


# Rounds of seed 0 that ``invariant_checks`` plays through both the round
# engine and the explicit measurement path; they cover all four king bases.
REPLAY_CHECK_ROUNDS = 16


def _measured_round(seed: int, index: int) -> tuple[int, int, int]:
    """Round ``index`` of ``seed`` played by measuring and collapsing states
    on its own stream: (king basis, king outcome, physicist outcome)."""
    gen = round_stream(seed, index)
    m = int(gen.bit_generator.random_raw() >> 62)
    k, collapsed = king_measure(prepare_psi0(), m, gen)
    j = sample_outcome(born_probabilities(collapsed, build_physicist_basis().basis), gen)
    return m, k, j


def invariant_checks() -> list[Check]:
    """The module's full verification suite as named checks."""
    checks = []

    psi0 = prepare_psi0()
    forms = entangled_forms()
    dev = max(1.0 - abs(inner_product(psi0, f)) for f in forms)
    checks.append(Check("entangled-four-forms", dev < TOL, dev))

    psi = build_psi_basis()
    dev = float(np.abs(psi.matrix.conj().T @ psi.matrix - np.eye(9)).max())
    checks.append(Check("psi-basis-gram", dev < TOL, dev))

    mixing = fourier_matrix()
    dev = float(np.abs(mixing.conj().T @ mixing - np.eye(3)).max())
    checks.append(Check("mixing-unitarity", dev < TOL, dev))

    dev = max(
        abs(inner_product(psi[2 * m + 1], psi[2 * m + 2])) for m in range(4)
    )
    checks.append(Check("paired-orthogonality", dev < TOL, dev))

    trios = trio_table()
    dev = 0.0
    for m in range(4):
        triple = np.stack(
            [psi[0].amps, psi[2 * m + 1].amps, psi[2 * m + 2].amps], axis=1
        )
        remixed = triple @ mixing
        for k in range(3):
            dev = max(dev, float(np.abs(remixed[:, k] - trios.state(m, k).amps).max()))
    checks.append(Check("trio-reconstruction", dev < TOL, dev))

    # overlaps[m, k, i] = <trio (m, k)|bracket i>: magnitude 3**-0.5 where label i
    # has k_m = k, zero elsewhere.
    trio_grid = np.array([[trios.state(m, k).amps for k in range(3)] for m in range(4)])
    overlaps = trio_grid.conj() @ bracket_matrix()
    selected = label_matrix().T[:, None, :] == np.arange(3)[None, :, None]
    dev = float(
        np.where(selected, np.abs(np.abs(overlaps) ** 2 - 1.0 / 3.0), np.abs(overlaps)).max()
    )
    checks.append(Check("bracket-trio-selectivity", dev < TOL, dev))

    dev = float(np.abs(bracket_gram() - (agreement_matrix() - 1) / 3.0).max())
    checks.append(Check("bracket-overlap-law", dev < TOL, dev))

    pb = build_physicist_basis()
    dev = float(np.abs(pb.basis.matrix.conj().T @ pb.basis.matrix - np.eye(9)).max())
    checks.append(Check("physicist-basis-gram", dev < TOL, dev))

    certainty = exhaustive_verify()
    checks.append(
        Check("retrodiction-certainty", certainty.passed, certainty.max_probability_deviation)
    )

    records = simulate_rounds(REPLAY_CHECK_ROUNDS, 0)
    mismatches = sum(
        (r.king_basis, r.king_outcome, r.physicist_outcome) != _measured_round(0, i)
        for i, r in enumerate(records)
    )
    checks.append(Check("round-engine-replay", mismatches == 0, float(mismatches)))
    return checks
