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
def prepare_psi0() -> StateVector:
    """The entangled two-atom preparation.

    Written in the reference basis it is 3**-0.5 times the sum of the three
    doubly-occupied kets (flat indices 0, 4, 8); summing any basis's trio
    reproduces the very same vector, see ``entangled_forms``.
    """
    amps = np.zeros(9, dtype=np.complex128)
    amps[[0, 4, 8]] = 3**-0.5
    return StateVector(amps)


@lru_cache(maxsize=None)
def trio_matrix() -> np.ndarray:
    """The 4 trios of possible two-atom states after the king's measurement,
    as a 12 x 9 read-only array: row 3*m + k is the product of the given
    atom's |m_k> with the auxiliary atom's partner ket.  Within fixed m the
    three rows are orthonormal."""
    kets = build_qutrit_mubs().matrices.transpose(0, 2, 1)  # kets[m, k] = |m_k>
    partners = np.array(
        [kets[PARTNER_BASIS[m], partner_outcome(m, k)] for m in range(4) for k in range(3)]
    )
    # the broadcast product is tensor_product's np.kron, bit for bit
    return _readonly((kets.reshape(12, 3)[:, :, None] * partners[:, None, :]).reshape(12, 9))


def entangled_forms() -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """One decomposition of the preparation per king basis: the normalized
    sum of each trio.  All four come out as the same vector."""
    sums = trio_matrix().reshape(4, 3, 9).sum(axis=1) / np.sqrt(3)
    return tuple(StateVector(form) for form in sums)


@lru_cache(maxsize=None)
def build_psi_basis() -> OrthonormalBasis:
    """Nine orthonormal two-atom states underlying the bracket construction.

    Index 0 is the entangled preparation itself; indices 2m+1 and 2m+2 are
    obtained by undoing the Fourier-type mixing on the trio of basis m, so
    that each trio equals (psi_0, psi_2m+1, psi_2m+2) times the mixing
    matrix, exactly and not merely up to phase.
    """
    psi0 = prepare_psi0().amps
    # unmixed[m] holds the columns of trio m, un-mixed
    unmixed = trio_matrix().reshape(4, 3, 9).transpose(0, 2, 1) @ fourier_matrix().conj().T
    drift = np.abs(unmixed[:, :, 0] - psi0).max(axis=1)
    if drift.max() >= TOL:
        m = int(drift.argmax())
        raise RuntimeError(f"trio {m} un-mixes to a shared column off psi_0 by {drift[m]:.3e}")
    columns = [psi0, *unmixed[:, :, 1:].transpose(0, 2, 1).reshape(8, 9)]
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
        _as_basis(self.basis, "a physicist basis", 9)
        try:
            labels = tuple(_check_label(lab) for lab in self.labels)
        except TypeError:
            raise ContractViolation("a physicist basis takes a sequence of labels") from None
        if len(labels) != 9:
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
    return k, project_and_normalize(psi0, basis[k])


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


def _collapse_born(pb: PhysicistBasis) -> np.ndarray:
    """12 x 9: entry (3*m + k, j) is the probability of physicist outcome j
    after the king's outcome k in basis m, |<P_j|trio (m, k)>|^2."""
    return np.abs(trio_matrix().conj() @ pb.basis.matrix) ** 2


@lru_cache(maxsize=None)
def _round_engine() -> np.ndarray:
    """The round engine's 36 x 4 int8 outcome table: row 9*m + 3*k + jb
    holds (m, k, j, inferred) for the king's outcome k in basis m and the
    physicist's jb-th possible outcome j after that collapse.  Every king
    and collapse row is certified to have three outcomes of 1/3."""
    psi0 = prepare_psi0()
    pb = build_physicist_basis()
    for m in range(4):
        _third_outcomes(king_outcome_probabilities(psi0, m), f"king basis {m}")
    outcomes = []
    for row, probs in enumerate(_collapse_born(pb)):
        m, k = divmod(row, 3)
        keep = _third_outcomes(probs, f"collapse (m={m}, k={k})")
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
    born = _collapse_born(pb)
    compatible = born > TOL
    failures = [
        f"(m={row // 3}, k={row % 3}): {n} compatible outcomes, expected 3"
        for row, n in enumerate(compatible.sum(axis=1).tolist())
        if n != 3
    ]
    for row, j in np.argwhere(compatible).tolist():
        m, k = divmod(row, 3)
        guessed = infer(m, j, pb)
        if guessed != k:
            failures.append(f"(m={m}, k={k}, j={j}): inferred {guessed}")
    worst = float(np.abs(born[compatible] - 1.0 / 3.0).max(initial=0.0))
    passed = not failures and worst < TOL
    return CertaintyReport(passed, 12, int(compatible.sum()), worst, tuple(failures))


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
    coordinate: the sets {(a, b, f[a, b], g[a, b])} over the ordered pairs
    (f, g) of orthogonal Latin squares of order 3 (Hayashi, Horibe and
    Hashimoto, Phys. Rev. A 71, 052331 (2005)).

    This is exhaustive.  Two labels of a valid set agree in at most one
    coordinate, so any two of its columns take each of the nine value pairs
    exactly once: every pair of columns is a bijection onto Z3^2.  Ordered
    by (k0, k1), columns 2 and 3 are therefore Latin squares in (k0, k1),
    and orthogonal to each other; conversely each such pair gives a valid
    set.  The squares are the stackings of three row permutations whose
    columns are permutations too.  Each returned set is sorted (its (a, b)
    run row-major) and the result is sorted, so the output is canonical;
    every set is re-certified at the state level (nine bracket states
    forming an orthonormal basis) before being returned.
    """
    perms = np.array(list(itertools.permutations(range(3))))
    stacks = perms[np.array(list(itertools.product(range(6), repeat=3)))]
    # bit v of a mask is set when the value v occurs: a column holding all
    # three values has mask 0b111, and 3f + g taking all nine has 0x1FF
    squares = stacks[(np.bitwise_or.reduce(1 << stacks, axis=1) == 0b111).all(axis=1)]
    codes = (3 * squares[:, None] + squares[None]).reshape(len(squares), len(squares), 9)
    f, g = np.nonzero(np.bitwise_or.reduce(1 << codes, axis=-1) == 0x1FF)
    a, b = np.divmod(np.arange(9), 3)
    labels = np.stack(
        np.broadcast_arrays(a, b, squares[f].reshape(-1, 9), squares[g].reshape(-1, 9)),
        axis=-1,
    )
    deviations = label_set_deviations(labels)
    if deviations.max(initial=0.0) >= TOL:
        worst = int(deviations.argmax())
        raise RuntimeError(
            f"label set {labels[worst].tolist()} fails state-level orthonormality: "
            f"Gram deviation {deviations[worst]:.3e}"
        )
    return tuple(sorted(tuple(map(tuple, s)) for s in labels.tolist()))


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

    kets = psi.matrix.T  # row i is psi_i
    dev = float(np.abs((kets[1::2].conj() * kets[2::2]).sum(axis=1)).max())
    checks.append(Check("paired-orthogonality", dev < TOL, dev))

    trios = trio_matrix()
    # row k of (mixing^T @ triples[m]) is column k of (psi_0, psi_2m+1, psi_2m+2) @ mixing
    triples = np.stack(np.broadcast_arrays(kets[0], kets[1::2], kets[2::2]), axis=1)
    dev = float(np.abs(mixing.T @ triples - trios.reshape(4, 3, 9)).max())
    checks.append(Check("trio-reconstruction", dev < TOL, dev))

    # overlaps[m, k, i] = <trio (m, k)|bracket i>: magnitude 3**-0.5 where label i
    # has k_m = k, zero elsewhere.
    overlaps = (trios.conj() @ bracket_matrix()).reshape(4, 3, -1)
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
