"""The two-atom retrodiction protocol.

One party (the king) measures one of the four complementary spin-1
observables on a given atom; the other (the physicist) must later name the
result without having been told which observable was measured.  She wins
with certainty by entangling the given atom with an auxiliary one before
the king's measurement and by measuring, afterwards, a basis of nine
two-atom "bracket" states |[k0 k1 k2 k3]> engineered so that outcome j is
impossible unless the king's result in basis m was label_j[m].

The bracket labels and states, the physicist's basis, the 72-set search and
the bracket family's verification suite live in ``brackets``; this module
holds the king's measurement, the round engine and its streams, the tally
and the suite of the retrodiction and the engine built on that family.

Index conventions: the given atom is the left tensor factor; two-atom
amplitudes sit at flat index 3*i + j.  The king's basis choices are
m = 0..3, outcomes k = 0..2, physicist outcomes j = 0..8.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

# perfbench's tracer looks bracket_state and search_bases up on this module
# (perfbench/spans.py TARGETS), so it keeps both names; it reads the others
from .brackets import (
    PhysicistBasis,
    _as_physicist_basis,
    bracket_state,
    build_physicist_basis,
    infer,
    prepare_psi0,
    search_bases,
    trio_matrix,
)
from .linalg import (
    TOL,
    ContractViolation,
    StateVector,
    _as_instance,
    _index,
    _product,
    _readonly,
    _sample_rows,
    born_probabilities,
    project_and_normalize,
    sample_outcome,
)
from .mub import build_qutrit_mubs
from .reporting import Check, within


def _king_born(psi0: StateVector, matrices: np.ndarray) -> np.ndarray:
    """Born probabilities for measuring, on the given atom alone, the basis
    whose kets are the columns of ``matrices``, or each basis of a stack."""
    grid = _as_instance(psi0, StateVector, "a two-atom state", 9).amps.reshape(3, 3)
    return (np.abs(_product(matrices.conj().swapaxes(-1, -2), grid)) ** 2).sum(axis=-1)


def king_measure(
    psi0: StateVector, m: int, rng: "np.random.Generator"
) -> tuple[int, StateVector]:
    """Measure basis m on the given atom; return the drawn outcome and the
    collapsed two-atom state."""
    basis = build_qutrit_mubs().bases[_index(m, 4, "basis index")]
    k = sample_outcome(_king_born(psi0, basis.matrix), rng)
    return k, project_and_normalize(psi0, basis[k])


class RoundRecord(NamedTuple):
    """One full protocol round, as an immutable tuple of its fields."""

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


def word_constants_check() -> Check:
    """``engine-word-constants``: the constants the engine reads, in integers.
    Each is an int on the grid of uniforms, and each of the three word
    intervals holds 2**64 / 3 words to within 2**11, one step of a uniform."""
    edges = (0, ONE_THIRD, TWO_THIRDS, 2**64)
    worst = max(abs(3 * (b - a) - 2**64) for a, b in zip(edges, edges[1:]))
    on_grid = all(isinstance(c, int) and c % 2**_UNIFORM_SHIFT == 0 for c in edges[1:3])
    passed = on_grid and worst <= 3 << _UNIFORM_SHIFT
    return Check("engine-word-constants", passed, worst / (3 * 2**64))


def _thirds(born: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The thirds rule on rows of outcome probabilities: the mask of possible
    outcomes (probability at least TOL), each row's count of them and each
    row's worst |p - 1/3| among them.  A row keeps the rule when it has three
    outcomes, all within TOL of 1/3: the fact the word constants rest on."""
    possible = born >= TOL
    worst = np.where(possible, np.abs(born - 1.0 / 3.0), 0.0).max(axis=1)
    return possible, possible.sum(axis=1), worst


def _collapse_born(pb: PhysicistBasis) -> np.ndarray:
    """12 x 9: entry (3*m + k, j) is the probability of physicist outcome j
    after the king's outcome k in basis m, |<P_j|trio (m, k)>|^2."""
    return np.abs(_product(trio_matrix().conj(), pb.basis.matrix)) ** 2


@lru_cache(maxsize=None)
def _round_engine() -> np.ndarray:
    """The round engine's 36 x 4 int8 outcome table: row 9*m + 3*k + jb
    holds (m, k, j, inferred) for the king's outcome k in basis m and the
    physicist's jb-th possible outcome j after that collapse.  Every king
    and collapse row is certified to have three outcomes of 1/3."""
    psi0, pb = prepare_psi0(), build_physicist_basis()
    king = _king_born(psi0, build_qutrit_mubs().matrices)
    # a bad row is named from (row, row // 3, row % 3)
    for born, name in ((king, "king basis {0}"), (_collapse_born(pb), "collapse (m={1}, k={2})")):
        possible, count, worst = _thirds(born)
        bad = np.flatnonzero((count != 3) | (worst >= TOL)).tolist()
        if bad:
            raise RuntimeError(
                f"{name.format(bad[0], *divmod(bad[0], 3))} has outcome probabilities "
                f"{born[bad[0]].tolist()}, expected three of 1/3 within {TOL:g}"
            )
    rows, j = np.nonzero(possible)  # the last pass's mask: the collapse rows
    m, k = np.divmod(rows, 3)
    table = np.stack([m, k, j, np.array(pb.labels)[j, m]], axis=1)
    return _readonly(table.astype(np.int8))


@lru_cache(maxsize=None)
def _round_rows() -> tuple[tuple[int, int, int, int], ...]:
    """The rows of ``_round_engine``'s table as tuples of ints, the view a
    lone round reads: indexing a tuple skips an array round-trip."""
    return tuple(map(tuple, _round_engine().tolist()))


def round_outcomes() -> np.ndarray:
    """36 x 4 read-only int8: row b is (m, k, j, inferred) of a round in
    bin b, the unit ``round_chunks`` yields."""
    return _round_engine()


def run_round(
    m: int | None,
    rng: "np.random.Generator",
    *,
    seed: int | None = None,
    round_index: int | None = None,
) -> RoundRecord:
    """Play one round: prepare, king measures (basis m, or random when m is
    None), physicist measures her basis, inference is recorded.  Reads the
    next four raw words of ``rng``, one counter block of ``round_stream``."""
    m = None if m is None else _index(m, 4, "basis index")
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
    m, k, j, inferred = _round_rows()[9 * m + 3 * k + jb]
    # NamedTuple's own __new__ is a Python-level call; _make builds records this way
    return tuple.__new__(RoundRecord, (m, k, j, inferred, inferred == k, seed, round_index))


class _KeyWords:
    """The key words ``(seed, 0)`` of ``Philox(key=seed)``, handed straight
    to Philox: ``Philox(key=...)`` first seeds and discards an OS-entropy
    SeedSequence, most of the cost of a lone round's stream.  Philox only
    indexes the two words, so they go as Python ints: from a uint64 array
    numpy would convert each word back through a numpy scalar.  The tuple
    stands in for the uint64 array that ISeedSequence promises, and holds
    only while Philox does nothing to the key but index it (checked against
    numpy 2.4.6; ``test_stream_is_numpys_keyed_philox`` fails otherwise)."""

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks with the type np.uint64 itself, so test identity first
        if n_words != 2 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise RuntimeError(
                f"Philox asked its key for {n_words} words of {dtype}, expected 2 of uint64"
            )
        return self.key, 0


class _PhiloxKey(_KeyWords):
    """The key ``round_stream`` hands Philox.  The first ``round_stream``
    call registers ``_KeyWords`` as a virtual ISeedSequence, so importing
    the package does not import numpy.random.  Philox tests its key with
    isinstance, and an ABC caches a yes only for a subclass of a registered
    class: a registered class itself is looked up afresh on every call,
    ~0.5 us of a lone round."""

    __slots__ = ()


# The four counter words of block 0; a round's stream copies it and sets word 0.
_ZERO_COUNTER = _readonly(np.zeros(4, dtype=np.uint64))
_key_registered = False


def round_stream(seed: int, index: int) -> "np.random.Generator":
    """The random stream of round ``index``: Philox keyed by ``seed`` at
    counter block ``index``.  It depends only on (seed, index), so rounds
    can run in any order (or in parallel) with identical results, and the
    stream of round 0 runs on through the blocks of rounds 1, 2, ..."""
    global _key_registered
    if not _key_registered:
        from numpy.random.bit_generator import ISeedSequence

        ISeedSequence.register(_KeyWords)
        _key_registered = True
    # one Philox key word and one counter word, both 64-bit.  A uint64 array
    # is exact for every block and skips numpy's Python loop that splits an
    # int; a list without a dtype would pass through float64 and alias blocks.
    key = _index(seed, 2**64, "seed")
    counter = _ZERO_COUNTER.copy()
    counter[0] = _index(index, 2**64, "round index")
    return np.random.Generator(np.random.Philox(_PhiloxKey(key), counter=counter))


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
    on the call; rounds run up to 2**64, one per counter block."""
    rounds = _index(rounds, 2**64 + 1, "rounds", start=1)
    basis = None if basis is None else _index(basis, 4, "basis index")
    bits = round_stream(seed, 0).bit_generator
    sizes = (min(CHUNK_ROUNDS, rounds - start) for start in range(0, rounds, CHUNK_ROUNDS))
    return (
        _map_words(bits.random_raw(WORDS_PER_ROUND * n).reshape(n, WORDS_PER_ROUND), basis)
        for n in sizes
    )


# Rounds that ``tally_rounds`` replays in order on one stream, and that
# ``invariant_checks`` plays for seed 0 in a batch, alone, and measured and
# collapsed all at once (round 0 also on the public lone path), each
# retrodicted by ``infer``.  A replay misses a round read off the wrong basis
# word only if all of them draw the same basis from both words, a chance of
# 4**-16; at seed 0 they cover all four king bases.
REPLAY_CHECK_ROUNDS = 16


def tally_rounds(rounds: int, seed: int, basis: int | None = None) -> tuple:
    """Rounds 0 .. rounds-1 of ``seed``, counted: the king's 4 x 3 (basis,
    outcome) grid, the physicist's 9 outcome counts, the successes, and how
    many replayed rounds differ from their bins: the first REPLAY_CHECK_ROUNDS
    in order on one stream, and round rounds - 1 alone."""
    chunks = round_chunks(rounds, seed, basis)
    bins = next(chunks)
    first, counts = bins[:REPLAY_CHECK_ROUNDS].tolist(), np.bincount(bins, minlength=36)
    for bins in chunks:
        counts += np.bincount(bins, minlength=36)
    rows, stream = _round_rows(), round_stream(seed, 0)
    mismatches = sum(run_round(basis, stream)[:4] != rows[b] for b in first)
    # the last round is the last bin of the last chunk
    mismatches += run_round(basis, round_stream(seed, rounds - 1))[:4] != rows[bins[-1]]
    _, k, j, inferred = round_outcomes().T
    king = counts.reshape(4, 3, 3).sum(axis=2)  # bin b = 9m + 3k + jb
    physicist = _product(counts, j[:, None] == np.arange(9))
    return king, physicist, int(counts[inferred == k].sum()), mismatches


def simulate_rounds(rounds: int, seed: int, basis: int | None = None) -> list[RoundRecord]:
    """Run rounds 0 .. rounds-1 of ``seed``; record i equals
    ``run_round(basis, round_stream(seed, i), seed=seed, round_index=i)``."""
    heads = [(m, k, j, inferred, inferred == k, seed) for m, k, j, inferred in _round_rows()]
    records: list[RoundRecord] = []
    for bins in round_chunks(rounds, seed, basis):
        records.extend(tuple.__new__(RoundRecord, (*heads[b], i))
                       for i, b in enumerate(bins.tolist(), len(records)))
    return records


def exhaustive_verify(basis: PhysicistBasis | None = None) -> Check:
    """``retrodiction-certainty``: in every collapse case (m, k) exactly three
    physicist outcomes are possible, each with probability 1/3, and all of
    them infer k.  Its deviation is the worst |p - 1/3|."""
    pb = _as_physicist_basis(basis)
    compatible, counts, worsts = _thirds(_collapse_born(pb))
    rows, j = np.nonzero(compatible)
    guessed = np.array(pb.labels)[j, rows // 3]  # infer(m, j, pb) for every compatible outcome
    exact = (counts == 3).all() and (guessed == rows % 3).all()
    certainty = within("retrodiction-certainty", worsts)
    return Check(certainty.name, certainty.passed and exact, certainty.max_deviation)



def _measured_round(seed: int, index: int) -> tuple[int, int, int]:
    """Round ``index`` of ``seed`` played by measuring and collapsing states
    on its own stream: (king basis, king outcome, physicist outcome)."""
    gen = round_stream(seed, index)
    m = int(gen.bit_generator.random_raw() >> 62)
    k, collapsed = king_measure(prepare_psi0(), m, gen)
    j = sample_outcome(born_probabilities(collapsed, build_physicist_basis().basis), gen)
    return m, k, j


def _measured_rounds(seed: int, rounds: int) -> np.ndarray:
    """(rounds, 3): row i is ``_measured_round(seed, i)``, every round measured
    and collapsed at once.  Round i reads uniforms 4i .. 4i+3 of the stream,
    and floor(4u) of its first is exactly its word's top two bits."""
    draws = round_stream(seed, 0).random(WORDS_PER_ROUND * rounds).reshape(rounds, -1)
    m = (4 * draws[:, 0]).astype(np.intp)
    kets = build_qutrit_mubs().matrices[m]  # kets[i] holds round i's basis as columns
    psi0 = prepare_psi0()
    k = _sample_rows(_king_born(psi0, kets), draws[:, 1])
    ket = kets[np.arange(rounds), :, k]
    # project_and_normalize on each round: the given atom onto its drawn ket
    grid = psi0.amps.reshape(3, 3)
    collapsed = _product(ket[:, :, None] * ket.conj()[:, None], grid).reshape(rounds, 9)
    collapsed /= np.sqrt((collapsed.real**2 + collapsed.imag**2).sum(axis=1))[:, None]
    born = np.abs(_product(collapsed, build_physicist_basis().basis.matrix.conj())) ** 2
    return np.stack([m, k, _sample_rows(born, draws[:, 2])], axis=1)


def invariant_checks() -> list[Check]:
    """The module's verification suite as named checks: the retrodiction,
    the engine's word constants and its replay."""
    checks = [exhaustive_verify(), word_constants_check()]

    records = simulate_rounds(REPLAY_CHECK_ROUNDS, 0)
    # the physicist retrodicts every measured round by the public rule
    measured = [(m, k, j, infer(m, j))
                for m, k, j in _measured_rounds(0, REPLAY_CHECK_ROUNDS).tolist()]
    lone = _measured_round(0, 0)
    mismatches = sum(
        r[:4] != measured[i] or (i == 0 and r[:3] != lone)
        or r != run_round(None, round_stream(0, i), seed=0, round_index=i)
        for i, r in enumerate(records)
    )
    checks.append(Check("round-engine-replay", mismatches == 0, float(mismatches)))
    return checks
