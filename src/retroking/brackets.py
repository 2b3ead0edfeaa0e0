"""The physicist's half of the protocol: bracket labels and states.

A bracket label (k0, k1, k2, k3) names one of the king's outcomes in each of
his four bases; its bracket state |[k0 k1 k2 k3]> is the sum of the trio
members it selects, less the entangled preparation, so it meets trio member
(m, k) only for k = k_m.  Nine bracket states whose labels pairwise agree in
exactly one coordinate are orthonormal: the physicist measures such a basis,
and her outcome j names the king's result label_j[m].  The 72 such label sets
are found by ``search_bases`` and certified by ``search_report``.  What the
family is built from lives here too: the entangled preparation, the trio
matrix and the psi basis; ``invariant_checks`` is ``verify``'s suite of it all.

Index conventions as in ``protocol``: two-atom amplitudes sit at flat index
3*i + j, the given atom the left factor; king bases m = 0..3, outcomes
k = 0..2; ``ALL_LABELS`` lists the 81 labels in lexicographic order.
"""

import itertools
import operator
from functools import lru_cache

import numpy as np

from .linalg import (
    TOL,
    ContractViolation,
    OrthonormalBasis,
    StateVector,
    _Record,
    _as_instance,
    _identity,
    _index,
    _numbers,
    _orthonormality_deviation,
    _product,
    _readonly,
    inner_product,
)
from .mub import build_qutrit_mubs, fourier_matrix
from .reporting import Check, within

BracketLabel = tuple[int, int, int, int]

# Labels of the reference physicist basis, P_0 .. P_8: (a, b, a + b, 2a + b)
# mod 3 over (a, b) row-major.  Any two agree in exactly one coordinate,
# which is precisely the orthogonality criterion for bracket states.
PHYSICIST_LABELS: tuple[BracketLabel, ...] = tuple(
    (a, b, (a + b) % 3, (2 * a + b) % 3) for a in range(3) for b in range(3)
)

ALL_LABELS: tuple[BracketLabel, ...] = tuple(itertools.product((0, 1, 2), repeat=4))


@lru_cache(maxsize=None)
def _label_digits() -> np.ndarray:
    """81 x 4 read-only int8: row i is ALL_LABELS[i]."""
    return _readonly(np.array(ALL_LABELS, dtype=np.int8))


@lru_cache(maxsize=None)
def selection_matrix() -> np.ndarray:
    """12 x 81 read-only int8: entry (3*m + k, i) is 1 when ALL_LABELS[i] has
    k_m = k, so that bracket i meets trio member (m, k), and 0 otherwise."""
    labels = _label_digits().T[:, None]  # labels[m, 0, i] = ALL_LABELS[i][m]
    return _readonly((labels == np.arange(3)[:, None]).reshape(12, -1).astype(np.int8))


@lru_cache(maxsize=None)
def agreement_matrix() -> np.ndarray:
    """81 x 81 read-only: entry (i, j) counts the coordinates where
    ALL_LABELS[i] and ALL_LABELS[j] agree: S^T S, S the selection matrix."""
    return _readonly(_product(selection_matrix().T, selection_matrix()))


@lru_cache(maxsize=None)
def _coverage() -> np.ndarray:
    """81 x 81 read-only: how many of the 72 label sets hold both labels i
    and j.  Each label lies in 8 sets, each pair agreeing in one coordinate
    (only identical labels agree in 4) in 2, and every other pair in none."""
    agreement = agreement_matrix()
    return _readonly(np.where(agreement == 4, 8, 2 * (agreement == 1)))


@lru_cache(maxsize=None)
def prepare_psi0() -> StateVector:
    """The entangled two-atom preparation vec(I)/sqrt(3).

    Written in the reference basis it is 3**-0.5 times the sum of the three
    doubly-occupied kets (flat indices 0, 4, 8); summing any basis's trio
    reproduces the very same vector, see ``entangled_forms``.
    """
    return StateVector(np.eye(3).reshape(9) * 3**-0.5)


def trio_matrix() -> np.ndarray:
    """The 4 trios of possible two-atom states after the king's measurement,
    as a 12 x 9 read-only array: the qutrit set's projector matrix.

    In every basis m the preparation is sum_k |m_k>|m_k*>/sqrt(3), so the
    king's outcome k leaves |m_k> (x) |m_k*>, whose amplitude at 3*i + j is
    <i|m_k><m_k|j>: row 3*m + k is vec(|m_k><m_k|).  Within fixed m the
    three rows are orthonormal."""
    return build_qutrit_mubs().projectors


@lru_cache(maxsize=None)
def entangled_forms() -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """One decomposition of the preparation per king basis: the normalized
    sum of each trio.  All four come out as the same vector."""
    sums = trio_matrix().reshape(4, 3, 9).sum(axis=1) / np.sqrt(3)
    return tuple(StateVector(form) for form in sums)


@lru_cache(maxsize=None)
def build_psi_basis() -> OrthonormalBasis:
    """Nine orthonormal two-atom states that the trios mix; only invariant_checks reads them.

    Index 0 is the entangled preparation itself; indices 2m+1 and 2m+2 are
    obtained by undoing the Fourier-type mixing on the trio of basis m, so
    that each trio equals (psi_0, psi_2m+1, psi_2m+2) times the mixing
    matrix, exactly and not merely up to phase.
    """
    psi0 = prepare_psi0().amps
    # unmixed[m] holds the columns of trio m, un-mixed
    unmixed = _product(trio_matrix().reshape(4, 3, 9).transpose(0, 2, 1), fourier_matrix().conj().T)
    drift = np.abs(unmixed[:, :, 0] - psi0).max(axis=1)
    if drift.max() >= TOL:
        m = int(drift.argmax())
        raise RuntimeError(f"trio {m} un-mixes to a shared column off psi_0 by {drift[m]:.3e}")
    columns = [psi0, *unmixed[:, :, 1:].transpose(0, 2, 1).reshape(8, 9)]
    return OrthonormalBasis(tuple(StateVector(c) for c in columns))


def _label_index(labels, ndim: int) -> np.ndarray:
    """ALL_LABELS positions of bracket labels, and the one rule for what a label
    is: an integer array holds ``ndim`` axes of labels, then a last axis of four
    digits 0..2.  intp, as a uint64 and int64 product is float."""
    array = _numbers(labels, "iu", "bracket labels",
                     f"{ndim + 1}-d integers with a last axis of 4 digits 0..2",
                     lambda a: a.shape[ndim:] == (4,) and ((a >= 0) & (a <= 2)).all())
    return _product(array.astype(np.intp), (27, 9, 3, 1))


def overlap_law(matches):
    """Inner product of two bracket states whose labels agree in ``matches`` places."""
    return (matches - 1) / 3.0


@lru_cache(maxsize=None)
def _law_gram() -> np.ndarray:
    """81 x 81 read-only: the overlap law of the agreement matrix, the Gram
    matrix the bracket family must have."""
    return _readonly(overlap_law(agreement_matrix()))


@lru_cache(maxsize=None)
def bracket_matrix() -> np.ndarray:
    """9 x 81 read-only: column i is the bracket state of ALL_LABELS[i], the
    trio members its label selects summed, less the preparation:
    B = (T^T S - vec(I) 1^T) / sqrt(3), T the trio and S the selection matrix.

    Proof: the trio Gram G = T* T^T is delta within a basis and 1/3 across
    bases (unbiasedness), and T* vec(I) = 1 (each row is a projector of trace
    1).  So G S = S + J and T* B = S / sqrt(3), which is selectivity; and
    S^T G S = agreement + 4J, so B^H B = (S^T G S - 5J) / 3 = (agreement - 1) / 3,
    which is the overlap law."""
    brackets = _product(trio_matrix().T, selection_matrix()) * 3**-0.5
    return _readonly(brackets - prepare_psi0().amps[:, None])


def bracket_state(label) -> StateVector:
    """The two-atom state |[k0 k1 k2 k3]>: its column of ``bracket_matrix``,
    which meets trio member (m, k) only for k = k_m."""
    return StateVector(bracket_matrix()[:, _label_index(label, 0)])


@lru_cache(maxsize=None)
def bracket_gram() -> np.ndarray:
    """81 x 81 read-only Gram matrix of the bracket family: by the overlap
    law it equals overlap_law(agreement_matrix())."""
    brackets = bracket_matrix()
    return _readonly(_product(brackets.conj().T, brackets))


class PhysicistBasis(_Record):
    """Nine orthonormal bracket states built from their labels: basis[j] is
    bracket_state(labels[j])."""

    __slots__ = ("labels", "basis")

    def __init__(self, labels: tuple[BracketLabel, ...]):
        index = _label_index(labels, 1)
        if len(index) != 9:
            raise ContractViolation("a physicist basis holds nine labelled dim-9 states")
        labels = tuple(ALL_LABELS[i] for i in index.tolist())
        agreement = agreement_matrix()[index[:, None], index]
        clashes = np.argwhere(np.triu(agreement != 1, 1))
        if clashes.size:
            a, b = clashes[0]
            raise ContractViolation(
                f"labels {labels[a]} and {labels[b]} agree in "
                f"{agreement[a, b]} coordinates, want exactly 1"
            )
        super().__init__(labels, OrthonormalBasis(tuple(map(bracket_state, labels))))


@lru_cache(maxsize=None)
def build_physicist_basis() -> PhysicistBasis:
    """The reference final-measurement basis, labels as in PHYSICIST_LABELS."""
    return PhysicistBasis(PHYSICIST_LABELS)


def _as_physicist_basis(basis) -> PhysicistBasis:
    """The reference basis for None, ``basis`` if it is a PhysicistBasis;
    anything else is a ContractViolation."""
    if basis is None:
        return build_physicist_basis()
    return _as_instance(basis, PhysicistBasis, "basis")


def infer(m: int, j: int, basis: PhysicistBasis | None = None) -> int:
    """The king's outcome implied by physicist outcome j, given his basis m."""
    m = _index(m, 4, "basis index")
    j = _index(j, 9, "physicist outcome")
    return _as_physicist_basis(basis).labels[j][m]



def _pair_index(index: np.ndarray) -> np.ndarray:
    """(n, k, k) flat positions 81 i + j of the label pairs (i, j) of each
    set, given as a row of ALL_LABELS positions."""
    return 81 * index[:, :, None] + index[:, None]


def _set_deviations(index: np.ndarray) -> np.ndarray:
    """For each set, given as a row of ALL_LABELS positions, the worst entry of
    |Gram - I| over its bracket states, read off the cached bracket Gram
    matrix.  Zero (to round-off) exactly when the set's states are orthonormal."""
    gram = bracket_gram().take(_pair_index(index))
    return np.abs(gram - _identity(index.shape[1])).max(axis=(1, 2))


@lru_cache(maxsize=None)
def _search() -> tuple[np.ndarray, tuple[tuple[BracketLabel, ...], ...]]:
    """``search_bases``' sets, derived once: their (72, 9) read-only intp
    ALL_LABELS positions and their label tuples, in one order.

    The sets through label 0 grow one larger adjacent label at a time, each
    partial set carrying the labels that may still join it.  Agreement counts
    equal digits, so adding one digit vector mod 3 to both labels keeps it:
    the translates of those sets are all the sets, each found once per member."""
    later = np.triu(agreement_matrix() == 1)  # later[i, j]: j > i, and they agree once
    sets, candidates = np.zeros((1, 1), dtype=np.intp), later[:1]
    for _ in range(8):  # label 0 and eight more
        rows, last = np.nonzero(candidates)
        sets = np.column_stack([sets[rows], last])
        candidates = candidates[rows] & later[last]
    digits = _label_digits()
    shifted = _label_index((digits[sets] + digits[:, None, None]) % 3, 3).reshape(-1, 9)
    # one of each, as sorted tuples, ordered as tuples are: column 0 first.  No
    # numpy sort: its code is ~0.3 MB of every search's peak, for 648 rows
    rows = sorted({tuple(sorted(row)) for row in shifted.tolist()})
    found = _readonly(np.array(rows, dtype=np.intp).reshape(-1, 9))
    return found, tuple(operator.itemgetter(*s)(ALL_LABELS) for s in rows)


def search_bases() -> tuple[tuple[BracketLabel, ...], ...]:
    """Every 9-label set whose members pairwise agree in exactly one
    coordinate, so that their bracket states are orthonormal: the 9-cliques
    of ``agreement_matrix() == 1`` (72 of them; Hayashi, Horibe and
    Hashimoto, Phys. Rev. A 71, 052331 (2005)).  Each set is sorted, and so
    is the result.  This is the tuple view of ``_search``, run once per process.
    """
    return _search()[1]


def search_report() -> tuple[list[Check], int | None, np.ndarray]:
    """``search-bases``' certificate of ``search_bases()``: the checks
    ``search-reference-present``, ``search-recertification``,
    ``search-coverage`` and ``search-certainty``, the reference set's index
    (None when absent), and the sets as a (72, 9, 4) int8 array of label digits.

    ``search-coverage`` counts the wrong entries of the sets' 81 x 81 label
    pair count, plus the adjacent sets out of strictly increasing order.
    ``search-certainty`` counts the (trio member, set) pairs where the member
    is not selected by exactly three of the set's labels.  With
    ``bracket-trio-selectivity`` (a bracket meets the trio member its label
    selects with squared overlap 1/3, and no other) and
    ``search-recertification`` (a set's nine states are orthonormal), the
    collapse after the king's (m, k) then gives three physicist outcomes of
    1/3, each a label with k_m = k that infers k: ``retrodiction-certainty``
    for every set, in integers."""
    sets = search_bases()
    index = _search()[0]  # the sets' ALL_LABELS positions
    reference = tuple(sorted(PHYSICIST_LABELS))
    present = reference in sets
    reference_index = sets.index(reference) if present else None
    pairs = np.bincount(_pair_index(index).ravel(), minlength=81 * 81)
    wrong = int((pairs.reshape(81, 81) != _coverage()).sum())
    wrong += sum(a >= b for a, b in zip(sets, sets[1:]))
    uncertain = int((selection_matrix()[:, index].sum(axis=2) != 3).sum())
    checks = [
        Check("search-reference-present", present, float(not present)),
        within("search-recertification", _set_deviations(index)),
        Check("search-coverage", wrong == 0, float(wrong)),
        Check("search-certainty", uncertain == 0, float(uncertain)),
    ]
    return checks, reference_index, _label_digits()[index]


def invariant_checks() -> list[Check]:
    """The bracket family's verification suite as named checks."""
    checks = []

    psi0 = prepare_psi0()
    forms = entangled_forms()
    distances = [abs(1.0 - abs(inner_product(psi0, f))) for f in forms]  # each |<psi_0|f>| is 1
    checks.append(within("entangled-four-forms", distances))

    psi = build_psi_basis()
    gram = _orthonormality_deviation(psi.matrix)
    checks.append(within("psi-basis-gram", gram))

    mixing = fourier_matrix()
    checks.append(within("mixing-unitarity", _orthonormality_deviation(mixing)))

    checks.append(within("paired-orthogonality", gram[1::2, 2::2].diagonal()))  # (2m+1, 2m+2)

    trios, kets = trio_matrix(), psi.matrix.T  # row i of kets is psi_i
    # row k of (mixing^T @ triples[m]) is column k of (psi_0, psi_2m+1, psi_2m+2) @ mixing
    triples = kets[[[0, 1, 2], [0, 3, 4], [0, 5, 6], [0, 7, 8]]]
    checks.append(within("trio-reconstruction",
                         np.abs(_product(mixing.T, triples) - trios.reshape(4, 3, 9))))

    # |T* B|^2 = S / 3: trio member (m, k) meets bracket i with squared
    # overlap 1/3 where label i selects (m, k), and not at all elsewhere
    overlaps = np.abs(_product(trios.conj(), bracket_matrix())) ** 2
    checks.append(within("bracket-trio-selectivity", np.abs(overlaps - selection_matrix() / 3.0)))

    dev = np.abs(bracket_gram() - _law_gram())
    checks.append(within("bracket-overlap-law", dev))

    pb = build_physicist_basis()
    checks.append(within("physicist-basis-gram", _orthonormality_deviation(pb.basis.matrix)))
    return checks
