"""Dense complex linear algebra for small fixed dimensions.

States are explicit amplitude vectors over an ordered basis (dimension 2, 3,
or 9 in this package).  Two-atom states live in dimension 9 with the flat
index convention (i, j) -> 3*i + j: the given atom is the left tensor factor,
the auxiliary atom the right one.

All containers are immutable after construction (their arrays are marked
read-only) and safe to share across threads.  Every function here is pure
except ``sample_outcome``, which advances only the random generator passed
to it.
"""

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Tolerance for every equality, normalization, and orthonormality check.
# All constants in play are 1/sqrt(3), 1/3, and cube roots of unity, so
# round-off at these dimensions sits many orders of magnitude below this.
TOL = 1e-10


class ContractViolation(ValueError):
    """An argument broke an operation's precondition."""


class ImpossibleOutcome(ValueError):
    """A projection left (numerically) nothing behind."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _index(value, stop: int | None, what: str, start: int = 0) -> int:
    """``value`` as an int in [start, stop) (no upper end when stop is None);
    a non-integer, such as 1.5 or 1.0, or one out of range is a ContractViolation."""
    try:
        v = operator.index(value)
    except TypeError:
        raise ContractViolation(f"{what} must be an integer, got {value!r}") from None
    if v < start or (stop is not None and v >= stop):
        raise ContractViolation(f"{what} {v} outside [{start}, {'inf' if stop is None else stop})")
    return v


def _as_state(value, what: str, dim: int | None = None) -> "StateVector":
    """``value`` if it is a StateVector (of dimension ``dim`` when given);
    anything else is a ContractViolation."""
    if not isinstance(value, StateVector):
        raise ContractViolation(f"{what} must be a StateVector, got {type(value).__name__}")
    if dim is not None and value.dim != dim:
        raise ContractViolation(f"{what} must have dimension {dim}, got {value.dim}")
    return value


def _as_basis(value, what: str, dim: int | None = None) -> "OrthonormalBasis":
    """``value`` if it is an OrthonormalBasis (of dimension ``dim`` when
    given); anything else is a ContractViolation."""
    if not isinstance(value, OrthonormalBasis):
        raise ContractViolation(f"{what} must be an OrthonormalBasis, got {type(value).__name__}")
    if dim is not None and value.dim != dim:
        raise ContractViolation(f"{what} must have dimension {dim}, got {value.dim}")
    return value


def _as_generator(value, method: str):
    """``value`` if it has the numpy Generator method ``method`` (so
    stand-ins drawing given numbers still work); anything else is a
    ContractViolation."""
    if not callable(getattr(value, method, None)):
        raise ContractViolation(f"drawing needs a numpy Generator, got {type(value).__name__}")
    return value


def _numeric_vector(values, kinds: str, what: str) -> np.ndarray:
    """``values`` as a 1-d array of numpy dtype ``kinds``; anything else,
    such as a matrix, a string or a ragged list, is a ContractViolation."""
    try:
        v = np.asarray(values)
    except ValueError:
        raise ContractViolation(f"{what} must form a regular array") from None
    if v.ndim != 1 or v.dtype.kind not in kinds:
        raise ContractViolation(
            f"{what} must be a 1-d array of numbers, got shape {v.shape} of dtype {v.dtype}"
        )
    return v


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over a fixed ordered basis."""

    amps: np.ndarray

    def __post_init__(self):
        amps = _numeric_vector(self.amps, "biufc", "state amplitudes").astype(np.complex128)
        if not np.all(np.isfinite(amps)):
            raise ContractViolation("state amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > TOL:
            raise ContractViolation(
                f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}"
            )
        object.__setattr__(self, "amps", _readonly(amps))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


def standard_basis_vector(dim: int, index: int) -> StateVector:
    """Unit vector e_index in the given dimension."""
    dim = _index(dim, None, "dimension", start=1)
    index = _index(index, dim, "basis vector index")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """An ordered set of dim mutually orthonormal vectors spanning dim space.

    ``matrix`` holds the vectors as columns, for fast Gram and overlap math.
    """

    vectors: tuple[StateVector, ...]
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            vectors = tuple(_as_state(v, "a basis vector") for v in self.vectors)
        except TypeError:
            raise ContractViolation("a basis takes a sequence of StateVectors") from None
        if not vectors:
            raise ContractViolation("a basis needs at least one vector")
        dim = vectors[0].dim
        if any(v.dim != dim for v in vectors):
            raise ContractViolation("basis vectors must share one dimension")
        if len(vectors) != dim:
            raise ContractViolation(
                f"a spanning basis in dimension {dim} needs {dim} vectors, "
                f"got {len(vectors)}"
            )
        matrix = np.stack([v.amps for v in vectors], axis=1)
        dev = np.abs(matrix.conj().T @ matrix - np.eye(dim)).max()
        if dev > TOL:
            raise ContractViolation(f"basis is not orthonormal: Gram deviation {dev:.3e}")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "matrix", _readonly(matrix))

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, k: int) -> StateVector:
        return self.vectors[k]

    def __iter__(self):
        return iter(self.vectors)


def standard_basis(dim: int) -> OrthonormalBasis:
    return OrthonormalBasis(tuple(standard_basis_vector(dim, k) for k in range(dim)))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugating a's amplitudes."""
    if _as_state(a, "bra").dim != _as_state(b, "ket").dim:
        raise ContractViolation(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Two-atom product state; amplitude a_i * b_j sits at index 3*i + j."""
    _as_state(a, "the given atom's state", 3)
    _as_state(b, "the auxiliary atom's state", 3)
    return StateVector(np.kron(a.amps, b.amps))


def project_and_normalize(state: StateVector, subspace_vector: StateVector) -> StateVector:
    """Collapse the given atom of a two-atom state onto a single-atom vector.

    Applies the rank-1 projector onto ``subspace_vector`` on the given atom
    (identity on the auxiliary one) and renormalizes.  Raises
    ``ImpossibleOutcome`` when the projection is (numerically) zero, i.e.
    the requested outcome cannot occur.
    """
    grid = _as_state(state, "a two-atom state", 9).amps.reshape(3, 3)
    v = _as_state(subspace_vector, "a single-atom vector", 3).amps
    flat = (np.outer(v, v.conj()) @ grid).reshape(-1)
    norm = np.linalg.norm(flat)
    if norm < TOL:
        raise ImpossibleOutcome("projection removed the whole state")
    return StateVector(flat / norm)


def born_probabilities(state: StateVector, basis: OrthonormalBasis) -> np.ndarray:
    """|<basis_j|state>|^2 for each j; sums to 1 for any normalized state."""
    if _as_state(state, "state").dim != _as_basis(basis, "basis").dim:
        raise ContractViolation(f"dimension mismatch: state {state.dim}, basis {basis.dim}")
    overlaps = basis.matrix.conj().T @ state.amps
    return np.abs(overlaps) ** 2


def _prepare_distribution(probs) -> tuple[np.ndarray, np.ndarray]:
    """Validate a probability vector and return (outcome indices, cdf).

    Entries below TOL are clamped to exactly zero (and the rest
    renormalized), so an analytically impossible outcome can never be
    drawn because of round-off.
    """
    p = _numeric_vector(probs, "biuf", "probabilities").astype(float)
    if p.size == 0 or not np.all(np.isfinite(p)):
        raise ContractViolation("probabilities must be a finite non-empty sequence")
    if p.min() < -TOL or abs(p.sum() - 1.0) > TOL:
        raise ContractViolation(
            f"malformed distribution: min {p.min():.3e}, sum {p.sum():.12f}"
        )
    keep = np.flatnonzero(p >= TOL)
    weights = p[keep]
    return keep, np.cumsum(weights / weights.sum())


def sample_outcome(probs: Sequence[float] | np.ndarray, rng: np.random.Generator, size: int | None = None):
    """Draw an outcome index from a probability vector.

    Deterministic given the generator state.  With ``size`` given, returns
    that many independent draws as an integer array.
    """
    if size is not None:
        size = _index(size, None, "size")
    keep, cdf = _prepare_distribution(probs)
    draws = _as_generator(rng, "random").random(size)
    picked = np.minimum(np.searchsorted(cdf, draws, side="right"), keep.size - 1)
    outcome = keep[picked]
    return int(outcome) if size is None else outcome


def equal_up_to_global_phase(a: StateVector, b: StateVector) -> bool:
    """True iff the normalized states differ by at most a unit-modulus factor."""
    if _as_state(a, "state").dim != _as_state(b, "state").dim:
        raise ContractViolation(f"dimension mismatch: {a.dim} vs {b.dim}")
    return bool(abs(np.vdot(a.amps, b.amps)) >= 1.0 - TOL)
