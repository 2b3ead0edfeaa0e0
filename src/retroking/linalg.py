"""Dense complex linear algebra for small fixed dimensions.

States are explicit amplitude vectors over an ordered basis (dimension 2, 3,
or 9 in this package).  Two-atom states live in dimension 9 with the flat
index convention (i, j) -> 3*i + j: the given atom is the left tensor factor,
the auxiliary atom the right one.

All containers are immutable after construction (their arrays are marked
read-only) and safe to share across threads.  Every function here is pure
except ``sample_outcome``, which advances only the random generator passed
to it.

Every product of the package's arrays, real, complex or integer, goes through
``_product``, numpy's own einsum loop: no ``@``, ``dot``, ``vdot`` or other
BLAS-backed call, and no ``numpy.linalg`` routine outside the two fallbacks
in ``mub`` for a stack or map that fails its cheap test.  The matrices are at
most 9 x 81, where BLAS saves microseconds a call, and the first call of each
BLAS kernel faults in ~0.1-0.4 MB of its code in every process.
"""

import math
import operator
from functools import lru_cache
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


@lru_cache(maxsize=8)  # bounded: a caller's basis may be of any dimension
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity matrix."""
    return _readonly(np.eye(n))


def _index(value, stop: int, what: str, start: int = 0) -> int:
    """``value`` as an int in [start, stop); a non-integer, such as 1.5, 1.0
    or True, or one out of range is a ContractViolation."""
    if type(value) is int and start <= value < stop:
        return value
    try:
        if isinstance(value, bool):
            raise TypeError
        v = operator.index(value)
    except TypeError:
        raise ContractViolation(f"{what} must be an integer, got {value!r}") from None
    if not start <= v < stop:
        raise ContractViolation(f"{what} {v} outside [{start}, {stop})")
    return v


def _as_instance(value, cls: type, what: str, dim: int | None = None):
    """``value`` if it is a ``cls`` (of dimension ``dim`` when given);
    anything else is a ContractViolation."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ContractViolation(
            f"{what} must be {article} {cls.__name__}, got {type(value).__name__}"
        )
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


def _numbers(values, kinds: str, what: str, form: str, fits=None) -> np.ndarray:
    """``values`` as an array of numpy dtype ``kinds`` that ``fits`` accepts,
    when given: the one gate for a caller's array.  A ragged nest, another
    dtype, or an array ``fits`` refuses is a ContractViolation naming
    ``what`` must be ``form``; ``fits`` sees only arrays of ``kinds``."""
    try:
        array = np.asarray(values)
    except ValueError:  # nested sequences of unequal lengths
        raise ContractViolation(f"{what} must form a regular array") from None
    if array.dtype.kind not in kinds or (fits is not None and not fits(array)):
        raise ContractViolation(
            f"{what} must be {form}, got shape {array.shape} of dtype {array.dtype}"
        )
    return array


def _numeric_vector(values, kinds: str, what: str) -> np.ndarray:
    """``values`` as a 1-d array of numpy dtype ``kinds``; anything else,
    such as a matrix, a string or a ragged list, is a ContractViolation."""
    return _numbers(values, kinds, what, "a 1-d array of numbers", lambda v: v.ndim == 1)


def _product(a, b) -> np.ndarray:
    """``a @ b`` by numpy's own einsum loop, which never calls BLAS (einsum
    without ``optimize``): the package's one product.  ``b`` is a vector or
    a matrix, or a stack of them; ``a`` a vector, a matrix or a stack.  The
    contraction runs over the last axis of both operands, ``b``'s made
    contiguous, where einsum's loop is fastest; a real ``a`` meets a complex
    matrix ``b`` as its real and imaginary parts side by side, one real
    contraction at half the cost of a mixed one."""
    a, b = np.asarray(a), np.asarray(b)
    if b.ndim == 1:
        return np.einsum("...k,k->...", a, b)
    if b.dtype.kind == "c" and a.dtype.kind != "c":
        return _product(a, np.ascontiguousarray(b).view(np.float64)).view(np.complex128)
    rows = np.ascontiguousarray(b.swapaxes(-1, -2))
    return np.einsum("...ik,...jk->...ij" if a.ndim > 1 else "k,...jk->...j", a, rows)


def _orthonormality_deviation(matrix: np.ndarray) -> np.ndarray:
    """|M^dagger M - I| entry by entry, for a matrix or each of a stack of
    them: zero when M's columns are orthonormal."""
    return np.abs(_product(matrix.conj().swapaxes(-1, -2), matrix) - _identity(matrix.shape[-1]))


class _Record:
    """Base of the package's immutable records.  A record's fields are its
    ``__slots__``; ``_Record.__init__`` alone stores them, once, in slot
    order, and marks each array among them read-only, so a subclass hands
    it arrays of its own.  Assigning or deleting a field afterwards raises
    AttributeError.  Records compare by identity unless a class opts into
    field-wise ``==`` and ``hash`` with ``_value_eq`` and ``_value_hash``.
    The repr names every field but those in ``_repr_omits``; pickling and
    copying rebuild a record through ``_Record.__init__``."""

    __slots__ = ()
    _repr_omits: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            if isinstance(value, np.ndarray):
                _readonly(value)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _value_eq(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def _value_hash(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__
                 if name not in self._repr_omits)
        return f"{type(self).__name__}({', '.join(shown)})"

    def __getstate__(self):
        return dict(zip(self.__slots__, self._values()))

    def __setstate__(self, state):
        _Record.__init__(self, *(state[name] for name in self.__slots__))


class StateVector(_Record):
    """Normalized complex amplitudes over a fixed ordered basis."""

    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray):
        amps = _numeric_vector(amps, "biufc", "state amplitudes").astype(np.complex128)
        # one reduction: it is NaN or infinite when an amplitude is (or on overflow)
        parts = amps.view(np.float64)  # re, im interleaved
        norm = math.sqrt(_product(parts, parts))
        if not math.isfinite(norm) and not np.isfinite(amps).all():
            raise ContractViolation("state amplitudes must be finite")
        if not abs(norm - 1.0) <= TOL:  # a NaN norm fails too
            raise ContractViolation(
                f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}"
            )
        super().__init__(amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


class OrthonormalBasis(_Record):
    """An ordered set of dim mutually orthonormal vectors spanning dim space.

    ``matrix`` holds the vectors as columns, for fast Gram and overlap math.
    """

    __slots__ = ("vectors", "matrix")
    _repr_omits = ("matrix",)

    def __init__(self, vectors: tuple[StateVector, ...]):
        try:
            vectors = tuple(_as_instance(v, StateVector, "a basis vector") for v in vectors)
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
        dev = _orthonormality_deviation(matrix).max()
        if dev > TOL:
            raise ContractViolation(f"basis is not orthonormal: Gram deviation {dev:.3e}")
        super().__init__(vectors, matrix)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, k: int) -> StateVector:
        return self.vectors[k]

    def __iter__(self):
        return iter(self.vectors)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugating a's amplitudes."""
    if _as_instance(a, StateVector, "bra").dim != _as_instance(b, StateVector, "ket").dim:
        raise ContractViolation(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(_product(a.amps.conj(), b.amps))


def project_and_normalize(state: StateVector, subspace_vector: StateVector) -> StateVector:
    """Collapse the given atom of a two-atom state onto a single-atom vector.

    Applies the rank-1 projector onto ``subspace_vector`` on the given atom
    (identity on the auxiliary one) and renormalizes.  Raises
    ``ImpossibleOutcome`` when the projection is (numerically) zero, i.e.
    the requested outcome cannot occur.
    """
    grid = _as_instance(state, StateVector, "a two-atom state", 9).amps.reshape(3, 3)
    v = _as_instance(subspace_vector, StateVector, "a single-atom vector", 3).amps
    flat = _product(v[:, None] * v.conj(), grid).reshape(-1)  # np.outer's product
    parts = flat.view(np.float64)  # re, im interleaved
    norm = math.sqrt(_product(parts, parts))
    if norm < TOL:
        raise ImpossibleOutcome("projection removed the whole state")
    return StateVector(flat / norm)


def born_probabilities(state: StateVector, basis: OrthonormalBasis) -> np.ndarray:
    """|<basis_j|state>|^2 for each j; sums to 1 for any normalized state."""
    state = _as_instance(state, StateVector, "state")
    if state.dim != _as_instance(basis, OrthonormalBasis, "basis").dim:
        raise ContractViolation(f"dimension mismatch: state {state.dim}, basis {basis.dim}")
    overlaps = _product(state.amps, basis.matrix.conj())
    return np.abs(overlaps) ** 2


def _cdf_rows(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one sampling rule, on each row of trusted probabilities: (cdf, index
    of the last kept entry).  Entries below TOL weigh 0.0, so an analytically
    impossible outcome is never drawn because of round-off; a dropped entry
    leaves every running sum as it was.  A row's total is numpy's ``.sum()``
    of its kept weights ``w`` (a running sum below 8), so its cdf holds
    ``np.cumsum(w / w.sum())`` at the kept entries, bit for bit."""
    kept = probs >= TOL
    weights = np.where(kept, probs, 0.0)
    total = weights.cumsum(axis=1)[:, -1]
    if probs.shape[1] >= 8:  # a narrower row cannot keep 8
        for i in np.flatnonzero(kept.sum(axis=1) >= 8).tolist():
            total[i] = probs[i, kept[i]].sum()
    cdf = (weights / total[:, None]).cumsum(axis=1)
    return cdf, kept.shape[1] - 1 - kept[:, ::-1].argmax(axis=1)


def _sample_rows(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The one draw: for each row of trusted probabilities, the outcome its
    uniform picks, the count of cdf entries at or below it."""
    cdf, last = _cdf_rows(probs)
    return np.minimum((cdf <= uniforms[:, None]).sum(axis=1), last)


def sample_outcome(probs: Sequence[float] | np.ndarray, rng: "np.random.Generator") -> int:
    """Draw an outcome index from a probability vector by ``_sample_rows``'s
    rule on one uniform.  Deterministic given the generator state."""
    p = _numeric_vector(probs, "biuf", "probabilities").astype(float)
    if not p.size or not np.isfinite(p).all():
        raise ContractViolation("probabilities must be a finite non-empty sequence")
    # an entry above 1 fails before the sum, which huge finite entries overflow
    if p.min() < -TOL or p.max() > 1.0 + TOL or abs(p.sum() - 1.0) > TOL:
        with np.errstate(over="ignore"):  # their sum here is inf
            raise ContractViolation(f"malformed distribution: min {p.min():.3e}, sum {p.sum():.12f}")
    return int(_sample_rows(p[None], _as_generator(rng, "random").random(1))[0])
