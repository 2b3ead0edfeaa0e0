"""Mutually unbiased bases for one qutrit and one qubit, plus tomography.

A collection of orthonormal bases is mutually unbiased when every vector of
one basis has squared overlap 1/d with every vector of any other basis: a
sharp outcome in one basis makes all outcomes of the others equally likely.
The maximal collections built here are the four-basis qutrit set (a
reference basis plus three bases written as unitary column matrices over
cube roots of unity) and the three Pauli eigenbases for a qubit.

The qutrit set is tomographically complete: the twelve outcome
probabilities p[m][k] determine the density matrix uniquely through the
linear reconstruction

    rho = sum_{m,k} |m_k> (p[m][k] - 1/4) <m_k|

implemented in ``density_from_probabilities``.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .linalg import (
    TOL,
    ContractViolation,
    OrthonormalBasis,
    StateVector,
    _as_basis,
    _as_generator,
    _as_state,
    _index,
    _readonly,
    standard_basis,
)
from .reporting import Check

# Primitive cube root of unity; every non-reference qutrit amplitude is a
# power of it over sqrt(3).
OMEGA = np.exp(2j * np.pi / 3)


@lru_cache(maxsize=None)
def fourier_matrix() -> np.ndarray:
    """The 3x3 unitary with entries OMEGA**(j*k) / sqrt(3)."""
    j, k = np.indices((3, 3))
    return _readonly(OMEGA ** (j * k) / np.sqrt(3))


@lru_cache(maxsize=None)
def qutrit_basis_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns of matrix m-1 are the kets of basis m in the reference basis."""
    x = OMEGA
    first = np.array([[x, 1, 1], [1, x, 1], [1, 1, x]], dtype=complex) / np.sqrt(3)
    second = np.array([[x * x, 1, 1], [1, x * x, 1], [1, 1, x * x]], dtype=complex) / np.sqrt(3)
    return _readonly(first), _readonly(second), fourier_matrix()


@dataclass(frozen=True, eq=False)
class MubSet:
    """A complete family of dim+1 pairwise unbiased orthonormal bases.

    ``matrices[m]`` is ``bases[m].matrix``: the kets of basis m as columns.
    Row ``dim*m + k`` of ``projectors`` is vec(|m_k><m_k|), the projector
    onto ket k of basis m flattened row-major: 12 x 9 for the qutrit set.
    """

    dim: int
    bases: tuple[OrthonormalBasis, ...]
    matrices: np.ndarray = field(init=False, repr=False)
    projectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if _index(self.dim, None, "dimension") not in (2, 3):
            raise ContractViolation(f"unsupported dimension {self.dim}")
        try:
            bases = tuple(_as_basis(b, "a basis of the set") for b in self.bases)
        except TypeError:
            raise ContractViolation("a MUB set takes a sequence of bases") from None
        if len(bases) != self.dim + 1:
            raise ContractViolation(
                f"dimension {self.dim} takes {self.dim + 1} bases, got {len(bases)}"
            )
        if any(b.dim != self.dim for b in bases):
            raise ContractViolation("basis dimension does not match the set dimension")
        for a in range(len(bases)):
            for b in range(a + 1, len(bases)):
                overlap = np.abs(bases[a].matrix.conj().T @ bases[b].matrix) ** 2
                dev = np.abs(overlap - 1.0 / self.dim).max()
                if dev > TOL:
                    raise ContractViolation(
                        f"bases {a} and {b} are not unbiased: deviation {dev:.3e}"
                    )
        u = np.array([b.matrix for b in bases])
        projectors = np.einsum("mik,mjk->mkij", u, u.conj()).reshape(-1, self.dim**2)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "matrices", _readonly(u))
        object.__setattr__(self, "projectors", _readonly(projectors))


@lru_cache(maxsize=None)
def build_qutrit_mubs() -> MubSet:
    """The four complementary spin-1 eigenbases, reference basis first."""

    def columns(matrix: np.ndarray) -> OrthonormalBasis:
        return OrthonormalBasis(tuple(StateVector(col) for col in matrix.T))

    return MubSet(3, (standard_basis(3),) + tuple(columns(m) for m in qutrit_basis_matrices()))


@lru_cache(maxsize=None)
def build_qubit_mubs() -> MubSet:
    """The three Pauli eigenbases: z first, then x = (|+> +- |->)/sqrt(2),
    then y = (|+> +- i|->)/sqrt(2), with the usual phase conventions."""
    s = 2**-0.5
    x_basis = OrthonormalBasis((StateVector([s, s]), StateVector([s, -s])))
    y_basis = OrthonormalBasis((StateVector([s, 1j * s]), StateVector([s, -1j * s])))
    return MubSet(2, (standard_basis(2), x_basis, y_basis))


@dataclass(frozen=True)
class UnbiasednessReport:
    """Worst deviations of a basis family from orthonormality and unbiasedness."""

    dim: int
    same_basis_deviation: float
    cross_basis_deviation: float

    @property
    def passed(self) -> bool:
        return self.same_basis_deviation < TOL and self.cross_basis_deviation < TOL


def certify_unbiasedness(
    bases: MubSet | Sequence[Sequence[StateVector]],
) -> UnbiasednessReport:
    """Measure how far a family of bases is from being mutually unbiased.

    Accepts a MubSet or a raw sequence of vector sequences, so deliberately
    broken fixtures can be certified too (a MubSet cannot be constructed in
    a broken state).
    """
    if isinstance(bases, MubSet):
        grids = bases.matrices
    else:
        try:
            vectors = [[_as_state(v, "a basis vector").amps for v in basis] for basis in bases]
        except TypeError:
            raise ContractViolation("a family takes a MubSet or sequences of vectors") from None
        if not vectors or not all(vectors):
            raise ContractViolation("a family needs bases, and each basis needs vectors")
        dims = {a.shape[0] for basis in vectors for a in basis}
        if len(dims) != 1:
            raise ContractViolation(f"mixed vector dimensions {sorted(dims)}")
        dim = dims.pop()
        if any(len(basis) != dim for basis in vectors):
            raise ContractViolation(f"each basis in dimension {dim} needs {dim} vectors")
        grids = np.array([np.stack(basis, axis=1) for basis in vectors])
    count, dim = grids.shape[:2]
    # overlaps[a, b] = grids[a]^dagger grids[b]; cross holds the blocks with a != b
    overlaps = np.einsum("aik,bil->abkl", grids.conj(), grids)
    cross = ~np.eye(count, dtype=bool)
    same = np.abs(overlaps[~cross] - np.eye(dim)).max()
    bias = np.abs(np.abs(overlaps[cross]) ** 2 - 1.0 / dim).max(initial=0.0)
    return UnbiasednessReport(dim, float(same), float(bias))


def _numeric_stack(values, kinds: str, dtype, shape: tuple[int, int], what: str) -> np.ndarray:
    """A ``dtype`` copy of a (..., *shape) stack of finite numbers of numpy
    dtype ``kinds``, flattened to (n, *shape); anything else is a
    ContractViolation."""
    try:
        raw = np.asarray(values)
    except ValueError:
        raise ContractViolation(f"{what} entries must form a regular array") from None
    if raw.dtype.kind not in kinds:
        raise ContractViolation(f"{what} entries must be numbers, got dtype {raw.dtype}")
    if raw.shape[-2:] != shape:
        raise ContractViolation(
            f"expected {what} stacks of shape (..., {shape[0]}, {shape[1]}), got {raw.shape}"
        )
    stack = raw.astype(dtype).reshape(-1, *shape)
    _reject(~np.isfinite(stack).all(axis=(1, 2)), f"{what} entries must be finite")
    return stack


def _reject(bad: np.ndarray, message: str, detail=None) -> None:
    """ContractViolation naming the stack index of the first flagged member,
    after its ``detail`` value if given; nothing if none is flagged."""
    if bad.any():
        i = int(bad.argmax())
        value = "" if detail is None else f" {detail[i]:.3e}"
        raise ContractViolation(f"{message}{value} (stack index {i})")


def _check_densities(values) -> np.ndarray:
    """Validated (n, 3, 3) complex copy of a (..., 3, 3) stack of density
    matrices: each finite, Hermitian, of unit trace and positive (one
    batched eigvalsh); the stack index of the first offender counts the
    leading axes flattened."""
    m = _numeric_stack(values, "biufc", np.complex128, (3, 3), "density matrix")
    skew = np.abs(m - m.conj().swapaxes(1, 2)).max(axis=(1, 2))
    _reject(skew > TOL, "density matrix must be Hermitian, deviation", skew)
    trace_error = np.abs(np.trace(m, axis1=1, axis2=2) - 1.0)
    _reject(trace_error > TOL, "density matrix trace must be 1, deviation", trace_error)
    smallest = np.linalg.eigvalsh(m)[:, 0]
    _reject(smallest < -TOL, "density matrix must be positive, smallest eigenvalue", smallest)
    return m


def _check_tables(values) -> np.ndarray:
    """Validated (n, 4, 3) float copy, clipped to [0, 1], of a (..., 4, 3)
    stack of probability tables: each finite, in [0, 1] and with rows
    summing to 1; the stack index counts the leading axes flattened."""
    v = _numeric_stack(values, "biuf", np.float64, (4, 3), "probability table")
    outside = np.maximum(-v, v - 1.0).max(axis=(1, 2))
    _reject(outside > TOL, "probabilities must lie in [0, 1], overshoot", outside)
    row_error = np.abs(v.sum(axis=2) - 1.0).max(axis=1)
    _reject(row_error > TOL, "table rows must sum to 1, worst deviation", row_error)
    return np.clip(v, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A 3x3 statistical operator: Hermitian, unit trace, positive."""

    entries: np.ndarray

    def __post_init__(self):
        m = _check_densities(self.entries)
        if np.ndim(self.entries) != 2:
            raise ContractViolation("expected one 3x3 density matrix, got a stack")
        object.__setattr__(self, "entries", _readonly(m[0]))


def _random_densities(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 3, 3) unvalidated draws GG*/tr(GG*); draw i is bit for bit
    the i-th of ``count`` sequential ``random_density_matrix`` calls."""
    g = rng.standard_normal((count, 2, 3, 3))
    g = g[:, 0] + 1j * g[:, 1]
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def random_density_matrix(rng: np.random.Generator) -> DensityMatrix:
    """GG*/tr(GG*) for G with independent standard complex Gaussian entries
    (the real parts of G drawn before the imaginary parts)."""
    return DensityMatrix(_random_densities(_as_generator(rng, "standard_normal"), 1)[0])


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Outcome probabilities p[m][k] for the four qutrit bases; rows sum to 1."""

    values: np.ndarray

    def __post_init__(self):
        v = _check_tables(self.values)
        if np.ndim(self.values) != 2:
            raise ContractViolation("expected one 4x3 probability table, got a stack")
        object.__setattr__(self, "values", _readonly(v[0]))


def _as_mub_set(mubs) -> MubSet:
    """``mubs`` if it is a MubSet; anything else is a ContractViolation."""
    if not isinstance(mubs, MubSet):
        raise ContractViolation(f"mubs must be a MubSet, got {type(mubs).__name__}")
    return mubs


def _qutrit_projectors(mubs: MubSet) -> np.ndarray:
    if _as_mub_set(mubs).dim != 3:
        raise ContractViolation("tomography is defined for the qutrit set only")
    return mubs.projectors


def _probabilities(densities: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """(n, 4, 3) probabilities vec(rho) @ P^dagger of a (..., 3, 3) stack."""
    raw = densities.reshape(-1, 9) @ projectors.conj().T
    imaginary = np.abs(raw.imag).max(axis=1)
    _reject(imaginary > TOL, "probabilities came out non-real, imaginary part", imaginary)
    return raw.real.reshape(-1, 4, 3)


def _densities(tables: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """(n, 3, 3) reconstructions (p - 1/4) @ P of a (..., 4, 3) stack."""
    return ((tables.reshape(-1, 12) - 0.25) @ projectors).reshape(-1, 3, 3)


def probabilities_from_density(
    rho: DensityMatrix | np.ndarray, mubs: MubSet
) -> ProbabilityTable:
    """p[m][k] = <m_k| rho |m_k> over the four qutrit bases."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    return ProbabilityTable(_probabilities(rho.entries, _qutrit_projectors(mubs))[0])


def density_from_probabilities(
    table: ProbabilityTable | np.ndarray, mubs: MubSet
) -> DensityMatrix:
    """Reconstruct rho = sum_{m,k} |m_k>(p[m][k] - 1/4)<m_k|."""
    if not isinstance(table, ProbabilityTable):
        table = ProbabilityTable(table)
    return DensityMatrix(_densities(table.values, _qutrit_projectors(mubs))[0])


def probability_map_rank(mubs: MubSet) -> int:
    """Rank of the linear map from Hermitian operators to the 12 probabilities.

    Rank 9 means the twelve probabilities carry 8 independent parameters on
    top of the trace, i.e. the four row sums are the only affine constraints
    and the reconstruction above is exact.  Probability (m, k) of an operator
    is its real Hilbert-Schmidt product with the projector |m_k><m_k|, so the
    rank is that of the projectors' real and imaginary parts side by side.
    """
    projectors = _as_mub_set(mubs).projectors
    return int(np.linalg.matrix_rank(np.hstack([projectors.real, projectors.imag]), tol=TOL))


def invariant_checks(rng: np.random.Generator, trials: int = 100) -> list[Check]:
    """The module's full verification suite as named checks."""
    trials = _index(trials, None, "trials", start=1)
    checks = []
    for name, mubs in (("qutrit", build_qutrit_mubs()), ("qubit", build_qubit_mubs())):
        report = certify_unbiasedness(mubs)
        checks.append(
            Check(f"{name}-basis-gram", report.same_basis_deviation < TOL, report.same_basis_deviation)
        )
        checks.append(
            Check(f"{name}-unbiasedness", report.cross_basis_deviation < TOL, report.cross_basis_deviation)
        )
    # every source, table and reconstruction of the stack is validated
    projectors = build_qutrit_mubs().projectors
    sources = _check_densities(_random_densities(rng, trials))
    tables = _check_tables(_probabilities(sources, projectors))
    rebuilt = _check_densities(_densities(tables, projectors))
    worst = float(np.abs(rebuilt - sources).max())
    checks.append(Check("tomography-round-trip", worst < TOL, worst))
    rank = probability_map_rank(build_qutrit_mubs())
    checks.append(Check("probability-map-rank", rank == 9, float(abs(rank - 9))))
    return checks
