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
    """

    dim: int
    bases: tuple[OrthonormalBasis, ...]
    matrices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ContractViolation(f"unsupported dimension {self.dim}")
        bases = tuple(self.bases)
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
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "matrices", _readonly(np.array([b.matrix for b in bases])))


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
        vectors = [[v.amps for v in basis] for basis in bases]
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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A 3x3 statistical operator: Hermitian, unit trace, positive."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128).copy()
        if m.shape != (3, 3):
            raise ContractViolation(f"expected a 3x3 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ContractViolation("density matrix entries must be finite")
        if np.abs(m - m.conj().T).max() > TOL:
            raise ContractViolation("density matrix must be Hermitian")
        if abs(m.trace() - 1.0) > TOL:
            raise ContractViolation(f"density matrix trace must be 1, got {m.trace():.12f}")
        smallest = np.linalg.eigvalsh(m)[0]
        if smallest < -TOL:
            raise ContractViolation(
                f"density matrix must be positive, smallest eigenvalue {smallest:.3e}"
            )
        object.__setattr__(self, "entries", _readonly(m))


def random_density_matrix(rng: np.random.Generator) -> DensityMatrix:
    """GG*/tr(GG*) for G with independent standard complex Gaussian entries."""
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Outcome probabilities p[m][k] for the four qutrit bases; rows sum to 1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.shape != (4, 3):
            raise ContractViolation(f"expected a 4x3 table, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ContractViolation("probabilities must be finite")
        if v.min() < -TOL or v.max() > 1.0 + TOL:
            raise ContractViolation("probabilities must lie in [0, 1]")
        sums = v.sum(axis=1)
        worst = np.abs(sums - 1.0).max()
        if worst > TOL:
            raise ContractViolation(f"table rows must sum to 1, worst deviation {worst:.3e}")
        object.__setattr__(self, "values", _readonly(np.clip(v, 0.0, 1.0)))


def probabilities_from_density(
    rho: DensityMatrix | np.ndarray, mubs: MubSet
) -> ProbabilityTable:
    """p[m][k] = <m_k| rho |m_k> over the four qutrit bases."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    if mubs.dim != 3:
        raise ContractViolation("tomography is defined for the qutrit set only")
    raw = np.einsum("mik,ij,mjk->mk", mubs.matrices.conj(), rho.entries, mubs.matrices)
    if np.abs(raw.imag).max() > TOL:
        raise ContractViolation("probabilities came out non-real")
    return ProbabilityTable(raw.real)


def density_from_probabilities(
    table: ProbabilityTable | np.ndarray, mubs: MubSet
) -> DensityMatrix:
    """Reconstruct rho = sum_{m,k} |m_k>(p[m][k] - 1/4)<m_k|."""
    if not isinstance(table, ProbabilityTable):
        table = ProbabilityTable(table)
    if mubs.dim != 3:
        raise ContractViolation("tomography is defined for the qutrit set only")
    u = mubs.matrices
    return DensityMatrix(np.einsum("mik,mk,mjk->ij", u, table.values - 0.25, u.conj()))


def probability_map_rank(mubs: MubSet) -> int:
    """Rank of the linear map from Hermitian operators to the 12 probabilities.

    Rank 9 means the twelve probabilities carry 8 independent parameters on
    top of the trace, i.e. the four row sums are the only affine constraints
    and the reconstruction above is exact.  Probability (m, k) of an operator
    is its real Hilbert-Schmidt product with the projector |m_k><m_k|, so the
    rank is that of the projectors' real and imaginary parts side by side.
    """
    u = mubs.matrices
    projectors = np.einsum("mik,mjk->mkij", u, u.conj()).reshape(-1, mubs.dim**2)
    return int(np.linalg.matrix_rank(np.hstack([projectors.real, projectors.imag]), tol=TOL))


def invariant_checks(rng: np.random.Generator, trials: int = 100) -> list[Check]:
    """The module's full verification suite as named checks."""
    checks = []
    for name, mubs in (("qutrit", build_qutrit_mubs()), ("qubit", build_qubit_mubs())):
        report = certify_unbiasedness(mubs)
        checks.append(
            Check(f"{name}-basis-gram", report.same_basis_deviation < TOL, report.same_basis_deviation)
        )
        checks.append(
            Check(f"{name}-unbiasedness", report.cross_basis_deviation < TOL, report.cross_basis_deviation)
        )
    qutrit = build_qutrit_mubs()
    worst = 0.0
    for _ in range(trials):
        rho = random_density_matrix(rng)
        rebuilt = density_from_probabilities(probabilities_from_density(rho, qutrit), qutrit)
        worst = max(worst, float(np.abs(rebuilt.entries - rho.entries).max()))
    checks.append(Check("tomography-round-trip", worst < TOL, worst))
    rank = probability_map_rank(qutrit)
    checks.append(Check("probability-map-rank", rank == 9, float(abs(rank - 9))))
    return checks
