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

from functools import lru_cache

import numpy as np

from .linalg import (
    TOL,
    ContractViolation,
    OrthonormalBasis,
    StateVector,
    _Record,
    _as_generator,
    _as_instance,
    _identity,
    _orthonormality_deviation,
    _readonly,
)
from .reporting import Check, within

# Random density matrices the tomography-round-trip check reconstructs.
TOMOGRAPHY_TRIALS = 100

# Primitive cube root of unity; every non-reference qutrit amplitude is a
# power of it over sqrt(3).
OMEGA = np.exp(2j * np.pi / 3)


@lru_cache(maxsize=None)
def qutrit_basis_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns of matrix m-1 are the kets of basis m in the reference basis:
    OMEGA to the integer exponents [I, 2I, jk], over sqrt(3)."""
    j, k = np.indices((3, 3))
    powers = np.stack([j == k, 2 * (j == k), j * k])
    roots = np.array([OMEGA**p for p in range(5)])  # every power is below 5
    return tuple(map(_readonly, roots[powers] / np.sqrt(3)))


def fourier_matrix() -> np.ndarray:
    """The 3x3 unitary with entries OMEGA**(j*k) / sqrt(3): basis 3's kets."""
    return qutrit_basis_matrices()[2]


def _overlaps(grids: np.ndarray) -> np.ndarray:
    """overlaps[a, b] = grids[a]^dagger grids[b]: entry (k, l) is <a_k|b_l>
    for a stack of bases with their kets as columns."""
    return np.einsum("aik,bil->abkl", grids.conj(), grids)


def _bias(overlaps: np.ndarray) -> np.ndarray:
    """Per pair of bases (a, b), the worst ||<a_k|b_l>|^2 - 1/d|; zero on the
    diagonal, where a basis meets itself."""
    bias = np.abs(np.abs(overlaps) ** 2 - 1.0 / overlaps.shape[-1]).max(axis=(2, 3))
    np.fill_diagonal(bias, 0.0)
    return bias


class MubSet(_Record):
    """A complete family of dim+1 pairwise unbiased orthonormal bases.

    ``matrices[m]`` is ``bases[m].matrix``: the kets of basis m as columns.
    Row ``dim*m + k`` of ``projectors`` is vec(|m_k><m_k|), the projector
    onto ket k of basis m flattened row-major: 12 x 9 for the qutrit set.
    """

    __slots__ = ("bases", "dim", "matrices", "projectors")
    _repr_omits = ("matrices", "projectors")

    def __init__(self, bases: tuple[OrthonormalBasis, ...]):
        try:
            bases = tuple(
                _as_instance(b, OrthonormalBasis, "a basis of the set") for b in bases
            )
        except TypeError:
            raise ContractViolation("a MUB set takes a sequence of bases") from None
        dim = len(bases) - 1  # a complete family holds dim + 1 bases
        if dim not in (2, 3) or any(b.dim != dim for b in bases):
            dims = [b.dim for b in bases]
            raise ContractViolation(f"a MUB set takes d + 1 bases of dimension d = 2 or 3: {dims}")
        u = np.array([b.matrix for b in bases])
        bias = _bias(_overlaps(u))
        if bias.max() > TOL:
            a, b = np.unravel_index(bias.argmax(), bias.shape)
            raise ContractViolation(
                f"bases {a} and {b} are not unbiased: deviation {bias[a, b]:.3e}"
            )
        projectors = np.einsum("mik,mjk->mkij", u, u.conj()).reshape(-1, dim**2)
        super().__init__(bases, dim, u, projectors)


def _family(stack) -> MubSet:
    """The MUB set whose basis m has the columns of stack[m] as its kets."""
    return MubSet(tuple(OrthonormalBasis(tuple(map(StateVector, m.T))) for m in stack))


@lru_cache(maxsize=None)
def build_qutrit_mubs() -> MubSet:
    """The four complementary spin-1 eigenbases, reference basis first."""
    return _family((np.eye(3), *qutrit_basis_matrices()))


@lru_cache(maxsize=None)
def build_qubit_mubs() -> MubSet:
    """The three Pauli eigenbases: z first, then x = (|+> +- |->)/sqrt(2),
    then y = (|+> +- i|->)/sqrt(2), with the usual phase conventions."""
    s = 2**-0.5
    return _family(np.array([np.eye(2), [[s, s], [s, -s]], [[s, s], [1j * s, -1j * s]]]))


def certify_unbiasedness(mubs: MubSet) -> list[Check]:
    """The checks ``<family>-basis-gram`` and ``<family>-unbiasedness``: how
    far a MUB set is from orthonormal and unbiased, the family named from its
    dimension.  A set is built only within TOL of both (``MubSet`` names a
    broken family's worst pair), so they report the round-off its
    construction let through."""
    grids = _as_instance(mubs, MubSet, "mubs").matrices
    family = ("qubit", "qutrit")[mubs.dim - 2]
    return [
        within(f"{family}-basis-gram", _orthonormality_deviation(grids)),
        within(f"{family}-unbiasedness", _bias(_overlaps(grids))),
    ]


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


@lru_cache(maxsize=None)
def _positivity_shift() -> np.ndarray:
    """3 x 3 read-only 0.99 TOL I: ``_check_densities`` tests the Cholesky
    pivots of m plus it."""
    return _readonly(0.99 * TOL * _identity(3))


def _check_densities(values) -> np.ndarray:
    """Validated (n, 3, 3) complex copy of a (..., 3, 3) stack of density
    matrices: each finite, Hermitian, of unit trace and positive (the 3 x 3
    Cholesky pivots over the whole stack); the stack index of the first
    offender counts the leading axes flattened."""
    m = _numeric_stack(values, "biufc", np.complex128, (3, 3), "density matrix")
    skew = np.abs(m - m.conj().swapaxes(1, 2)).max(axis=(1, 2))
    _reject(skew > TOL, "density matrix must be Hermitian, deviation", skew)
    trace_error = np.abs(np.einsum("nii->n", m) - 1.0)
    _reject(trace_error > TOL, "density matrix trace must be 1, deviation", trace_error)
    # m + s*I factors by Cholesky only when every eigenvalue of m is above -s,
    # up to a round-off far below TOL - s: so a stack whose pivots, read from
    # the lower triangle as numpy's cholesky does, are all positive has none
    # below -TOL.  A zero pivot or an overflow makes -inf or nan, which fail
    # the test without a warning.  A stack that fails is judged, and its
    # offender named, by eigvalsh.
    a = m + _positivity_shift()
    with np.errstate(all="ignore"):
        d0 = a[:, 0, 0].real
        d1 = a[:, 1, 1].real - np.abs(a[:, 1, 0]) ** 2 / d0
        l21 = a[:, 2, 1] - a[:, 2, 0] * a[:, 1, 0].conj() / d0
        d2 = a[:, 2, 2].real - np.abs(a[:, 2, 0]) ** 2 / d0 - np.abs(l21) ** 2 / d1
    if not ((d0 > 0) & (d1 > 0) & (d2 > 0)).all():
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


class DensityMatrix(_Record):
    """A 3x3 statistical operator: Hermitian, unit trace, positive."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        m = _check_densities(entries)
        if np.ndim(entries) != 2:
            raise ContractViolation("expected one 3x3 density matrix, got a stack")
        super().__init__(m[0])


def _random_densities(rng: "np.random.Generator", count: int) -> np.ndarray:
    """(count, 3, 3) unvalidated draws GG*/tr(GG*); draw i is bit for bit
    the i-th of ``count`` sequential ``random_density_matrix`` calls."""
    g = rng.standard_normal((count, 2, 3, 3))
    g = g[:, 0] + 1j * g[:, 1]
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.einsum("nii->n", m).real[:, None, None]


def random_density_matrix(rng: "np.random.Generator") -> DensityMatrix:
    """GG*/tr(GG*) for G with independent standard complex Gaussian entries
    (the real parts of G drawn before the imaginary parts)."""
    return DensityMatrix(_random_densities(_as_generator(rng, "standard_normal"), 1)[0])


class ProbabilityTable(_Record):
    """Outcome probabilities p[m][k] for the four qutrit bases; rows sum to 1."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        v = _check_tables(values)
        if np.ndim(values) != 2:
            raise ContractViolation("expected one 4x3 probability table, got a stack")
        super().__init__(v[0])


def _qutrit_projectors(mubs: MubSet) -> np.ndarray:
    if _as_instance(mubs, MubSet, "mubs").dim != 3:
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
    rank is that of the projectors' real and imaginary parts side by side,
    their singular values above TOL counted.

    When every row is a Hermitian matrix, those singular values are the
    complex projector matrix P's.  A complete MUB set's projectors satisfy
    the frame identity P^dagger P = I + vec(I) vec(I)^T, whose eigenvalues
    are 1 and d + 1; within TOL entrywise of it, every eigenvalue is within
    d**2 TOL of those, so the rank is d**2.  Only a map that misses the
    identity, or rows that are not Hermitian, pay for an SVD.
    """
    projectors = _as_instance(mubs, MubSet, "mubs").projectors
    d = mubs.dim
    rows = projectors.reshape(-1, d, d)
    if np.array_equal(rows, rows.conj().swapaxes(1, 2)):
        vec_i = _identity(d).reshape(-1)
        frame = projectors.conj().T @ projectors - _identity(d * d) - np.outer(vec_i, vec_i)
        if (np.abs(frame) <= TOL).all():
            return d * d
    return int(np.linalg.matrix_rank(np.hstack([projectors.real, projectors.imag]), tol=TOL))


def invariant_checks(rng: "np.random.Generator") -> list[Check]:
    """The module's full verification suite as named checks."""
    _as_generator(rng, "standard_normal")
    checks = [*certify_unbiasedness(build_qutrit_mubs()), *certify_unbiasedness(build_qubit_mubs())]
    # every source, table and reconstruction of the stack is validated
    projectors = build_qutrit_mubs().projectors
    sources = _check_densities(_random_densities(rng, TOMOGRAPHY_TRIALS))
    tables = _check_tables(_probabilities(sources, projectors))
    rebuilt = _check_densities(_densities(tables, projectors))
    checks.append(within("tomography-round-trip", np.abs(rebuilt - sources)))
    rank = probability_map_rank(build_qutrit_mubs())
    checks.append(Check("probability-map-rank", rank == 9, float(abs(rank - 9))))
    return checks
