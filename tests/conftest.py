import hypothesis
import numpy as np
import pytest

from retroking import (
    StateVector,
    build_physicist_basis,
    build_psi_basis,
    build_qubit_mubs,
    build_qutrit_mubs,
    trio_matrix,
)

hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def qutrit_mubs():
    return build_qutrit_mubs()


@pytest.fixture(scope="session")
def qubit_mubs():
    return build_qubit_mubs()


@pytest.fixture(scope="session")
def trios():
    """trios(m, k) is the trio member (m, k): row 3*m + k of trio_matrix()."""
    rows = trio_matrix()
    return lambda m, k: StateVector(rows[3 * m + k])


@pytest.fixture(scope="session")
def psi_basis():
    return build_psi_basis()


@pytest.fixture(scope="session")
def physicist():
    return build_physicist_basis()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
