import contextlib
import functools
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from retroking import linalg
from retroking import (
    StateVector,
    build_physicist_basis,
    build_psi_basis,
    build_qubit_mubs,
    build_qutrit_mubs,
    king_measure,
    prepare_psi0,
    trio_matrix,
)

hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")


def _package_modules():
    """The retroking package and every one of its modules loaded so far."""
    return [module for key, module in list(sys.modules.items())
            if key == "retroking" or key.startswith("retroking.")]


def _clear_caches():
    for module in _package_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@contextlib.contextmanager
def mutated(module, name, fragment, replacement):
    """Run with ``module.name`` rebuilt from its source with ``fragment``
    replaced, in the module's own namespace, bound in its place in every
    package module that imported it by name, and every cached builder of
    the package cleared; the original is restored, and the caches cleared
    again, on exit."""
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(fragment) == 1, (name, fragment)
    holders = [m for m in _package_modules() if vars(m).get(name) is original]
    try:
        exec(source.replace(fragment, replacement), vars(module))
        for holder in holders:
            setattr(holder, name, getattr(module, name))
        _clear_caches()
        yield
    finally:
        for holder in holders:
            setattr(holder, name, original)
        _clear_caches()


@functools.cache
def perfbench_checks():
    """perfbench/checks.py, loaded from its file: the output checks the
    benchmark applies to every report it times."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


class Uniform:
    """Stands in for a Generator whose random() returns the given floats."""

    def __init__(self, *u):
        self.u = u

    def random(self, size=None):
        return self.u[0] if size is None else np.array(self.u[:size])


def forced_collapse(m, k):
    """king_measure of the preparation in basis m, drawn at the middle of
    outcome k's third: every king basis gives three outcomes of 1/3, so the
    real draw picks k.  Returns (outcome, collapsed state)."""
    return king_measure(prepare_psi0(), m, Uniform((2 * k + 1) / 6))


def sample_many(probs, rng, n):
    """n draws from one distribution by the rule sample_outcome draws with:
    linalg._sample_rows on n copies of the vector, with n uniforms of rng."""
    p = np.asarray(probs, dtype=float)
    return linalg._sample_rows(np.broadcast_to(p, (n, len(p))), rng.random(n))


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


@pytest.fixture(scope="session")
def same_ray():
    """same_ray(a, b): the two normalized states differ by at most a
    unit-modulus factor."""
    return lambda a, b: abs(np.vdot(a.amps, b.amps)) >= 1.0 - 1e-10


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
