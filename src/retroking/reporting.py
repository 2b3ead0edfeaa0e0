"""Tiny shared vocabulary for named numerical checks."""

from dataclasses import dataclass

import numpy as np

from .linalg import TOL, ContractViolation, _numeric_vector


@dataclass(frozen=True)
class Check:
    """One named check: its pass flag and the worst deviation observed."""

    name: str
    passed: bool
    max_deviation: float

    def __post_init__(self):
        if not isinstance(self.name, str) or not isinstance(self.passed, (bool, np.bool_)):
            raise ContractViolation(
                f"a check takes a string name and a bool flag, got {self.name!r}, {self.passed!r}"
            )
        deviation = self.max_deviation
        if not isinstance(deviation, (float, np.floating)):  # the common case needs no array
            (deviation,) = _numeric_vector([deviation], "biuf", "a check's deviation").tolist()
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "max_deviation", float(deviation))


def within(name: str, deviation) -> Check:
    """The tolerance check ``name``: it passes when the largest entry of
    ``deviation`` (a float or an array) is below TOL, and a NaN fails it;
    that entry is the reported deviation.  An empty deviation measured
    nothing, so it fails with deviation 0.  A deviation that is not numbers,
    such as a string or None, is a ContractViolation."""
    if isinstance(deviation, float):  # its own largest entry, with no array
        worst = deviation
    else:
        try:
            deviation = np.asarray(deviation)
        except ValueError:  # nested sequences of unequal lengths
            raise ContractViolation(f"{name}: a deviation must form a regular array") from None
        if deviation.dtype.kind not in "biuf":
            raise ContractViolation(f"{name}: a deviation must be real numbers, "
                                    f"got dtype {deviation.dtype}")
        if not deviation.size:
            return Check(name, False, 0.0)
        worst = np.maximum.reduce(deviation, axis=None)
    return Check(name, worst < TOL, worst)
