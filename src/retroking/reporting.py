"""Tiny shared vocabulary for named numerical checks."""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .linalg import ContractViolation, _numeric_vector


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
        (deviation,) = _numeric_vector([self.max_deviation], "biuf", "a check's deviation").tolist()
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "max_deviation", float(deviation))


def all_passed(checks: Iterable[Check]) -> bool:
    return all(c.passed for c in checks)
