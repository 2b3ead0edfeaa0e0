"""Tiny shared vocabulary for named numerical checks."""

import numpy as np

from .linalg import TOL, ContractViolation, _numbers, _Record


class Check(_Record):
    """One named check: its pass flag and the worst deviation observed.  A
    passing check's deviation is below TOL (a count check reports 0.0), so a
    pass with a larger or NaN deviation is refused."""

    __slots__ = ("name", "passed", "max_deviation")
    __eq__ = _Record._value_eq
    __hash__ = _Record._value_hash

    def __init__(self, name: str, passed: bool, max_deviation: float):
        if not isinstance(name, str) or not isinstance(passed, (bool, np.bool_)):
            raise ContractViolation(
                f"a check takes a string name and a bool flag, got {name!r}, {passed!r}"
            )
        if not isinstance(max_deviation, (float, np.floating)):  # the common case needs no array
            max_deviation = _numbers(max_deviation, "biuf", "a check's deviation",
                                     "a real number", lambda a: a.ndim == 0).item()
        deviation = float(max_deviation)
        if passed and not deviation < TOL:
            raise ContractViolation(f"check {name} passes with deviation {deviation}, "
                                    f"not below {TOL:g}")
        super().__init__(name, bool(passed), deviation)


def within(name: str, deviation) -> Check:
    """The tolerance check ``name``: it passes when the largest entry of
    ``deviation`` (a float or an array) is below TOL, and a NaN fails it;
    that entry is the reported deviation.  An empty deviation measured
    nothing, so it fails with deviation 0.  A deviation that is not numbers,
    such as a string or None, is a ContractViolation."""
    deviation = _numbers(deviation, "biuf", f"{name}: a deviation", "real numbers")
    if not deviation.size:
        return Check(name, False, 0.0)
    worst = np.maximum.reduce(deviation, axis=None)
    return Check(name, worst < TOL, worst)
