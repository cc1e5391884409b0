"""Package-wide exception types, and :func:`check`, the one definition of a valid
scalar that the config loader and every public library function use."""

import math
import numbers

_KINDS = {float: "a finite number", int: "an integer", bool: "true or false", str: "a string",
          list: "an array"}
_RULES = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0}


class NoiseCtrlError(Exception):
    """Base class for all errors raised by this package."""


class ReachabilityError(NoiseCtrlError):
    """Requested transfer violates a reachability condition (e.g. target not majorised)."""


class ConfigurationError(NoiseCtrlError):
    """A system, sequence or experiment configuration is inconsistent."""


class NumericalHealthError(NoiseCtrlError):
    """A propagated state violated its invariants beyond tolerance."""


def check(name: str, value, kind=float, rule=None):
    """``value`` of type ``kind`` obeying ``rule``, or ``ValueError("<name> must be ...")``.

    Booleans are neither numbers nor integers, numpy integers are integers,
    and a ``float`` must be finite.  ``rule`` is "positive", "nonnegative", a
    bound ``lo`` (at least ``lo``) or an interval ``(lo, hi)``, closed unless
    a third item such as "[)" gives its ends.  Numbers return as float or int.
    """
    if kind is float or kind is int:
        ok = (isinstance(value, numbers.Integral if kind is int else numbers.Real)
              and not isinstance(value, bool) and (kind is int or math.isfinite(value)))
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ValueError(f"{name} must be {_KINDS[kind]}")
    if isinstance(rule, str):
        ok, wording = _RULES[rule](value), rule
    elif isinstance(rule, tuple):
        lo, hi, ends = (*rule, "[]")[:3]
        ok = ((lo < value if ends[0] == "(" else lo <= value)
              and (value < hi if ends[1] == ")" else value <= hi))
        wording = f"in {ends[0]}{lo}, {hi}{ends[1]}"
    elif rule is not None:
        ok, wording = value >= rule, f"at least {rule}"
    if not ok:
        raise ValueError(f"{name} must be {wording}")
    return float(value) if kind is float else int(value) if kind is int else value
