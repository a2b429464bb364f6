"""Settings of the config classes: each field declares its type and range once, and one function checks them.

A field's annotation gives its type and setting() its range; check_settings,
called first in each config class's __post_init__, checks both.
"""

from __future__ import annotations

import numbers
import operator
import sys
from dataclasses import MISSING, field, fields

# what a field annotated with each type must hold; a bool is neither an int nor a float
_HOLDS = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    # the bound also rules out NaN, +-inf and ints beyond the float range
    "float": ("a finite number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}
# bound -> (test, sign); a lower bound comes before an upper one
_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<="), "lt": (operator.lt, "<")}


def setting(default=MISSING, *, ge=None, gt=None, le=None, lt=None, one_of=None, block=None, key=None, like=None):
    """A dataclass field whose value check_settings holds to these rules.

    ge, gt, le and lt bound a number and one_of lists the values it may
    take. like=(Owner, "name") takes the rules of field name of the config
    class Owner, so a setting that mirrors another keeps one range. A
    field given a block is set as block.key in a JSON config, where key
    defaults to the field's name.
    """
    rules = dict(next(fld for fld in fields(like[0]) if fld.name == like[1]).metadata) if like else {}
    given = dict(ge=ge, gt=gt, le=le, lt=lt, one_of=one_of, block=block, key=key)
    return field(default=default, metadata=rules | {name: value for name, value in given.items() if value is not None})


def config_key(fld) -> str:
    """The key that sets a dataclass field in a JSON config: block.key, or the field's name."""
    return f"{fld.metadata['block']}.{fld.metadata.get('key', fld.name)}" if "block" in fld.metadata else fld.name


def _range(bounds: dict) -> str:
    """The bounds as message text: "be >= 1", or "lie in (0, 1]" for a lower and an upper bound."""
    if len(bounds) == 1:
        (rule, limit), = bounds.items()
        return f"be {_BOUNDS[rule][1]} {limit}"
    (low, lo), (high, hi) = bounds.items()
    return f"lie in {'[' if low == 'ge' else '('}{lo}, {hi}{']' if high == 'le' else ')'}"


def check_settings(obj) -> None:
    """Raise ValueError naming the first field of the dataclass obj whose value breaks its annotation or rules.

    "T | None" also admits None; each entry of a "tuple[T, ...]" must be a
    T within the field's rules.
    """
    for fld in fields(obj):
        kind, values = fld.type.removesuffix(" | None"), [getattr(obj, fld.name)]
        if kind.startswith("tuple[") and kind.endswith(", ...]"):
            if not isinstance(values[0], tuple):
                raise ValueError(f"{config_key(fld)} must be a tuple, got {values[0]!r}")
            kind, values = kind[len("tuple["):-len(", ...]")], values[0]
        elif kind != fld.type and values[0] is None:
            continue
        what, holds = _HOLDS.get(kind, ("", lambda v: True))
        one_of = fld.metadata.get("one_of")
        bounds = {rule: fld.metadata[rule] for rule in _BOUNDS if rule in fld.metadata}
        for value in values:
            if not holds(value):
                raise ValueError(f"{config_key(fld)} must be {what}, got {value!r}")
            if one_of is not None and value not in one_of:
                raise ValueError(f"{config_key(fld)} must be one of {one_of}, got {value!r}")
            if not all(_BOUNDS[rule][0](value, limit) for rule, limit in bounds.items()):
                raise ValueError(f"{config_key(fld)} must {_range(bounds)}, got {value}")
