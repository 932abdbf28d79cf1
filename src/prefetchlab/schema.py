"""Config classes whose fields check themselves, and the one route from JSON to them.

``@config`` makes a frozen dataclass whose constructor checks every field
against its annotation, then against the rules declared with :func:`field`,
and only then runs the ``__post_init__`` of each config base class, then the
class's own: these keep the rules that span several fields. Annotations may be
``int``, ``float``, ``bool``, ``str``, ``dict``, ``X | None``, ``tuple[X, ...]``
(given as a tuple or a list) or another config class (an instance, or a mapping
that :func:`build` turns into one), so JSON and Python build configs in one pass.
A bool is never a number; ``float`` accepts an int and keeps it as given; ``int``
accepts numpy integers and stores a Python int. A range applies to each element
of a tuple and never to ``None``; a ``distinct`` tuple holds at least one value
and none twice. A violation raises ``ValueError`` whose message starts with the
dotted path of the bad value, such as ``eval_modes[0].hash_bits``.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import operator
import types
import typing

_RANGES = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<="),
           "lt": (operator.lt, "<"), "one_of": (lambda v, allowed: v in allowed, "in")}
_KINDS = {int: "an integer", float: "a number", bool: "a boolean", str: "a string", dict: "a mapping"}


def field(default=dataclasses.MISSING, *, factory=dataclasses.MISSING, **bounds):
    """A config field with a declared range: any of ``ge``, ``gt``, ``le``, ``lt``, ``one_of``;
    a tuple field may also be ``distinct=True``."""
    return dataclasses.field(default=default, default_factory=factory, metadata=bounds)


@functools.cache
def hints(cls) -> dict:
    """Field name -> resolved annotation, once per class."""
    return typing.get_type_hints(cls)


def config(cls):
    """Frozen dataclass that checks its fields at construction (see the module docstring)."""
    own = cls.__dict__.get("__post_init__")
    rules = getattr(cls, "_config_rules", ()) + ((own,) if own else ())  # a base class's rules first

    def __post_init__(self):
        annotations = hints(type(self))
        for f in dataclasses.fields(self):
            checked = _check(getattr(self, f.name), annotations[f.name], f.name, f.metadata)
            object.__setattr__(self, f.name, checked)
        for rule in rules:
            rule(self)

    cls.__post_init__, cls._config_rules = __post_init__, rules
    return dataclasses.dataclass(frozen=True)(cls)


def build(cls, raw, where: str = "", **fixed):
    """``cls`` from mapping ``raw`` and the caller's ``fixed`` fields; each error starts with path ``where``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where or 'config'} must be a mapping, got {type(raw).__name__}")
    try:
        for key in raw:
            if key not in hints(cls) or key in fixed:
                raise ValueError(f"{key}: unknown config key")
        return cls(**raw, **fixed)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{where}.{exc}" if where else str(exc)) from None


def _check(value, hint, name: str, bounds):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else _check(value, args[0], name, bounds)
    if origin is tuple:
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        ranges = {rule: bound for rule, bound in bounds.items() if rule != "distinct"}
        value = tuple(_check(v, args[0], f"{name}[{i}]", ranges) for i, v in enumerate(value))
        if bounds.get("distinct") and (not value or len(set(value)) != len(value)):
            raise ValueError(f"{name} must list at least one value and none twice, got {list(value)}")
        return value
    if dataclasses.is_dataclass(hint) and not isinstance(value, hint):
        return build(hint, value, name)
    if hint is int or hint is float:
        ok = isinstance(value, numbers.Integral if hint is int else numbers.Real) and not isinstance(value, bool)
        value = int(value) if ok and hint is int else value
    else:
        ok = isinstance(value, hint)
    if not ok:
        raise ValueError(f"{name} must be {_KINDS.get(hint) or 'a ' + hint.__name__}, got {value!r}")
    for rule, bound in bounds.items():
        test, sign = _RANGES[rule]
        if not test(value, bound):
            raise ValueError(f"{name} must be {sign} {bound!r}, got {value!r}")
    return value
