"""The one JSON codec of the declarative dataclasses (configs, score records).

Known keys are the dataclass fields; an unknown key raises ValueError with
its dotted path (``pipelines[2].tone.gama``). An absent key keeps the field
default, as does ``null`` except on an ``Optional`` field, where it means
None. Values convert by the annotated type: dataclasses recurse, tuples need
JSON lists, numbers may be JSON strings, an int takes no fraction, a float
must be finite (``"nan"``, ``"inf"`` and the ``NaN`` literal fail). A class
with a ``KIND_PARAM`` table (kind -> field) is written as its kind plus the
one parameter that kind uses, and knows no other parameter key.
``check_id`` is the rule for ids that name dataset directories.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing


def to_json(obj):
    """JSON value of a dataclass instance or field value; tuples become lists."""
    if isinstance(obj, tuple):
        return [to_json(v) for v in obj]
    if not dataclasses.is_dataclass(obj):
        return obj
    kind_param = getattr(obj, "KIND_PARAM", None)
    names = ["kind", kind_param[obj.kind]] if kind_param else [f.name for f in dataclasses.fields(obj)]
    return {name: to_json(getattr(obj, name)) for name in names}


def from_json(cls, obj, path: str = ""):
    """Instance of dataclass ``cls``; ``path`` prefixes key names in errors."""
    json_object(obj, path.rstrip(".") or "config")
    fields = dataclasses.fields(cls)
    known = {f.name for f in fields}
    kind_param = getattr(cls, "KIND_PARAM", {})
    kind = getattr(cls, "kind", None) if obj.get("kind") is None else obj["kind"]
    if isinstance(kind, str) and kind in kind_param:  # an unknown kind fails __post_init__
        known -= set(kind_param.values()) - {kind_param[kind]}
    unknown = [path + key for key in obj if key not in known]
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    hints = _type_hints(cls)
    kwargs = {}
    for f in fields:
        tp = hints[f.name]
        if obj.get(f.name) is not None or (f.name in obj and typing.get_origin(tp) is typing.Union):
            kwargs[f.name] = _value_from_json(tp, obj[f.name], path + f.name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValueError(f"missing config key: {path}{f.name}")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # name the nested config that failed its checks
        raise ValueError(f"{path.rstrip('.')}: {exc}" if path else str(exc)) from None


@functools.cache  # one entry per dataclass; resolving the annotations is slow
def _type_hints(cls) -> dict:
    return typing.get_type_hints(cls)


def json_object(obj, path: str) -> dict:
    """``obj`` if it is a JSON object, else a ValueError naming ``path``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {obj!r}")
    return obj


def _value_from_json(tp, value, path: str):
    if typing.get_origin(tp) is typing.Union:  # Optional[X], the one union fields use
        return None if value is None else _value_from_json(typing.get_args(tp)[0], value, path)
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, path + ".")
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{path}: expected a JSON list, got {value!r}")
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(args) != len(value):
            raise ValueError(f"{path}: expected {len(args)} values, got {len(value)}")
        return tuple(_value_from_json(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    truncated = tp is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, str) or (number and tp is not str and not truncated):
        try:
            converted = tp(value)
        except (ValueError, OverflowError):
            pass
        else:
            if tp is not float or math.isfinite(converted):
                return converted
            raise ValueError(f"{path}: expected a finite number, got {value!r}")
    raise ValueError(f"{path}: expected {tp.__name__}, got {value!r}")


def check_id(what: str, value: str) -> None:
    """Reject an id that cannot name one directory of the dataset tree or go into an ASCII header."""
    if value in ("", ".", "..") or "/" in value or "\\" in value or not (value.isascii() and value.isprintable()):
        raise ValueError(f"{what} id {value!r} must be a non-empty printable ASCII name without '/' or '\\'")
