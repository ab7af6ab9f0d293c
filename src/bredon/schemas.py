"""Checks of the two JSON formats the CLI reads: a complex and a matrix.

Each format is declared as data shaped like the document it accepts: a
dict is an object with exactly those keys, a list an array of its one
item spec, ``str`` and ``int`` the JSON types (``int`` admits neither
``true``/``false`` nor floats such as ``2.0``), a ``range`` an integer
interval and a tuple the allowed values.  An array of arrays is a matrix:
every row must be as long as the first.  The document is checked level
by level, so the violation reported is the one closest to the root.
"""

from __future__ import annotations

from . import chartab


class SchemaError(ValueError):
    pass


class _NonEmpty(list):
    """An array spec that also requires at least one item."""


class _Row(list):
    """A matrix row: an array spec with exactly one item spec per item."""


_FORMATS = {
    "complex": {
        "group": str,
        "orbits": _NonEmpty([{"id": str, "dim": range(3), "stabilizer": chartab.GROUP_IDS, "label": str}]),
        "boundary": [{"source": str, "target": str, "sign": (1, -1), "embedding": str}],
    },
    "matrix": [[int]],
}
_TYPE_NAMES = {dict: "object", list: "array", str: "string", int: "integer"}
_SPEC_TYPES = {dict: dict, list: list, _NonEmpty: list, _Row: list, range: int}
#: Unexpected keys named in a message; the rest are only counted.
_EXTRA_KEYS_SHOWN = 5


def _shown(value) -> str:
    """``repr(value)`` abbreviated by reprlib: containers nested in it show as
    ``[...]`` or ``{...}``, and long strings, integers and containers are cut,
    so that a wrong type high in a big document does not print all of it."""
    import reprlib  # error messages only

    shown = reprlib.Repr()
    shown.maxlevel = 1
    return shown.repr(value)


def _reason(value, spec) -> str | None:
    """Why ``value`` fails ``spec`` at its own level; its fields and items are checked one level down."""
    if isinstance(spec, tuple):
        if any(type(value) is type(allowed) and value == allowed for allowed in spec):
            return None
        return f"{_shown(value)} is not one of {list(spec)}"
    json_type = spec if isinstance(spec, type) else _SPEC_TYPES[type(spec)]
    if not (type(value) is int if json_type is int else isinstance(value, json_type)):
        return f"{_shown(value)} is not of type {_TYPE_NAMES[json_type]!r}"
    if isinstance(spec, range) and value not in spec:
        if value < spec.start:
            return f"{_shown(value)} is less than the minimum of {spec.start}"
        return f"{_shown(value)} is greater than the maximum of {spec[-1]}"
    if isinstance(spec, _NonEmpty) and not value:
        return "[] should be non-empty"
    if isinstance(spec, _Row) and len(value) != len(spec):
        return f"{_shown(value)} is too {'short' if len(value) < len(spec) else 'long'} (row 0 has length {len(spec)})"
    if isinstance(spec, dict):
        missing = [key for key in spec if key not in value]
        if missing:
            return f"{missing[0]!r} is a required property"
        extra = sorted((key for key in value if key not in spec), key=str)
        if extra:
            were = "was" if len(extra) == 1 else "were"
            shown = ", ".join(map(_shown, extra[:_EXTRA_KEYS_SHOWN]))
            if len(extra) > _EXTRA_KEYS_SHOWN:
                shown += f" and {len(extra) - _EXTRA_KEYS_SHOWN} more"
            return f"Additional properties are not allowed ({shown} {were} unexpected)"
    return None


def _children(path: tuple, value, spec) -> list:
    if isinstance(spec, dict):
        return [(path + (key,), value[key], item) for key, item in spec.items()]
    if isinstance(spec, list) and value:
        matrix = isinstance(spec[0], list) and type(value[0]) is list  # rows as long as the first
        items = _Row(spec[0] * len(value[0])) if matrix else spec[0]
        return [(path + (i,), item, items) for i, item in enumerate(value)]
    return []


def check(data, what: str) -> None:
    """Raise ``SchemaError("invalid <what> at <path>: <reason>")`` unless
    ``data`` is a valid ``what`` (``"complex"`` or ``"matrix"``); ``<path>``
    joins the JSON keys and indices with ``/``, ``(root)`` for the document."""
    level = [((), data, _FORMATS[what])]
    while level:
        for path, value, spec in level:
            reason = _reason(value, spec)
            if reason:
                where = "/".join(map(str, path)) or "(root)"
                raise SchemaError(f"invalid {what} at {where}: {reason}")
        level = [child for node in level for child in _children(*node)]
