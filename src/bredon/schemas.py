"""The JSON the CLI reads and writes: checks of the two input formats, a
complex and a matrix, and ``dumps``, the writer of every indented output.

Each format is declared as data shaped like the document it accepts: a
dict is an object with exactly those keys, a list an array of its one
item spec, ``str`` and ``int`` the JSON types (``int`` admits neither
``true``/``false`` nor floats such as ``2.0``), a ``range`` an integer
interval and a tuple the allowed values.  An array of arrays is a matrix:
every row must be as long as the first.  A predicate compiled from the spec
on first use accepts a valid document in one pass; only a rejected one is
walked level by level, so the violation reported is the one closest to the root.
"""

from __future__ import annotations

from . import chartab
from .intlinalg import IntegerMatrix


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
#: The ``_accepts`` predicate of each format, compiled on first use.
_ACCEPT: dict = {}


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


def _accepts(spec):
    """A predicate true exactly when ``_explain`` finds no violation of ``spec``:
    one pass that builds no path or message, never raises and never looks
    deeper than ``spec`` (an enum hashes only values of its own types)."""
    if isinstance(spec, tuple):
        allowed = {type(value): {v for v in spec if type(v) is type(value)} for value in spec}
        return lambda value: value in allowed.get(type(value), ())
    if spec is int or isinstance(spec, range):
        return lambda value: type(value) is int and (spec is int or value in spec)
    if isinstance(spec, type):
        return lambda value: isinstance(value, spec)
    if isinstance(spec, dict):
        keys, fields = spec.keys(), [(key, _accepts(item)) for key, item in spec.items()]
        return lambda value: isinstance(value, dict) and value.keys() == keys and all([ok(value[key]) for key, ok in fields])
    least, rows, item = int(isinstance(spec, _NonEmpty)), isinstance(spec[0], list), _accepts(spec[0])
    return lambda value: isinstance(value, list) and len(value) >= least and all(map(item, value)) and not (
        rows and value and type(value[0]) is list and len(set(map(len, value))) > 1  # a matrix: rows as long as the first
    )


def check(data, what: str) -> None:
    """Raise ``SchemaError("invalid <what> at <path>: <reason>")`` unless
    ``data`` is a valid ``what`` (``"complex"`` or ``"matrix"``); ``<path>``
    joins the JSON keys and indices with ``/``, ``(root)`` for the document."""
    accept = _ACCEPT.get(what) or _ACCEPT.setdefault(what, _accepts(_FORMATS[what]))
    if not accept(data):
        _explain(data, what)


def _explain(data, what: str) -> None:
    """Walk ``data`` level by level and raise at the violation closest to the root."""
    level = [((), data, _FORMATS[what])]
    while level:
        for path, value, spec in level:
            reason = _reason(value, spec)
            if reason:
                where = "/".join(map(str, path)) or "(root)"
                raise SchemaError(f"invalid {what} at {where}: {reason}")
        level = [child for node in level for child in _children(*node)]


def dumps(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, without the pure-Python
    encoder that ``indent`` selects: strings go through the C string encoder, a
    list of ``int`` (never ``bool``) or of ``str`` is joined in one pass, and an
    ``IntegerMatrix`` is written as its ``to_rows()``, each row the text of an
    all-zero row with the 0 of each nonzero replaced.  Any other value is
    ``json.dumps``'s own text, re-indented to its depth (JSON text holds no
    raw newline outside its layout)."""
    import json  # only the commands that write JSON load it
    from json.encoder import encode_basestring_ascii as quote

    def write(value, pad: str) -> str:
        kind = type(value)
        if kind is str:
            return quote(value)
        if kind is int:
            return int.__repr__(value)
        inner = pad + "  "
        sep = ",\n" + inner
        if kind is IntegerMatrix:
            zeros, pieces = write([0] * value.cols, inner), [f"[\n{inner}"]
            head, step = len(inner) + 4, len(sep) + 3  # where column 0's 0 stands in ``zeros``, and the next's
            for row in value.nonzeros:
                at = 0
                for j in sorted(row):
                    cut = head + j * step
                    pieces += (zeros[at:cut], int.__repr__(row[j]))
                    at = cut + 1
                pieces += (zeros[at:], sep)
            pieces[-1] = f"\n{pad}]"
            return "".join(pieces) if value.rows else "[]"
        if kind is list and value:
            if (kinds := set(map(type, value))) in ({int}, {str}):
                body = sep.join(map(quote if str in kinds else int.__repr__, value))
            else:
                body = sep.join([write(item, inner) for item in value])
            return f"[\n{inner}{body}\n{pad}]"
        if (kind is list or kind is dict) and not value:
            return "[]" if kind is list else "{}"
        if kind is dict and value and set(map(type, value)) == {str}:
            body = sep.join([f"{quote(key)}: {write(item, inner)}" for key, item in value.items()])
            return f"{{\n{inner}{body}\n{pad}}}"
        return json.dumps(value, indent=2).replace("\n", "\n" + pad)

    return write(value, "")
