"""The JSON the CLI reads and writes: checks of the two input formats, a
complex and a matrix, and ``dumps``, the writer of every indented output.

Each format is declared as data shaped like the document it accepts: a
dict is an object with exactly those keys, a list an array of its one
item spec, ``str`` and ``int`` the JSON types (``str`` admits no text that
UTF-8 cannot encode, such as the lone surrogate ``"\\ud800"``, and ``int``
neither ``true``/``false`` nor floats such as ``2.0``), a ``range`` an integer
interval and a tuple the allowed values, all of one type.  An array of
arrays is a matrix: every row must be as long as the first.  A predicate
compiled from the spec on first use accepts a valid document in C-level
passes over whole columns (every orbit's ``dim``, every matrix entry); only
a rejected one is walked level by level, so the violation reported is the
one closest to the root.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter

from . import chartab, gcw
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
        "orbits": _NonEmpty([dict(zip(gcw._ORBIT_KEYS, (str, range(3), chartab.GROUP_IDS, str)))]),
        "boundary": [dict(zip(gcw.BoundaryTerm._fields, (str, str, (1, -1), str)))],
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
    if spec is str and not _encodes(value):
        return f"{_shown(value)} cannot be encoded as UTF-8"
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


def _encodes(text: str) -> bool:
    """Whether UTF-8 encodes ``text``: not when it holds a lone surrogate, which a JSON escape can make."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


def _children(path: tuple, value, spec) -> list:
    if isinstance(spec, dict):
        return [(path + (key,), value[key], item) for key, item in spec.items()]
    if isinstance(spec, list) and value:
        matrix = isinstance(spec[0], list) and type(value[0]) is list  # rows as long as the first
        items = _Row(spec[0] * len(value[0])) if matrix else spec[0]
        return [(path + (i,), item, items) for i, item in enumerate(value)]
    return []


def _accepts(spec):
    """A predicate over a column (a list of values), true exactly when ``_explain`` finds no violation of
    ``spec`` in any of them: C-level passes over the column, then over one column per field, or of all items.
    It builds no path or message, never raises and never looks deeper than ``spec``; a leaf tests the types
    before the values, so that no other value is hashed and ``True`` never passes for ``1``."""
    if isinstance(spec, tuple):
        types, allowed = set(map(type, spec)), set(spec)
        return lambda col: set(map(type, col)) <= types and set(col) <= allowed
    if spec is int or isinstance(spec, range):
        return lambda col: set(map(type, col)) <= {int} and (spec is int or all(map(spec.__contains__, col)))
    if spec is str:
        return lambda col: all(map(isinstance, col, repeat(str))) and _encodes("".join(col))
    if isinstance(spec, dict):
        keys, fields = spec.keys(), [(itemgetter(key), _accepts(item)) for key, item in spec.items()]
        objects = lambda col: all(map(isinstance, col, repeat(dict))) and all(map(keys.__eq__, map(dict.keys, col)))
        return lambda col: objects(col) and all([ok(list(map(field, col))) for field, ok in fields])
    least, rows, item = isinstance(spec, _NonEmpty), isinstance(spec[0], list), _accepts(spec[0])
    arrays = lambda col: all(map(isinstance, col, repeat(list))) and (not least or all(col))
    ragged = lambda col: rows and any(v and type(v[0]) is list and len(set(map(len, v))) > 1 for v in col)  # a matrix
    return lambda col: arrays(col) and item(list(chain.from_iterable(col))) and not ragged(col)


def check(data, what: str) -> None:
    """Raise ``SchemaError("invalid <what> at <path>: <reason>")`` unless
    ``data`` is a valid ``what`` (``"complex"`` or ``"matrix"``); ``<path>``
    joins the JSON keys and indices with ``/``, ``(root)`` for the document."""
    accept = _ACCEPT.get(what) or _ACCEPT.setdefault(what, _accepts(_FORMATS[what]))
    if not accept([data]):
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
    """``json.dumps(value, indent=2)``, byte for byte, without the pure-Python encoder that
    ``indent`` selects.  One walk appends every piece of text to one list, joined once at the
    end.  Strings go through the C string encoder; lists and objects with ``str`` keys share
    one item loop; an ``IntegerMatrix``, a ``DeferredMatrix`` too, is the list of its rows,
    each spliced from its nonzeros into the text of an all-zero row built once per matrix.
    Any other value is ``json.dumps``'s own text, re-indented to its depth (JSON text holds
    no raw newline outside its layout)."""
    import json  # only the commands that write JSON load it
    from json.encoder import encode_basestring_ascii as quote

    out: list[str] = []

    def write(value, pad: str) -> None:
        kind = type(value)
        if kind is str or kind is int:
            return out.append(quote(value) if kind is str else int.__repr__(value))
        inner = pad + "  "
        sep = ",\n" + inner
        if kind is IntegerMatrix and value.rows:
            zeros = (f"[\n{inner}  " + f"{sep}  ".join(["0"] * value.cols) + f"\n{inner}]") if value.cols else "[]"
            head, step = len(inner) + 4, len(sep) + 3  # where column 0's 0 stands in ``zeros``, and the next's
            out.append("[\n" + inner)
            for row in value.nonzeros:
                at = 0
                for j in sorted(row):
                    cut = head + j * step
                    out.extend((zeros[at:cut], int.__repr__(row[j])))
                    at = cut + 1
                out.extend((zeros[at:], sep))
            out[-1] = f"\n{pad}]"
        elif kind is IntegerMatrix or (kind is list or kind is dict) and not value:
            out.append("{}" if kind is dict else "[]")
        elif kind is list or kind is dict and set(map(type, value)) == {str}:
            out.append(("[\n" if kind is list else "{\n") + inner)
            for item in value.items() if kind is dict else value:
                if kind is dict:
                    key, item = item
                    out.append(quote(key) + ": ")
                write(item, inner)
                out.append(sep)
            out[-1] = f"\n{pad}" + ("]" if kind is list else "}")
        elif isinstance(value, IntegerMatrix):  # a ``DeferredMatrix``: its built matrix
            write(IntegerMatrix(value.rows, value.cols, value.nonzeros), pad)
        else:
            out.append(json.dumps(value, indent=2).replace("\n", "\n" + pad))

    write(value, "")
    return "".join(out)
