"""JSON Schemas for every wire format the CLI reads or writes.

``jsonschema`` is imported on the first ``check``, so commands that read
no user JSON (``compute``, ``verify``, ``dump --dump-*``) never load it.
"""

from __future__ import annotations

from . import chartab

MATRIX_SCHEMA = {
    "$id": "bredon:matrix",
    "type": "array",
    "items": {"type": "array", "items": {"type": "integer"}},
}

COMPLEX_SCHEMA = {
    "$id": "bredon:complex",
    "type": "object",
    "required": ["group", "orbits", "boundary"],
    "additionalProperties": False,
    "properties": {
        "group": {"type": "string"},
        "orbits": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "dim", "stabilizer", "label"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "dim": {"type": "integer", "minimum": 0, "maximum": 2},
                    "stabilizer": {"enum": list(chartab.GROUP_IDS)},
                    "label": {"type": "string"},
                },
            },
        },
        "boundary": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["source", "target", "sign", "embedding"],
                "additionalProperties": False,
                "properties": {
                    "source": {"type": "string"},
                    "target": {"type": "string"},
                    "sign": {"enum": [1, -1]},
                    "embedding": {"type": "string"},
                },
            },
        },
    },
}

_CHAIN = {"type": "array", "items": {
    "type": "array",
    "prefixItems": [{"type": "string"}, {"type": "integer"}],
    "minItems": 2,
    "maxItems": 2,
}}

_HOMOLOGY_GROUP_SCHEMA = {
    "type": "object",
    "required": ["degree", "free_rank", "torsion", "basis", "torsion_basis"],
    "additionalProperties": False,
    "properties": {
        "degree": {"enum": [0, 1, 2]},
        "free_rank": {"type": "integer", "minimum": 0},
        "torsion": {"type": "array", "items": {"type": "integer", "exclusiveMinimum": 1}},
        "basis": {"type": "array", "items": _CHAIN},
        "torsion_basis": {"type": "array", "items": _CHAIN},
    },
}

_DIFFERENTIAL_SCHEMA = {
    "type": "object",
    "required": ["rows", "cols", "entries"],
    "additionalProperties": False,
    "properties": {
        "rows": {"type": "integer", "minimum": 0},
        "cols": {"type": "integer", "minimum": 0},
        "entries": MATRIX_SCHEMA,
    },
}

REPORT_SCHEMA = {
    "$id": "bredon:report",
    "type": "object",
    "required": ["group", "chain_ranks", "generators", "homology", "differentials", "invariant_factors"],
    "additionalProperties": False,
    "properties": {
        "group": {"type": "string"},
        "chain_ranks": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 3,
            "maxItems": 3,
        },
        "generators": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "string"}},
            "minItems": 3,
            "maxItems": 3,
        },
        "homology": {"type": "array", "items": _HOMOLOGY_GROUP_SCHEMA, "minItems": 3, "maxItems": 3},
        "differentials": {
            "type": "object",
            "required": ["d1", "d2"],
            "additionalProperties": False,
            "properties": {"d1": _DIFFERENTIAL_SCHEMA, "d2": _DIFFERENTIAL_SCHEMA},
        },
        "invariant_factors": {
            "type": "object",
            "required": ["d1", "d2"],
            "additionalProperties": False,
            "properties": {
                "d1": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "d2": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            },
        },
    },
}

TABLES_SCHEMA = {
    "$id": "bredon:tables",
    "type": "object",
    "required": ["tables"],
    "additionalProperties": False,
    "properties": {
        "tables": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["group", "order", "classes", "irreducibles"],
                "additionalProperties": False,
                "properties": {
                    "group": {"enum": list(chartab.GROUP_IDS)},
                    "order": {"type": "integer", "minimum": 1},
                    "classes": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["label", "size", "element_order"],
                            "additionalProperties": False,
                            "properties": {
                                "label": {"type": "string"},
                                "size": {"type": "integer", "minimum": 1},
                                "element_order": {"type": "integer", "minimum": 1},
                            },
                        },
                    },
                    "irreducibles": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["name", "values"],
                            "additionalProperties": False,
                            "properties": {
                                "name": {"type": "string"},
                                "values": {
                                    "type": "array",
                                    "items": {
                                        "type": "array",
                                        "items": {"type": "string"},
                                        "minItems": 4,
                                        "maxItems": 4,
                                    },
                                },
                            },
                        },
                    },
                },
            },
        }
    },
}


class SchemaError(ValueError):
    pass


def check(data, schema, what: str) -> None:
    """Validate and re-raise with a JSON-pointer style location."""
    import jsonschema

    try:
        jsonschema.validate(data, schema)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise SchemaError(f"invalid {what} at {path}: {exc.message}") from None
