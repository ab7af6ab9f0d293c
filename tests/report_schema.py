"""JSON Schema of one homology report, as ``compute --format json`` and
``dump --from-file --format json`` print it.  Only the tests validate
reports against it, with ``jsonschema`` from the ``test`` extra."""

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
        "entries": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
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
