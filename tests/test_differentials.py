"""Column-by-column checks of both assembled differentials for all 17 groups.

The expected columns below were transcribed by hand from the per-group
boundary formulas and are kept independent of the cell data tables in
``bredon.wallpaper``; agreement pins down every single matrix entry.
Four groups deviate from their reference column lists on purpose (pmg,
pgg, p3, p31m); the corrected columns here are the ones consistent with
boundary orientations, genuine induced characters and the reference
homology table.
"""

import pytest

from bredon import wallpaper
from bredon.gcw import differentials
from snf_helpers import entry

# group -> degree -> {column label: {row label: coefficient}}
EXPECTED = {
    "p1": {
        2: {"gamma": {}},
        1: {"beta_1": {}, "beta_2": {}},
    },
    "p2": {
        2: {"gamma": {}},
        1: {
            "beta_0": {"alpha_1^1": 1, "alpha_1^2": 1, "alpha_0^1": -1, "alpha_0^2": -1},
            "beta_1": {"alpha_2^1": 1, "alpha_2^2": 1, "alpha_1^1": -1, "alpha_1^2": -1},
            "beta_2": {"alpha_3^1": 1, "alpha_3^2": 1, "alpha_0^1": -1, "alpha_0^2": -1},
        },
    },
    "pm": {
        2: {"gamma": {"beta_1^1": 1, "beta_1^2": 1, "beta_2^1": 1, "beta_2^2": 1}},
        1: {
            "beta_0": {"alpha_1^1": 1, "alpha_1^2": 1, "alpha_0^1": -1, "alpha_0^2": -1},
            "beta_1^1": {}, "beta_1^2": {}, "beta_2^1": {}, "beta_2^2": {},
        },
    },
    "pg": {
        2: {"gamma": {"beta_0": 2}},
        1: {"beta_0": {}, "beta_1": {}},
    },
    "cm": {
        2: {"gamma": {"beta_0": 2, "beta_1^1": 1, "beta_1^2": 1}},
        1: {"beta_0": {}, "beta_1^1": {}, "beta_1^2": {}},
    },
    "pmm": {
        2: {"gamma": {f"beta_{i}^{j}": 1 for i in range(4) for j in (1, 2)}},
        1: {
            "beta_0^1": {"alpha_1^1": 1, "alpha_1^2": 1, "alpha_0^1": -1, "alpha_0^2": -1},
            "beta_0^2": {"alpha_1^3": 1, "alpha_1^4": 1, "alpha_0^3": -1, "alpha_0^4": -1},
            "beta_1^1": {"alpha_2^1": 1, "alpha_2^2": 1, "alpha_1^1": -1, "alpha_1^3": -1},
            "beta_1^2": {"alpha_2^3": 1, "alpha_2^4": 1, "alpha_1^2": -1, "alpha_1^4": -1},
            "beta_2^1": {"alpha_3^1": 1, "alpha_3^2": 1, "alpha_2^1": -1, "alpha_2^3": -1},
            "beta_2^2": {"alpha_3^3": 1, "alpha_3^4": 1, "alpha_2^2": -1, "alpha_2^4": -1},
            "beta_3^1": {"alpha_0^1": 1, "alpha_0^3": 1, "alpha_3^1": -1, "alpha_3^3": -1},
            "beta_3^2": {"alpha_0^2": 1, "alpha_0^4": 1, "alpha_3^2": -1, "alpha_3^4": -1},
        },
    },
    "pmg": {
        2: {"gamma": {"beta_1^1": 1, "beta_1^2": 1, "beta_2^1": 1, "beta_2^2": 1}},
        1: {
            "beta_0": {"alpha_1^1": 1, "alpha_1^2": 1, "alpha_0^1": -1, "alpha_0^2": -1},
            "beta_1^1": {"alpha_2^1": 1, "alpha_0^1": -1},
            "beta_1^2": {"alpha_2^2": 1, "alpha_0^2": -1},
            "beta_2^1": {"alpha_0^1": 1, "alpha_2^1": -1},
            "beta_2^2": {"alpha_0^2": 1, "alpha_2^2": -1},
            "beta_3": {"alpha_3^1": 1, "alpha_3^2": 1, "alpha_2^1": -1, "alpha_2^2": -1},
        },
    },
    "pgg": {
        2: {"gamma": {"beta_0": 2}},
        1: {
            "beta_0": {},
            "beta_1": {"alpha_1^1": 1, "alpha_1^2": 1, "alpha_0^1": -1, "alpha_0^2": -1},
        },
    },
    "cmm": {
        2: {"gamma": {"beta_0^1": 1, "beta_0^2": 1, "beta_1^1": 1, "beta_1^2": 1}},
        1: {
            "beta_0^1": {"alpha_1^1": 1, "alpha_1^2": 1, "alpha_0^1": -1, "alpha_0^2": -1},
            "beta_0^2": {"alpha_1^3": 1, "alpha_1^4": 1, "alpha_0^3": -1, "alpha_0^4": -1},
            "beta_1^1": {"alpha_0^1": 1, "alpha_0^3": 1, "alpha_1^1": -1, "alpha_1^3": -1},
            "beta_1^2": {"alpha_0^2": 1, "alpha_0^4": 1, "alpha_1^2": -1, "alpha_1^4": -1},
            "beta_2": {
                "alpha_2^1": 1, "alpha_2^2": 1,
                "alpha_0^1": -1, "alpha_0^2": -1, "alpha_0^3": -1, "alpha_0^4": -1,
            },
        },
    },
    "p4": {
        2: {"gamma": {}},
        1: {
            "beta_0": {
                "alpha_1^1": 1, "alpha_1^2": 1,
                "alpha_0^1": -1, "alpha_0^2": -1, "alpha_0^3": -1, "alpha_0^4": -1,
            },
            "beta_1": {
                "alpha_2^1": 1, "alpha_2^2": 1, "alpha_2^3": 1, "alpha_2^4": 1,
                "alpha_1^1": -1, "alpha_1^2": -1,
            },
        },
    },
    "p4m": {
        2: {"gamma": {f"beta_{i}^{j}": 1 for i in range(3) for j in (1, 2)}},
        1: {
            "beta_0^1": {
                "alpha_1^1": 1, "alpha_1^3": 1, "alpha_1^5": 1,
                "alpha_0^1": -1, "alpha_0^3": -1, "alpha_0^5": -1,
            },
            "beta_0^2": {
                "alpha_1^2": 1, "alpha_1^4": 1, "alpha_1^5": 1,
                "alpha_0^2": -1, "alpha_0^4": -1, "alpha_0^5": -1,
            },
            "beta_1^1": {
                "alpha_2^1": 1, "alpha_2^2": 1,
                "alpha_1^1": -1, "alpha_1^4": -1, "alpha_1^5": -1,
            },
            "beta_1^2": {
                "alpha_2^3": 1, "alpha_2^4": 1,
                "alpha_1^2": -1, "alpha_1^3": -1, "alpha_1^5": -1,
            },
            "beta_2^1": {
                "alpha_0^1": 1, "alpha_0^4": 1, "alpha_0^5": 1,
                "alpha_2^1": -1, "alpha_2^3": -1,
            },
            "beta_2^2": {
                "alpha_0^2": 1, "alpha_0^3": 1, "alpha_0^5": 1,
                "alpha_2^2": -1, "alpha_2^4": -1,
            },
        },
    },
    "p4g": {
        2: {"gamma": {"beta_1^1": 1, "beta_1^2": 1}},
        1: {
            "beta_0": {
                "alpha_1^1": 1, "alpha_1^2": 1, "alpha_1^3": 1, "alpha_1^4": 1,
                "alpha_0^1": -1, "alpha_0^2": -1, "alpha_0^3": -1, "alpha_0^4": -1,
            },
            "beta_1^1": {"alpha_0^2": 1, "alpha_0^3": -1},
            "beta_1^2": {"alpha_0^3": 1, "alpha_0^2": -1},
        },
    },
    "p3": {
        2: {"gamma": {}},
        1: {
            "beta_0": {
                "alpha_1^1": 1, "alpha_1^2": 1, "alpha_1^3": 1,
                "alpha_0^1": -1, "alpha_0^2": -1, "alpha_0^3": -1,
            },
            "beta_1": {
                "alpha_2^1": 1, "alpha_2^2": 1, "alpha_2^3": 1,
                "alpha_1^1": -1, "alpha_1^2": -1, "alpha_1^3": -1,
            },
        },
    },
    "p3m1": {
        2: {"gamma": {f"beta_{i}^{j}": 1 for i in range(3) for j in (1, 2)}},
        1: {
            "beta_0^1": {"alpha_1^1": 1, "alpha_1^3": 1, "alpha_0^1": -1, "alpha_0^3": -1},
            "beta_0^2": {"alpha_1^2": 1, "alpha_1^3": 1, "alpha_0^2": -1, "alpha_0^3": -1},
            "beta_1^1": {"alpha_2^1": 1, "alpha_2^3": 1, "alpha_1^1": -1, "alpha_1^3": -1},
            "beta_1^2": {"alpha_2^2": 1, "alpha_2^3": 1, "alpha_1^2": -1, "alpha_1^3": -1},
            "beta_2^1": {"alpha_0^1": 1, "alpha_0^3": 1, "alpha_2^1": -1, "alpha_2^3": -1},
            "beta_2^2": {"alpha_0^2": 1, "alpha_0^3": 1, "alpha_2^2": -1, "alpha_2^3": -1},
        },
    },
    "p31m": {
        2: {"gamma": {"beta_1^1": 1, "beta_1^2": 1}},
        1: {
            "beta_0": {
                "alpha_1^1": 1, "alpha_1^2": 1, "alpha_1^3": 1,
                "alpha_0^1": -1, "alpha_0^2": -1, "alpha_0^3": -2,
            },
            "beta_1^1": {},
            "beta_1^2": {},
        },
    },
    "p6": {
        2: {"gamma": {}},
        1: {
            "beta_0": {
                "alpha_1^1": 1, "alpha_1^2": 1, "alpha_1^3": 1,
                **{f"alpha_0^{k}": -1 for k in range(1, 7)},
            },
            "beta_1": {
                "alpha_2^1": 1, "alpha_2^2": 1,
                **{f"alpha_0^{k}": -1 for k in range(1, 7)},
            },
        },
    },
    "p6m": {
        2: {"gamma": {f"beta_{i}^{j}": 1 for i in range(3) for j in (1, 2)}},
        1: {
            "beta_0^1": {
                "alpha_1^1": 1, "alpha_1^3": 1,
                "alpha_0^1": -1, "alpha_0^3": -1, "alpha_0^5": -1, "alpha_0^6": -1,
            },
            "beta_0^2": {
                "alpha_1^2": 1, "alpha_1^3": 1,
                "alpha_0^2": -1, "alpha_0^4": -1, "alpha_0^5": -1, "alpha_0^6": -1,
            },
            "beta_1^1": {"alpha_2^1": 1, "alpha_2^2": 1, "alpha_1^1": -1, "alpha_1^3": -1},
            "beta_1^2": {"alpha_2^3": 1, "alpha_2^4": 1, "alpha_1^2": -1, "alpha_1^3": -1},
            "beta_2^1": {
                "alpha_0^1": 1, "alpha_0^4": 1, "alpha_0^5": 1, "alpha_0^6": 1,
                "alpha_2^1": -1, "alpha_2^3": -1,
            },
            "beta_2^2": {
                "alpha_0^2": 1, "alpha_0^3": 1, "alpha_0^5": 1, "alpha_0^6": 1,
                "alpha_2^2": -1, "alpha_2^4": -1,
            },
        },
    },
}


@pytest.mark.parametrize("name", wallpaper.list_groups())
@pytest.mark.parametrize("degree", (1, 2))
def test_differential_columns(name, degree):
    complex, _ = wallpaper.get_group(name)
    matrix = differentials(complex)[degree - 1]
    col_labels = complex.layout.labels[degree]
    row_labels = complex.layout.labels[degree - 1]
    expected_cols = EXPECTED[name][degree]
    assert col_labels == tuple(expected_cols)
    for j, col_label in enumerate(col_labels):
        spec = expected_cols[col_label]
        for i, row_label in enumerate(row_labels):
            assert entry(matrix, i, j) == spec.get(row_label, 0), (
                f"{name} d{degree}: entry ({row_label}, {col_label})"
            )
