"""Seeded input generators: subdivided user complexes and dense integer matrices.

Both generators work on plain JSON-shaped data (the wire formats that
``bredon dump --from-file`` and ``bredon snf`` read), so the program under
test receives nothing but the generated files.  The same seed always gives
the same inputs.

Sizes are fixed and only order and values are drawn: every seed subdivides
each group to the same depths and uses the same matrix shapes; the seed
draws the order in which a complex's edges are split (which decides the
edges that get one split more than the others), the order of the inputs
and every matrix entry.  That keeps the work of one pass nearly equal across seeds,
so run-to-run spread measures the program, not the luck of the draw.
"""

from __future__ import annotations

import copy
import random

#: Subdivision depths, evenly spread over [10, 60]: one per built-in group.
SUBDIVISION_DEPTHS = tuple(10 + (50 * i) // 16 for i in range(17))

#: Dense matrix shapes: every (rows, cols) pair of these side lengths.
DENSE_SIDES = (16, 20, 24, 28, 32)
#: Matrices per shape in one pass: the cost of one matrix depends on its entries,
#: so with one per shape the median cost moved by 7% between seeds.
DENSE_PER_SHAPE = 2
DENSE_ENTRY_BOUND = 99


def subdivide(complex_dict: dict, steps: int, rng: random.Random) -> dict:
    """Apply ``steps`` seeded edge subdivisions to a complex in wire format.

    One step picks an edge orbit e with stabilizer H and replaces it by
    e_a (which keeps e's id and label), a new edge e_b and a new vertex u,
    both also with stabilizer H: e's +1 boundary terms stay on e_a, its -1
    terms move to e_b, e_a -> u gets sign -1 and e_b -> u sign +1 (both
    along H->H), and every 2-cell term on e is duplicated onto e_b.  Since
    d(e_a) + d(e_b) = d(e), the result is chain homotopy equivalent to the
    input, so its homology is the input's.

    The steps go round the original edge orbits in a seeded order, each
    splitting the piece that kept the orbit's id, so every seed adds the
    same number of rows and columns to the differentials.
    """
    data = copy.deepcopy(complex_dict)
    orbits, boundary = data["orbits"], data["boundary"]
    edges = [o for o in orbits if o["dim"] == 1]
    rng.shuffle(edges)
    for n in range(steps):
        e = edges[n % len(edges)]
        h = e["stabilizer"]
        eb = {"id": f"e1^s{n}", "dim": 1, "stabilizer": h, "label": f"beta_s{n}"}
        u_id = f"e0^s{n}"
        orbits.append(eb)
        orbits.append({"id": u_id, "dim": 0, "stabilizer": h, "label": f"alpha_s{n}"})
        moved, added = [], []
        for t in boundary:
            if t["source"] == e["id"] and t["sign"] == -1:
                moved.append(t)
            elif t["target"] == e["id"]:
                added.append({**t, "target": eb["id"]})
        for t in moved:
            t["source"] = eb["id"]
        boundary.extend(added)
        boundary.append({"source": e["id"], "target": u_id, "sign": -1, "embedding": f"{h}->{h}"})
        boundary.append({"source": eb["id"], "target": u_id, "sign": 1, "embedding": f"{h}->{h}"})
    return data


def subdivided_complexes(builtins: dict[str, dict], seed: int) -> list[tuple[str, int, dict]]:
    """(group, depth, complex): each built-in group once, in a seeded order.

    Depths are dealt by a fixed stride through ``SUBDIVISION_DEPTHS``, so a
    group gets the same depth for every seed and depth does not grow with
    the group's place in the catalog.
    """
    rng = random.Random(f"subdivided:{seed}")
    count = len(SUBDIVISION_DEPTHS)
    out = []
    for j, group in enumerate(builtins):
        depth = SUBDIVISION_DEPTHS[(7 * j) % count]
        out.append((group, depth, subdivide(builtins[group], depth, rng)))
    rng.shuffle(out)
    return out


def dense_matrices(seed: int) -> list[list[list[int]]]:
    """``DENSE_PER_SHAPE`` matrices per shape, entries uniform in [-99, 99], in a seeded order."""
    rng = random.Random(f"dense:{seed}")
    shapes = [(m, n) for m in DENSE_SIDES for n in DENSE_SIDES] * DENSE_PER_SHAPE
    rng.shuffle(shapes)
    return [
        [[rng.randint(-DENSE_ENTRY_BOUND, DENSE_ENTRY_BOUND) for _ in range(n)] for _ in range(m)]
        for m, n in shapes
    ]
