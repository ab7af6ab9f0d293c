"""Seeded edge subdivisions of a complex, and the torus grids of p1, in wire format, for tests.

One step is the one the benchmark's input generator takes: edge orbit e
with stabilizer H becomes e_a (keeping e's id and label), a new edge e_b
and a new vertex u, both with stabilizer H.  e's -1 boundary terms move to
e_b, e_a -> u gets sign -1 and e_b -> u sign +1 along H->H, and every
2-cell term on e is duplicated onto e_b.  As d(e_a) + d(e_b) = d(e), the
result is chain homotopy equivalent to the input and has its homology.
The steps go round the edge orbits in a seeded order.

Differentials of these complexes are a few percent nonzero, so their
reductions take the sparse row storage of ``smith_normal_form``.

``torus_grid(n)`` is a second cell structure of p1: the torus cut into an
n x n grid of squares, every cell with stabilizer C1.  Unlike the built-ins
and their subdivisions it has many orbits of 2-cells, n^2 of them.
"""

from __future__ import annotations

import copy
import random

from bredon import gcw, wallpaper


def subdivide(complex_dict: dict, steps: int, rng: random.Random) -> dict:
    """``complex_dict`` after ``steps`` seeded edge subdivisions."""
    data = copy.deepcopy(complex_dict)
    orbits, boundary = data["orbits"], data["boundary"]
    edges = [o for o in orbits if o["dim"] == 1]
    rng.shuffle(edges)
    for n in range(steps):
        e = edges[n % len(edges)]
        h = e["stabilizer"]
        eb = {"id": f"e1^s{n}", "dim": 1, "stabilizer": h, "label": f"beta_s{n}"}
        u_id = f"e0^s{n}"
        orbits += [eb, {"id": u_id, "dim": 0, "stabilizer": h, "label": f"alpha_s{n}"}]
        added = [{**t, "target": eb["id"]} for t in boundary if t["target"] == e["id"]]
        for t in boundary:
            if t["source"] == e["id"] and t["sign"] == -1:
                t["source"] = eb["id"]
        boundary += added
        boundary.append({"source": e["id"], "target": u_id, "sign": -1, "embedding": f"{h}->{h}"})
        boundary.append({"source": eb["id"], "target": u_id, "sign": 1, "embedding": f"{h}->{h}"})
    return data


def subdivided_group(name: str, steps: int, seed: int = 1) -> dict:
    """The built-in complex of ``name`` after ``steps`` subdivisions drawn from ``seed``."""
    complex_dict = gcw.to_json_dict(wallpaper.get_group(name)[0])
    return subdivide(complex_dict, steps, random.Random(f"subdivided:{name}:{steps}:{seed}"))


def torus_grid(n: int) -> dict:
    """p1 acting on the n x n grid of the torus (n >= 2): n^2 vertex, 2n^2 edge and n^2 face orbits, all C1.

    Edge h_i_j runs from vertex (i, j) to (i+1, j), edge v_i_j from (i, j) to (i, j+1), indices mod n,
    and face (i, j) has boundary h_i_j + v_(i+1)_j - h_i_(j+1) - v_i_j.
    """

    def cell(dim: int, stem: str, i: int, j: int) -> dict:
        return {"id": f"{stem}{i % n},{j % n}", "dim": dim, "stabilizer": "C1", "label": f"{stem}_{i % n}_{j % n}"}

    def term(source: dict, target: dict, sign: int) -> dict:
        return {"source": source["id"], "target": target["id"], "sign": sign, "embedding": "C1->C1"}

    cells = [(i, j) for i in range(n) for j in range(n)]
    boundary = []
    for i, j in cells:
        for edge, end in ((cell(1, "beta_h", i, j), (i + 1, j)), (cell(1, "beta_v", i, j), (i, j + 1))):
            boundary += [term(edge, cell(0, "alpha", *end), 1), term(edge, cell(0, "alpha", i, j), -1)]
        face = cell(2, "gamma", i, j)
        boundary += [
            term(face, cell(1, "beta_h", i, j), 1),
            term(face, cell(1, "beta_v", i + 1, j), 1),
            term(face, cell(1, "beta_h", i, j + 1), -1),
            term(face, cell(1, "beta_v", i, j), -1),
        ]
    stems = ((0, "alpha"), (1, "beta_h"), (1, "beta_v"), (2, "gamma"))
    orbits = [cell(dim, stem, i, j) for dim, stem in stems for i, j in cells]
    return {"group": "p1", "orbits": orbits, "boundary": boundary}
