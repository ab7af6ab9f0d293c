"""Seeded edge subdivisions of a complex in wire format, for tests.

One step is the one the benchmark's input generator takes: edge orbit e
with stabilizer H becomes e_a (keeping e's id and label), a new edge e_b
and a new vertex u, both with stabilizer H.  e's -1 boundary terms move to
e_b, e_a -> u gets sign -1 and e_b -> u sign +1 along H->H, and every
2-cell term on e is duplicated onto e_b.  As d(e_a) + d(e_b) = d(e), the
result is chain homotopy equivalent to the input and has its homology.
The steps go round the edge orbits in a seeded order.

Differentials of these complexes are a few percent nonzero, so their
reductions take the sparse row storage of ``smith_normal_form``.
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
