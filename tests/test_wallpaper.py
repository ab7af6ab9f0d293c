from fractions import Fraction

import pytest

from bredon import chartab, gcw, homology, wallpaper

ALL_GROUPS = wallpaper.list_groups()

DIHEDRAL = {"D2", "D3", "D4", "D6"}

# Conway orbifold symbols (Conway, Burgiel and Goodman-Strauss, "The
# Symmetries of Things", 2008): digits before any * are cone points, digits
# after it corner points; o is a handle, each * a boundary, each × a cross-cap.
CONWAY = {
    "p1": "o", "p2": "2222", "pm": "**", "pg": "××", "cm": "*×",
    "pmm": "*2222", "pmg": "22*", "pgg": "22×", "cmm": "2*22",
    "p4": "442", "p4m": "*442", "p4g": "4*2",
    "p3": "333", "p3m1": "*333", "p31m": "3*3", "p6": "632", "p6m": "*632",
}


def _from_cells(complex):
    """(torsion primes, reflections, rotation orders) read off the stabilizers: the
    primes dividing some stabilizer order; whether some edge orbit, a mirror, has a
    nontrivial stabilizer; n for each D_n vertex and each C_n vertex (n >= 2) on no mirror."""
    mirrors = {o.orbit_id for o in complex.orbits_of_dimension(1) if o.stabilizer != "C1"}
    on_mirror = {t.target for t in complex.boundary if t.source in mirrors}
    rotations = {
        int(o.stabilizer[1:])
        for o in complex.orbits_of_dimension(0)
        if o.stabilizer[0] == "D" or (o.stabilizer != "C1" and o.orbit_id not in on_mirror)
    }
    orders = {chartab.GROUP_ORDERS[o.stabilizer] for o in complex.orbits}
    torsion = {p for n in orders for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))}
    return frozenset(torsion), bool(mirrors), frozenset(rotations)


def test_seventeen_groups_in_order():
    assert ALL_GROUPS == [
        "p1", "p2", "pm", "pg", "cm", "pmm", "pmg", "pgg", "cmm",
        "p4", "p4m", "p4g", "p3", "p3m1", "p31m", "p6", "p6m",
    ]
    # the names come from the cell structures; the hand data of the records
    # (point group, split, glide reflections) lists them in the same order
    assert list(wallpaper._CELLS) == list(wallpaper._HAND) == ALL_GROUPS


def test_unknown_group():
    with pytest.raises(wallpaper.UnknownGroupError):
        wallpaper.get_group("p7")


def test_point_groups():
    expected = {
        "p1": "C1", "p2": "C2", "pm": "C2", "pg": "C2", "cm": "C2",
        "pmm": "D2", "pmg": "D2", "pgg": "D2", "cmm": "D2",
        "p4": "C4", "p4m": "D4", "p4g": "D4",
        "p3": "C3", "p3m1": "D3", "p31m": "D3", "p6": "C6", "p6m": "D6",
    }
    for name, pg in expected.items():
        assert wallpaper.get_group(name)[1].point_group == pg


def test_split_column():
    non_split = {"pg", "pmg", "pgg", "p4m"}
    for name in ALL_GROUPS:
        rec = wallpaper.get_group(name)[1]
        if name == "p1":
            assert rec.split == "n/a"
        else:
            assert rec.split == ("no" if name in non_split else "yes")


def test_torsion_primes():
    for name in ALL_GROUPS:
        torsion_primes = _from_cells(wallpaper.get_group(name)[0])[0]
        if name in ("p1", "pg"):
            assert torsion_primes == frozenset()
        else:
            assert torsion_primes
        assert torsion_primes <= {2, 3}
    assert _from_cells(wallpaper.get_group("p3")[0])[0] == {3}
    assert _from_cells(wallpaper.get_group("p6m")[0])[0] == {2, 3}


def test_rotation_and_reflection_columns():
    complex, rec = wallpaper.get_group("p6")
    _, reflections, rotations = _from_cells(complex)
    assert rotations == {2, 3, 6} and not reflections and not rec.has_glide_reflections
    complex, rec = wallpaper.get_group("cm")
    _, reflections, rotations = _from_cells(complex)
    assert rotations == frozenset() and reflections and rec.has_glide_reflections
    assert _from_cells(wallpaper.get_group("p4g")[0])[2] == {2, 4}


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_complexes_validate(name):
    complex, _ = wallpaper.get_group(name)
    assert gcw.validate(complex) == []


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_single_2_orbit_with_trivial_stabilizer(name):
    complex, _ = wallpaper.get_group(name)
    two_cells = complex.orbits_of_dimension(2)
    assert len(two_cells) == 1
    assert two_cells[0].stabilizer == "C1"


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_stabilizers_sit_inside_point_group(name):
    complex, record = wallpaper.get_group(name)
    point_order = chartab.GROUP_ORDERS[record.point_group]
    for orbit in complex.orbits:
        assert point_order % chartab.GROUP_ORDERS[orbit.stabilizer] == 0
        if orbit.stabilizer in DIHEDRAL:
            assert record.point_group in DIHEDRAL


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_torsion_free_groups_act_freely(name):
    complex, _ = wallpaper.get_group(name)
    if not _from_cells(complex)[0]:
        assert all(o.stabilizer == "C1" for o in complex.orbits)
    else:
        assert any(o.stabilizer != "C1" for o in complex.orbits)


def test_p4_stabilizers():
    complex, _ = wallpaper.get_group("p4")
    assert [o.stabilizer for o in complex.orbits_of_dimension(0)] == ["C4", "C2", "C4"]
    assert [o.stabilizer for o in complex.orbits_of_dimension(1)] == ["C1", "C1"]


def test_p6m_stabilizers():
    complex, _ = wallpaper.get_group("p6m")
    assert [o.stabilizer for o in complex.orbits_of_dimension(0)] == ["D6", "D3", "D2"]
    assert [o.stabilizer for o in complex.orbits_of_dimension(1)] == ["C2", "C2", "C2"]


def test_p1_all_trivial():
    complex, _ = wallpaper.get_group("p1")
    assert all(o.stabilizer == "C1" for o in complex.orbits)


def _digits(text):
    return sorted(int(c) for c in text if c.isdigit())


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_cells_match_the_conway_orbifold_symbol(name):
    complex, _ = wallpaper.get_group(name)
    torsion_primes, has_reflections, rotation_orders = _from_cells(complex)
    symbol = CONWAY[name]
    # a cocompact plane group has orbifold Euler characteristic 0
    assert sum(Fraction((-1) ** o.dimension, chartab.GROUP_ORDERS[o.stabilizer]) for o in complex.orbits) == 0
    # the cells' Euler characteristic is that of the underlying surface
    surface_euler = 2 - 2 * symbol.count("o") - symbol.count("*") - symbol.count("×")
    assert sum((-1) ** o.dimension for o in complex.orbits) == surface_euler

    mirrors = {o.orbit_id for o in complex.orbits_of_dimension(1) if o.stabilizer != "C1"}
    on_mirror = {t.target for t in complex.boundary if t.source in mirrors}
    vertices = complex.orbits_of_dimension(0)
    corners = sorted(int(v.stabilizer[1:]) for v in vertices if v.stabilizer in DIHEDRAL)
    cones = sorted(
        int(v.stabilizer[1:])
        for v in vertices
        if v.stabilizer not in DIHEDRAL | {"C1"} and v.orbit_id not in on_mirror
    )
    before, _, after = symbol.partition("*")
    assert corners == _digits(after)
    assert cones == _digits(before)

    digits = set(_digits(symbol))
    assert digits <= {2, 3, 4, 6}  # the crystallographic restriction
    assert rotation_orders == digits
    assert has_reflections == ("*" in symbol)
    primes = {p for p in (2, 3) if any(n % p == 0 for n in digits)}
    assert torsion_primes == primes | ({2} if "*" in symbol else set())


@pytest.mark.parametrize(
    "name, ranks", [("p1", (2, 2)), ("p2", (6, 0)), ("p3", (8, 0)), ("p4", (9, 0)), ("p6", (10, 0))]
)
def test_orientable_groups_match_the_orbifold_closed_form(name, ranks):
    """Lück–Stamm: an orientable orbifold of genus g with cone points of orders
    m_i gives K_0 = Z^(2 + sum(m_i - 1)) and K_1 = Z^(2g), both torsion-free, and
    in dimension 2 K_0 = H_0 + H_2 and K_1 = H_1.  The expected ranks are read
    from the Conway symbol alone: no cell, character or matrix."""
    symbol = CONWAY[name]
    assert "*" not in symbol and "×" not in symbol  # orientable, no boundary
    genus, cones = symbol.count("o"), _digits(symbol)
    assert (2 + sum(m - 1 for m in cones), 2 * genus) == ranks
    h0, h1, h2 = homology.compute_homology(wallpaper.get_group(name)[0]).groups
    assert (h0.free_rank + h2.free_rank, h1.free_rank) == ranks
    assert h0.torsion == h1.torsion == h2.torsion == ()
