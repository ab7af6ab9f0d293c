import pytest

from bredon import chartab, gcw, wallpaper

ALL_GROUPS = wallpaper.list_groups()

DIHEDRAL = {"D2", "D3", "D4", "D6"}


def test_seventeen_groups_in_order():
    assert ALL_GROUPS == [
        "p1", "p2", "pm", "pg", "cm", "pmm", "pmg", "pgg", "cmm",
        "p4", "p4m", "p4g", "p3", "p3m1", "p31m", "p6", "p6m",
    ]
    # every group has a record and a cell structure, listed in the same order
    assert list(wallpaper._CELLS) == ALL_GROUPS


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
        assert wallpaper.get_record(name).point_group == pg


def test_split_column():
    non_split = {"pg", "pmg", "pgg", "p4m"}
    for name in ALL_GROUPS:
        rec = wallpaper.get_record(name)
        if name == "p1":
            assert rec.split == "n/a"
        else:
            assert rec.split == ("no" if name in non_split else "yes")


def test_torsion_primes():
    for name in ALL_GROUPS:
        rec = wallpaper.get_record(name)
        if name in ("p1", "pg"):
            assert rec.torsion_primes == frozenset()
        else:
            assert rec.torsion_primes
        assert rec.torsion_primes <= {2, 3}
    assert wallpaper.get_record("p3").torsion_primes == {3}
    assert wallpaper.get_record("p6m").torsion_primes == {2, 3}


def test_rotation_and_reflection_columns():
    rec = wallpaper.get_record("p6")
    assert rec.rotation_orders == {2, 3, 6} and not rec.has_reflections and not rec.has_glide_reflections
    rec = wallpaper.get_record("cm")
    assert rec.rotation_orders == frozenset() and rec.has_reflections and rec.has_glide_reflections
    rec = wallpaper.get_record("p4g")
    assert rec.rotation_orders == {2, 4}


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
    complex, record = wallpaper.get_group(name)
    if not record.torsion_primes:
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
