"""Golden digests of the built-in CLI outputs.

Each digest is the sha256 of a command's stdout, pinned from a run of the
commands below. A change to the engine, the SNF or the character tables
that alters any byte of what users see fails here; if the change is meant,
recompute the digests and say why in the change log.

    python -m bredon compute --all --format json | sha256sum
    python -m bredon verify | sha256sum                  # exits 1: the cm H_1 basis
    python -m bredon dump --dump-tables | sha256sum
    python -m bredon compute <g> --show-differentials --show-snf | sha256sum
    python -m bredon snf <m.json> --format json | sha256sum   # and --format text
    python -m bredon dump --dump-complex <g> > <g>.json; sha256sum <g>.json
    python -m bredon dump --from-file <g>.json --format json | sha256sum

The ``snf`` inputs are the seeded dense matrices of ``snf_matrix``: their
transforms P and Q have entries of hundreds of bits, so the digests pin
the whole pivot sequence.  The ``dump`` pair pins the complex a user
starts from and the report written for it, through the JSON writer.
``SUBDIVIDED`` pins ``dump --from-file --format json`` on seeded
subdivisions (``subdivision.subdivided_group``), whose differentials are
sparse enough for the Smith normal form's dict-row storage.
"""

import hashlib
import json
import random

import pytest

from bredon import gcw, intlinalg, reference, wallpaper
from bredon.cli import main
from bredon.homology import compute_homology, verify_basis
from subdivision import subdivided_group

COMPUTE_ALL_JSON = "943fc8e5c37ae682d8445c356e77f83cdd469ac89f456c2ac670851344b3c8a7"
VERIFY = "68318cc195f39ff0af5cb93fad25393a4d60c58813f149075926e7722d5584b5"
DUMP_TABLES = "d02c9a08b9c2fd787e672e57afbfbac904a05a50f3460c1a2d88cf69417d287b"

SHOW_DIFFERENTIALS_AND_SNF = {
    "p1": "890aa699d928b04b0bcb6ff17e19f8a267a4c5a154ff91a5576c6e2d5e5b12d3",
    "p2": "ff6fc9d33c480d46d5f2df1242be78fe0b068681696f948861f5c0fa6ef7feef",
    "pm": "f87c791a37eb8664b361e56d123fc42b2de1a6fcd59bb0fc9afd3984522c21ae",
    "pg": "b940e70f7853e5f0b185c876888a0545a3e45f341216ff115d9b42af6b6e004e",
    "cm": "c504c87f1c540cf4560e556ebb9cf7ae3fb4f55dbf4833852b7b3b0b4f91c63d",
    "pmm": "b43228338f129f758614942a4dbd0b5cc0d2279ae6fac674885264eacae21d1f",
    "pmg": "e786e7dce0d54ff2398369dc0b9a27d22cc022c2becee242b77ee369e448e86f",
    "pgg": "9d37396a9ea08d10848fce9f0831ed05eb2bee6cd8a2552f6fa223cce5fc08bf",
    "cmm": "254529699294d5f221a69c56e7421ca16ddd0934f6de4153ab8cd4becee39676",
    "p4": "44ade0c85b9f0b255b218a4c2357df083195c80d5e1ab55be6c747c61daae264",
    "p4m": "6a4d508b821ddd7fdba57713c6f7e019a95f9b4a8709f7aaeb7d8c04c7b7c0bc",
    "p4g": "52f74810091d4100868851c303a49d89ae25ed19f6a1736bdb51eeb3ebd81f50",
    "p3": "c239b9ecc5e208aaf80f789dcdcc752775ef0304c1e524580e115a7ecb5599b4",
    "p3m1": "0918302de6e30efe2ff73db7e9d5cc250d10b5ecd7087dc3db3c163d35d997e6",
    "p31m": "377ae3ece5ce6362a075a23391975248698bb729e8015fde0ced344d71694501",
    "p6": "70cd6b97d07286bdcbad3d390d5f28a55bf0b351306a551b5dfc65d28b0daf8b",
    "p6m": "e324e7a4d047ad6a867d957ac194773ae2bd43742d3a574cb399b824f894765c",
}

#: sha256 of ``dump --dump-complex <g>`` and of ``dump --from-file <that output> --format json``.
DUMP = {
    "p1": ("5b4e05e6231e6dc9c43d3cd0033932f49ee98273568db90b1e670be883ee6d0a", "08e2a379c10d4386112c900a3a71c0de71c045a2a20c7a2df5289151c336a246"),
    "p2": ("408aa12fc8194281e1a255a957bbf492b133d1d68370eed8860a67b149a13ab1", "35865402954523e3965e39cca1cfb9981cec6f41908444f769d488c6c59835c7"),
    "pm": ("c99bab5c9fd3a57c8c7e6920bd96e5965f3ef4e69af2e4adfaca641018d2cbd6", "f74443ef2c8111630b09db771e06716e1208ee4fba80ec7d8e38c4aaa2cba19a"),
    "pg": ("a5563ad0c865fe613317989428ed5edeae5feaec8b8eeb9882d57ee7546e63a3", "bfce230addc2d5e9edd96e5415779b8a002fb136b4c34ff8426711a2d770b0d2"),
    "cm": ("63d31d3180ea05f3b5576cce46647b7012296910f8c6b57337f6482154a005f5", "4c96978ba8a8b1a7ce92498ad08aa1ebb8f3bc2635bda385189416f3474fce41"),
    "pmm": ("d17b2b6f0dd34535531036979ed6d792dfae79e005bf5ad82901f8457c2b60de", "59f773f0fcac2a643bb410e60fb0d6dc0004f9e99f607cfcc4f259e1235f63fa"),
    "pmg": ("b64e5381987647065b6874d0ba6c381e23f9f5e8432d398b2cc9f386896cf7ae", "f9df6475f6d82cabb7cefead67d7ad71948cb2d425de764659a98c3ab69a9d68"),
    "pgg": ("6a9030389dcdf39253b7fcb16a688fd8387e6c6c258a228a294cda8d8b961261", "ad7de4027d7b308c4a9de5235f7a5777b9686a20c9473326225a76c5fa6b85ab"),
    "cmm": ("647650e6dedd47b8e677faf9c912f1144b376a445add0f466c6adf2f88c0901a", "28133f2ef74c8c7e48e08d773dd8131e4bb6593cc1aef1f8f8ba57e162335288"),
    "p4": ("15d7e941d5b83c4b97583ae5c8b6745ed75926752784d2b0eb8c7114c212590e", "3a77858094c73aaa05df0187d92e476eeac5b63cb79723b62a24035bd2eb6cde"),
    "p4m": ("3147342f065a3f5cbb765cc372f5f1554e0a86ccd70f73b6d9b493e05cd99b06", "8072b603c9af2ebaaecf8c2ff6f3d857d0eb5f41a7153c4522d936cbef95a703"),
    "p4g": ("6192b6fe152dbe740d96f4535d37fc7fd0a7c872729d456e04859ef389d3f421", "f6ecaeaa5ad1e6f03f47b8426fb8429514fd1e279494e8589f6299389c293597"),
    "p3": ("21c42a3d85b806a9eb3f007cb33fd6529b7d9f2ccc86cfe1fa79fcfb00ba731d", "d636d4b8d7aaff29224322412e8cbc613cb3adeec4f48ea7a8a875d8b30d023c"),
    "p3m1": ("609c89eff3fc8c024d5a1f985123f6da78514a59bfa4408f29a1f0c0b891d90f", "756fa34caacdfe6dfc22ad7810a3a61e0f132fcb2727a0eaac5a3c3d1a6c4591"),
    "p31m": ("8c9a2556c730418bc064993806eee145b807e6fb4333676eee5c2cf27598bae3", "7ea5bbdd6d36ae196fb910534e1eeffe4cdce3c876cd3c40d643b97f29856781"),
    "p6": ("8d41c3f701fc50e1b5a40867fb7af820afa8b3e8839d00e126fa68b3d3059e99", "5f4c610887a0e7c358f7c6e6ff578349fde8897c13140467050f69a1e4141c69"),
    "p6m": ("8f2e604ba8c19a92e6cc91c332b8663689133eeb0b0fb72530ce54c23b2e301c", "ee9d09ba6f345d7f66b7c08f21cfe9869bf098b012f702d075eee900b76b844f"),
}

#: sha256 of ``dump --from-file <subdivided_group(g, steps)> --format json`` per (g, steps).
SUBDIVIDED = {
    ("p6m", 120): "ae143f321adadff50946709743afc3d417fdc8a0bf8602a6f6725ffa0b30f5bc",
    ("pm", 40): "ea5611b6d6c31b85791b6fbc4ede16fd229e4753ff0935ce6f4c7053fbf09a6e",
    ("p4g", 80): "44ac1779ca76da0afe6b03b1b34e6e7d32b2cb5ab3ae5aaa67f382f101eae0b4",
    ("cm", 60): "cea0b41978995cdb2833e6903187b78490b3b80b112023813d7c565426b208d0",
    ("p6m", 480): "c7d321881e931740c1d6fc2700efb48e3b1b149b445b4ff5e738467410c57da7",  # d1 is 973x966
}

#: sha256 of ``snf --format json`` and of ``snf --format text`` per matrix shape.
SNF_DENSE = {
    "8x8": (
        "28510cbf520d836903741a8ed4eac830cae8d8a5bee20e9560a665a15558c436",
        "5e4f3256b5bfdcf08f691125b1e8471e2f03106e6f76ce14415bf80536024f3d",
    ),
    "8x24": (
        "badbc25c7f4a38ea78d0a42d9770cb4ec32e68b3c8bdfe91d4c4e786de5d9878",
        "ee774e289d0c24101901ac11841b61380e28dba882488037608a30f1f9276db0",
    ),
    "12x20": (
        "3cda10d2ec57532a5d3d82d6e17a15084df49e19de7aca74461cafb2aee3110b",
        "fa360aa0e270ab7a77e53c59a88f93fbcbff72bcc3d1509013807b1dc63a1d26",
    ),
    "16x16": (
        "fce23771ddcc18494f6ea68d55890e9595c9ce74f14b1c9987e8edb53b06511e",
        "e5540c0c9d12e0a56bb7c2fce4765313590ef88d20561fe8101b01898acadda5",
    ),
    "20x12": (
        "ab42ba4ac8cdb2079e6ebac9632a34ca3c10345695dfe9fefa3f575b301b9091",
        "b15b62e0b597aa5720403fbab57a34baf87818b1215445ac476653c919bc9ee3",
    ),
    "24x8": (
        "33d2e53fe858b291f41e8c2ffe56a67b3f6fd4246ba72e466e863052b198ad6f",
        "3ed4036fe94cb08ad404d5134c7be5eee47780c697e254289e495328872bdb49",
    ),
    "24x24": (
        "3fc08e4661994126afaf9877be092a3cd3c9728412773c101cc74d6de480deec",
        "ad79698f30082d903000fa3bdf132172f16ddeb92d8a21c4489c75e680a27280",
    ),
    "32x32": (
        "7c2cef7c60b825edfed4133138f6e4ba495e02ab3b785f65989ba125e87ae4fa",
        "54bec57c974bc9a00937acc3121a1927cfad8dd60842e2c98b962a6517f6a19a",
    ),
}


def snf_matrix(shape: str) -> list[list[int]]:
    """The dense matrix of ``shape`` ("<rows>x<cols>") with entries in [-99, 99]."""
    rows, cols = map(int, shape.split("x"))
    rng = random.Random(f"snf-golden-{shape}")
    return [[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)]


def digest(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_compute_all_json(capsys):
    assert digest(capsys, "compute", "--all", "--format", "json") == (0, COMPUTE_ALL_JSON)


def test_verify_reports_the_cm_basis_and_exits_one(capsys):
    assert digest(capsys, "verify") == (1, VERIFY)


def test_dump_tables(capsys):
    assert digest(capsys, "dump", "--dump-tables") == (0, DUMP_TABLES)


def test_every_group_is_pinned():
    assert sorted(SHOW_DIFFERENTIALS_AND_SNF) == sorted(DUMP) == sorted(wallpaper.list_groups())


@pytest.mark.parametrize("name", wallpaper.list_groups())
def test_show_differentials_and_snf(capsys, name):
    expected = SHOW_DIFFERENTIALS_AND_SNF[name]
    assert digest(capsys, "compute", name, "--show-differentials", "--show-snf") == (0, expected)


@pytest.mark.parametrize("shape", SNF_DENSE)
def test_snf_dense(capsys, tmp_path, shape):
    path = tmp_path / f"{shape}.json"
    path.write_text(json.dumps(snf_matrix(shape)), encoding="utf-8")
    expected_json, expected_text = SNF_DENSE[shape]
    assert digest(capsys, "snf", str(path), "--format", "json") == (0, expected_json)
    assert digest(capsys, "snf", str(path), "--format", "text") == (0, expected_text)


@pytest.mark.parametrize("name", wallpaper.list_groups())
def test_dump_complex_and_from_file(capsys, tmp_path, name):
    expected_complex, expected_report = DUMP[name]
    assert main(["dump", "--dump-complex", name]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected_complex
    path = tmp_path / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    assert digest(capsys, "dump", "--from-file", str(path), "--format", "json") == (0, expected_report)


@pytest.mark.parametrize("name, steps", SUBDIVIDED)
def test_dump_from_file_of_a_subdivision(capsys, tmp_path, name, steps):
    data = subdivided_group(name, steps)
    path = tmp_path / f"{name}-{steps}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert digest(capsys, "dump", "--from-file", str(path), "--format", "json") == (0, SUBDIVIDED[name, steps])
    subdivided = gcw.from_json_dict(data)
    assert intlinalg._row_storage(gcw.differentials(subdivided)[0]) is intlinalg._SparseRows
    # a subdivision is chain homotopy equivalent to the complex, so Table 4 still holds
    report = compute_homology(subdivided)
    h2, h1, _, h0, _ = reference.HOMOLOGY_ROWS[name]
    assert tuple(report.group(d).iso_type() for d in (2, 1, 0)) == (h2, h1, h0)
    # the engine's own bases, read off the replayed transforms, pass its own check
    for d in (0, 1, 2):
        g = report.group(d)
        assert verify_basis(report, d, g.torsion_basis + g.basis).accepted, (name, steps, d)
