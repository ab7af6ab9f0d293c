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

The ``snf`` inputs are the seeded dense matrices of ``snf_matrix``: their
transforms P and Q have entries of hundreds of bits, so the digests pin
the whole pivot sequence.
"""

import hashlib
import json
import random

import pytest

from bredon import wallpaper
from bredon.cli import main

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

#: sha256 of ``snf --format json`` and of ``snf --format text`` per matrix shape.
SNF_DENSE = {
    "8x8": (
        "8be858933f9ba8369a468d087d9b11c0028a89d06336f38417890cec9d4f34d3",
        "2d2378b47b8708100e242006c60de62751ff8f34e26762a471e6f083af07c1f7",
    ),
    "8x24": (
        "480e8a669e2e0d14fd4e11dcdb082dc3fdcee791692a3b6d32ae2994db351e23",
        "417a221aa18324c065712124926489815cd60e8e08f28c5988ef7f1072e21f07",
    ),
    "12x20": (
        "3a6aeeafccc40aee4f6dddf77c7885e42fb477664988a3461db33b84004ceb53",
        "3e4b620e362d1bdd355d2fc4cee2312f5e60826893d78c933db81a81fa01ccf7",
    ),
    "16x16": (
        "46dc7533e0066e7f18e3c11f8eb9dec07ca9d523a683616de791e435e3e4286e",
        "67782ac667428eb460879546ab793159425f1133534ae67a0c34b6f77279a195",
    ),
    "20x12": (
        "95c7dec489fcd777c906158947a6a2edc61c0e88bcdf323a09838cbf777e5726",
        "36d24a4a5b146efd2fe0063fe725f6a9e669bf8972b22ace1c37f10ebc6e65b9",
    ),
    "24x8": (
        "5fe40328b38e4bf380679bb59a8f61ee5443589ea5aeb544cc87cbf365247438",
        "4a71f8d5dc586cd7bcaffb0ec60be052ad4ce8fc26b3810311bf867a85a0fa3d",
    ),
    "24x24": (
        "5a254c3b55828462d9ed9e8438ce404278790c95dd14cfbf9cd4b73e7eb320fa",
        "b3a0ab3701ffe8b9b0f9c204a6cfeddac69d19f1207097c0278e68a7f808e7cd",
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
    assert sorted(SHOW_DIFFERENTIALS_AND_SNF) == sorted(wallpaper.list_groups())


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
