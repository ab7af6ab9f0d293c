"""Acceptance suite: one check per release criterion.

Every criterion prints a single ``[criterion N] PASS/FAIL`` line (visible
with ``pytest -s``) and asserts exactness; there are no tolerances
anywhere, all comparisons are over exact integers.

Known honest failure: criterion 4 requires every recorded reference basis
to be accepted, but the degree-1 generator list recorded for ``cm`` spans
an index-2 sublattice of H_1 and is rejected by the verifier (the
relation 2*beta_0 + beta_1^1 + beta_1^2 = 0 leaves the class of beta_0
outside the span of beta_1^1 and beta_1^2).  The same defect makes the
``--bases`` leg of criterion 9 exit nonzero.  A corrected generating list
for that row is checked in ``test_homology.py``.
"""

import json
import random
import time

import pytest

from bredon import chartab, gcw, homology, reference, wallpaper
from bredon.cli import main
from bredon.intlinalg import IntegerMatrix, smith_normal_form
from snf_helpers import cokernel, entry, identity, kernel_basis, row

ALL_GROUPS = wallpaper.list_groups()

#: Invariant factor spot checks: (group, differential degree) -> factors.
INVARIANT_FACTOR_CHECKS: dict[tuple[str, int], tuple[int, ...]] = {
    ("p2", 1): (1, 1, 1),
    ("pg", 2): (2,),
    ("pmm", 1): (1, 1, 1, 1, 1, 1, 1),
    ("pgg", 2): (2,),
}


def _report(criterion: int, description: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {criterion}] {status} - {description}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def reports():
    return {name: homology.compute_homology(wallpaper.get_group(name)[0]) for name in ALL_GROUPS}


def test_criterion_1_homology_table_reproduced(reports):
    failures = []
    for name in ALL_GROUPS:
        h2, h1, _, h0, _ = reference.HOMOLOGY_ROWS[name]
        rep = reports[name]
        computed = (rep.group(2).iso_type(), rep.group(1).iso_type(), rep.group(0).iso_type())
        if computed != (h2, h1, h0):
            failures.append(f"{name}: {computed} != {(h2, h1, h0)}")
    _report(1, "computed (H2, H1, H0) match the reference table for all 17 groups", failures)


def test_criterion_2_induced_characters_reproduced():
    failures = []
    for line, emb_id, source, expected in reference.INDUCED_CHARACTER_ROWS:
        emb = chartab.get_embedding(emb_id)
        sub, sup = chartab.build_table(emb.sub), chartab.build_table(emb.sup)
        m = chartab.induction_matrix(emb)
        j = sub.irreducible_names().index(source)
        computed = {
            name: entry(m, i, j) for i, name in enumerate(sup.irreducible_names()) if entry(m, i, j)
        }
        if computed != expected:
            failures.append(f"line {line} ({emb_id}, {source}): {computed} != {expected}")
    _report(2, "all 17 reference induced-character rows recomputed exactly", failures)


def test_criterion_3_invariant_factor_spot_checks(reports):
    failures = []
    for (name, degree), expected in INVARIANT_FACTOR_CHECKS.items():
        rep = reports[name]
        got = rep.invariant_factors_d1 if degree == 1 else rep.invariant_factors_d2
        if got != expected:
            failures.append(f"{name} d{degree}: {got} != {expected}")
    _report(3, "invariant factors of selected differentials match", failures)


def test_criterion_4_reference_bases_accepted(reports):
    failures = []
    for name in ALL_GROUPS:
        _, _, h1_basis, _, h0_basis = reference.HOMOLOGY_ROWS[name]
        for degree, basis in ((1, h1_basis), (0, h0_basis)):
            verdict = homology.verify_basis(reports[name], degree, basis)
            if not verdict.accepted:
                failures.append(f"{name} H_{degree}: {verdict.detail}")
    _report(4, "every recorded reference basis is ACCEPTed", failures)


def test_criterion_4_mutated_basis_rejected(reports):
    mutated = [
        {"alpha_0^1": 1}, {"alpha_0^1": 1}, {"alpha_1^2": 1}, {"alpha_2^2": 1}, {"alpha_3^2": 1}
    ]
    failures = []
    if homology.verify_basis(reports["p2"], 0, mutated).accepted:
        failures.append("duplicated generator was accepted")
    _report(4, "a mutated basis (duplicate generator) is REJECTed", failures)


def test_criterion_5_chain_complex_soundness(reports):
    failures = []
    for name in ALL_GROUPS:
        complex = wallpaper.get_group(name)[0]
        violations = gcw.validate(complex)
        if violations:
            failures.append(f"{name}: {violations}")
        rep = reports[name]
        if not (rep.d1 @ rep.d2).is_zero():
            failures.append(f"{name}: d1 . d2 != 0")
    _report(5, "d1 . d2 = 0 and validation is clean for all 17 complexes", failures)


def test_criterion_6_euler_identity(reports):
    failures = []
    for name in ALL_GROUPS:
        rep = reports[name]
        c0, c1, c2 = rep.chain_ranks
        chain_side = c0 - c1 + c2
        homology_side = (
            rep.group(0).free_rank - rep.group(1).free_rank + rep.group(2).free_rank
        )
        if chain_side != homology_side:
            failures.append(f"{name}: {chain_side} != {homology_side}")
    _report(6, "alternating chain ranks equal alternating homology free ranks", failures)


def test_criterion_7_randomized_snf_suite():
    rng = random.Random(0x5EED)
    failures = []
    started = time.monotonic()
    for trial in range(1000):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], cols=n
        )
        snf = smith_normal_form(a)
        ok = (
            snf.P @ a @ snf.Q == snf.D
            and snf.P @ snf.P_inv == identity(m)
            and snf.Q @ snf.Q_inv == identity(n)
            and all(d > 0 for d in snf.invariant_factors)
            and all(
                e % d == 0 for d, e in zip(snf.invariant_factors, snf.invariant_factors[1:])
            )
        )
        k = len(snf.invariant_factors)
        ok = ok and kernel_basis(a).cols == n - k and cokernel(a).free_rank == m - k
        if m == n:
            det = _bareiss_det(a)
            if det:
                prod = 1
                for d in snf.invariant_factors:
                    prod *= d
                ok = ok and prod == abs(det)
            else:
                ok = ok and k < n
        if not ok:
            failures.append(f"trial {trial}: {a.to_rows()}")
            if len(failures) > 3:
                break
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(7, f"1000 randomized SNF decompositions verified in {elapsed:.1f}s", failures)


def _bareiss_det(m: IntegerMatrix) -> int:
    """Fraction-free determinant; independent of the SNF code path."""
    n = m.rows
    a = [list(row(m, i)) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def test_criterion_8_torsion_free_groups(reports):
    failures = []
    torus = ((1, ()), (2, ()), (1, ()))
    klein = ((0, ()), (1, (2,)), (1, ()))
    for name, expected in (("p1", torus), ("pg", klein)):
        rep = reports[name]
        got = (rep.group(2).iso_type(), rep.group(1).iso_type(), rep.group(0).iso_type())
        if got != expected:
            failures.append(f"{name}: {got} != {expected}")
    _report(8, "p1 gives the torus homology and pg the Klein bottle homology", failures)


def test_criterion_9_cli_roundtrip(tmp_path, capsys):
    failures = []
    for name in ALL_GROUPS:
        assert main(["dump", "--dump-complex", name]) == 0
        dumped = capsys.readouterr().out
        path = tmp_path / f"{name}.json"
        path.write_text(dumped, encoding="utf-8")
        assert main(["dump", "--from-file", str(path), "--format", "json"]) == 0
        via_file = capsys.readouterr().out
        assert main(["compute", name, "--format", "json"]) == 0
        direct = capsys.readouterr().out
        if json.loads(via_file) != json.loads(direct):
            failures.append(f"{name}: report differs after dump/load round trip")
    _report(9, "dump -> from-file -> compute equals direct compute for all 17 groups", failures)


def test_criterion_9_cli_verify_exits_zero(capsys):
    code = main(["verify", "--table3", "--table4", "--bases"])
    out = capsys.readouterr().out
    failures = [] if code == 0 else [f"exit code {code}; output:\n{out}"]
    _report(9, "verify --table3 --table4 --bases exits 0", failures)
