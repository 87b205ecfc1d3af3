import json
import subprocess
import sys

import pytest

from additive_bases.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_search_json(capsys):
    code, out = run_cli(capsys, "search", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_best"] == 5
    assert doc["witnesses"] == [[0, 1, 2], [0, 1, 3]]
    assert doc["exhaustive"] is True


def test_search_budget_flag(capsys):
    code, out = run_cli(capsys, "search", "--k", "6", "--budget", "3")
    assert code == 1
    assert json.loads(out)["exhaustive"] is False


def test_construct_rohrbach(capsys):
    code, out = run_cli(capsys, "construct", "rohrbach", "--k", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == [0, 1, 2, 3, 4, 5, 10, 15, 20]
    assert doc["verified"] is True
    assert doc["verified_n"] >= 26
    assert doc["coefficient"]["numerator"] == 13  # 26/100 in lowest terms
    assert doc["coefficient"]["denominator"] == 50


def test_bound_moser(capsys):
    code, out = run_cli(capsys, "bound", "moser")
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == pytest.approx(1.0 / 98.0, abs=1e-15)
    assert doc["coefficient_reported"] == 0.4898
    assert doc["linear_slack"] == "+k"


def test_bound_two_var_fast_schema_and_formatting(capsys):
    code, out = run_cli(capsys, "bound", "two-var", "--fast")
    assert code == 0
    pairs = json.loads(out, object_pairs_hook=list)
    keys = [k for k, _ in pairs]
    assert keys == [
        "alpha1",
        "alpha2",
        "c_axial",
        "c_main",
        "kappa",
        "tau",
        "rho_lower",
        "coefficient_upper",
        "route",
    ]
    doc = dict(pairs)
    assert dict(doc["c_axial"])["N"] == 5000
    assert dict(doc["c_main"])["N"] == 500
    assert doc["route"] == "corner"
    assert doc["coefficient_upper"] <= 0.4798
    # floats carry 17 significant digits
    alpha2_text = out.split('"alpha2": ')[1].split(",")[0]
    assert len(alpha2_text.replace("-", "").replace(".", "")) == 17


def test_bound_two_var_route_flag(capsys):
    code, out = run_cli(
        capsys, "bound", "two-var", "--n-axial", "2000", "--n-main", "200",
        "--route", "lemma",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["route"] == "lemma"


def test_basis_stats_trivial(capsys):
    code, out = run_cli(capsys, "basis", "stats", "--set", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["n2"] == 1
    assert doc["delta_total"] == 0
    assert doc["modulus"] is None


def test_basis_stats_full(capsys):
    code, out = run_cli(capsys, "basis", "stats", "--set", "0,1,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n2"] == 5
    assert doc["delta_total"] == 1
    assert doc["identity"]["holds"] is True
    assert doc["ell"] == 1
    assert doc["L"] == 1
    assert doc["inequalities"]["ell_pairs"]["tight"] is True
    assert doc["inequalities"]["ordered_pairs"]["holds"] is True


def test_basis_stats_explicit_modulus(capsys):
    code, out = run_cli(capsys, "basis", "stats", "--set", "{0, 2}", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["modulus"] == 4
    assert doc["ell"] == 1  # 2*2 >= 4


def test_verify_formulas_small(capsys):
    code, out = run_cli(capsys, "verify", "formulas", "--rmax", "2", "--m", "512")
    assert code == 0
    assert out.startswith("PASS")


@pytest.mark.parametrize("rmax", ["0", "-1"])
def test_verify_formulas_rejects_empty_range(capsys, rmax):
    # a radius below 1 checks no coefficient, so it must not report PASS
    code = main(["verify", "formulas", "--rmax", rmax])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --rmax must be at least 1")


def test_verify_constants_fast(capsys):
    code, out = run_cli(capsys, "verify", "constants", "--fast")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert any("alpha2" in line for line in lines)
    assert any("0.4802" in line for line in lines)


def test_verify_constants_full_scale_report(full_scale_intervals):
    from additive_bases.cli import constants_report

    ax, mn = full_scale_intervals
    ok, lines = constants_report(ax, mn, fast=False)
    assert ok, lines
    assert any("0.4789" in line for line in lines)
    assert any("rho0" in line for line in lines)


def test_dump_phi(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code, _ = run_cli(capsys, "dump", "phi", "--grid", "12", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "t1,t2,phi"
    assert len(lines) == 1 + 144


@pytest.mark.parametrize("where", ["missing/grid.csv", "."])
def test_dump_phi_unwritable_path_is_an_error(tmp_path, capsys, where):
    # a missing parent directory, or a directory as the target
    code = main(["dump", "phi", "--grid", "4", "--out", str(tmp_path / where)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "additive_bases", "search", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_best"] == 3
