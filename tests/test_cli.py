import importlib
import json
import re
import runpy
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from additive_bases import cli
from additive_bases.certify import REF_COEFFICIENT, REF_ORACLE_TOL, certify
from additive_bases.cli import SCALE, build_parser, main
from additive_bases.fourier2d import _NEAR_AXIS, c_axial, c_main
from additive_bases.sumsets import Basis, exp_sum_stats

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _float_bits(doc) -> list:
    """Every float in a JSON tree, in document order, as float.hex (its exact bits)."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [bits for item in doc for bits in _float_bits(item)]
    return [doc.hex()] if isinstance(doc, float) else []


def test_search_json(capsys):
    code, out = run_cli(capsys, "search", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_best"] == 5
    assert doc["witnesses"] == [[0, 1, 2], [0, 1, 3]]
    assert doc["exhaustive"] is True


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
    assert list(doc) == ["c", "coefficient", "coefficient_reported", "linear_slack",
                         "balance_fraction", "alpha1", "alpha2", "weight_sum",
                         "closed_form_agrees"]
    assert doc["c"] == pytest.approx(1.0 / 98.0, abs=1e-15)
    assert doc["coefficient_reported"] == 0.4898
    assert doc["linear_slack"] == "+k"
    assert doc["closed_form_agrees"] is True
    # Each float lies on its safe side of the exact value: c below, the coefficient above.
    assert Fraction(doc["c"]) <= Fraction(1, 98)
    assert Fraction(doc["coefficient"]) >= Fraction(24, 49)


def test_bound_two_var_fast_schema_and_formatting(certificate_runs, full_scale_intervals):
    # The stored runs are the ones criterion 8 finds byte-identical under --fast.
    code, out = certificate_runs[("bound", "two-var")]
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
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
    assert [list(doc[key]) for key in ("c_axial", "c_main", "kappa", "tau")] == [
        ["lo", "hi", "N"], ["lo", "hi", "N"], ["lo", "hi"], ["lo", "hi"]]
    assert isinstance(doc["alpha1"], float)  # 1.0 prints as "1.0", not as the integer 1
    assert doc["c_axial"]["N"] == doc["c_main"]["N"] == SCALE
    assert doc["route"] == "corner"
    assert doc["coefficient_upper"] <= REF_COEFFICIENT
    # Every printed float reads back to the certificate's own double, bit
    # for bit, on both routes.
    for route, argv in (("corner", ("bound", "two-var")),
                        ("lemma", ("bound", "two-var", "--route", "lemma"))):
        code, out = certificate_runs[argv]
        assert code == 0
        printed = _float_bits(json.loads(out))
        assert len(printed) == 12
        assert printed == _float_bits(certify(*full_scale_intervals, route=route).to_json_dict())


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
    # The spectrum is taken at the covering radius, where the surplus lemmas hold.
    assert doc["modulus"] == 5
    assert doc["ell"] == 1
    assert doc["L"] == 1
    assert doc["inequalities"]["ell_pairs"]["tight"] is True
    # whole-valued floats (here every lemma bound) still parse back as floats
    assert isinstance(doc["M"], float)
    assert all(isinstance(check["bound"], float) for check in doc["inequalities"].values())
    # M and mu read back to exp_sum_stats' own doubles, bit for bit
    st = exp_sum_stats(Basis((0, 1, 3)), 5)
    assert _float_bits([doc["M"], doc["mu"]]) == _float_bits([st.M, st.mu])


@pytest.mark.parametrize(
    "elements, radius",
    [pytest.param("0,1,3", 5, id="5"), pytest.param("0,1,3,4", 9, id="9")],
)
def test_basis_stats_inequalities_only_at_the_covering_radius(capsys, elements, radius):
    # The surplus lemmas assume the modulus is n2(A), so the spectrum is
    # taken there and the lemma block, printed last, holds in full.
    code, out = run_cli(capsys, "basis", "stats", "--set", elements)
    assert code == 0
    keys = [k for k, _ in json.loads(out, object_pairs_hook=list)]
    assert keys[-1] == "inequalities"
    doc = json.loads(out)
    assert doc["n2"] == radius
    assert doc["modulus"] == radius
    assert all(check["holds"] for check in doc["inequalities"].values())


def test_verify_formulas_small(capsys):
    code, out = run_cli(capsys, "verify", "formulas", "--rmax", "2")
    assert code == 0
    assert out.startswith("PASS")
    match = re.search(r"worst \|diff\| = (\S+) at \((-?\d+), (-?\d+)\)$", out.strip())
    assert match, out
    worst, r1, r2 = float(match[1]), int(match[2]), int(match[3])
    assert worst < REF_ORACLE_TOL
    assert max(abs(r1), abs(r2)) <= 2
    assert (r1, r2) != (0, 0)


def test_unallocatable_size_is_an_error(capsys, monkeypatch):
    # Every size input is bounded, --set's element count among them, but a
    # host short of memory can still fail an allocation; that must end in
    # a message, not a traceback.
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_basis_stats", out_of_memory)
    code = main(["basis", "stats", "--set", "0,1,3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


@pytest.mark.parametrize("argv", [
    ["bound", "two-var", "--n-main", "5"],
    ["bound", "two-var", "--n-axial", "5"],
    ["basis", "stats", "--set", "0,1,3", "--n", "5"],
], ids=" ".join)
def test_removed_flags_are_usage_errors(argv):
    # The certificate has one truncation, SCALE, and the surplus lemmas
    # one modulus, the covering radius: neither is a flag.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "--k", "0"], "--k must be between 1 and 13, got 0"),
        (["search", "--k", "14"], "--k must be between 1 and 13, got 14"),
        (["construct", "rohrbach", "--k", "-4"], "--k must be between 4 and 4000, got -4"),
        (["construct", "rohrbach", "--k", "3"], "--k must be between 4 and 4000, got 3"),
        (["dump", "phi", "--grid", "1", "--out", "unused.csv"],
         "--grid must be between 2 and 1024, got 1"),
        (["basis", "stats", "--set", "0,1.5"], "--set: '1.5' is not an integer"),
        (["basis", "stats", "--set", "0,-1"], "--set: negative element -1"),
        (["basis", "stats", "--set", "0,3,1,3"], "--set: duplicate element 3"),
        (["basis", "stats", "--set", f"0,{2**62}"],
         f"--set: element {2**62} too large (limit 2^62)"),
        (["basis", "stats", "--set", ""], "--set: empty basis"),
        (["basis", "stats", "--set", ","], "--set: empty basis"),
        (["basis", "stats", "--set", "0,1_000"], "--set: '1_000' is not an integer"),
        (["basis", "stats", "--set", "0,\u0661"], "--set: '\u0661' is not an integer"),
        # the CSV streams to disk, so the grid is bounded before a byte is written
        (["dump", "phi", "--grid", "1025", "--out", "unused.csv"],
         "--grid must be between 2 and 1024, got 1025"),
        (["construct", "rohrbach", "--k", "4001"], "--k must be between 4 and 4000, got 4001"),
        (["construct", "rohrbach", "--k", str(10**20)],
         f"--k must be between 4 and 4000, got {10**20}"),
        # a radius below 1 checks no coefficient, so it must not report PASS
        (["verify", "formulas", "--rmax", "0"], "--rmax must be between 1 and 31, got 0"),
        (["verify", "formulas", "--rmax", "-1"], "--rmax must be between 1 and 31, got -1"),
        (["verify", "formulas", "--rmax", "32"], "--rmax must be between 1 and 31, got 32"),
        (["verify", "formulas", "--rmax", str(10**14)],
         f"--rmax must be between 1 and 31, got {10**14}"),
        # the elements are counted before any is parsed, duplicates among them
        (["basis", "stats", "--set", ",".join(map(str, range(2001)))],
         "--set must have at most 2000 elements, got 2001"),
        (["basis", "stats", "--set", ",".join(["0"] * 2001)],
         "--set must have at most 2000 elements, got 2001"),
    ],
)
def test_size_error_names_the_flag(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_constants_full_scale_report(certificate_runs):
    code, out = certificate_runs[("verify", "constants")]
    assert code == 0
    assert out.splitlines() == [
        "PASS alpha2: numeric minimum -3.724703937 vs exact -3.724703937",
        f"PASS c_axial({SCALE}) within reference: [2.9028136, 2.9028225] "
        "within (2.90278, 2.90289)",
        f"PASS c_main({SCALE}) within reference: [4.7527495, 4.7531622] "
        "within (4.75145, 4.76146)",
        "PASS rho0 at anchors: rho(9.48617, 2.90289) = 0.0424027 > 0.0424",
        "PASS final coefficient (lemma route): 0.4789 == 0.4789",
        "PASS final coefficient (corner route): 0.4788 == 0.4788",
        "PASS rho lower bounds: lemma 0.042237, corner 0.042425, both >= 0.0422",
    ]


@pytest.mark.parametrize("n, fails", [
    # At N = 60 the corner route certifies 0.4789: within the published
    # REF_COEFFICIENT, but one decimal step off its own.
    (60, ["FAIL c_axial(60) within reference: [2.9025139, 2.9031232] within (2.90278, 2.90289)",
          "FAIL c_main(60) within reference: [4.7431281, 4.7637197] within (4.75145, 4.76146)",
          "FAIL final coefficient (lemma route): 0.479 == 0.4789",
          "FAIL final coefficient (corner route): 0.4789 == 0.4788",
          "FAIL rho lower bounds: lemma 0.042042, corner 0.042394, both >= 0.0422"]),
    # 161 is the smallest N that passes every row; at 160 only c_main fails.
    (160, ["FAIL c_main(160) within reference: [4.7513455, 4.7546954] "
           "within (4.75145, 4.76146)"]),
    (161, []),
], ids=["60", "160", "161"])
def test_verify_constants_fails_a_corner_route_that_slips_a_decimal(capsys, monkeypatch, n, fails):
    monkeypatch.setattr(cli, "SCALE", n)
    code, out = run_cli(capsys, "verify", "constants")
    assert code == (1 if fails else 0)
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == fails


def test_verify_constants_fast_flag_keeps_the_truncation(capsys, certificate_runs):
    # The certificate has one truncation, SCALE; --fast is accepted and
    # ignored (criterion 8 checks the same of bound two-var).
    stored = certificate_runs[("verify", "constants")]
    assert run_cli(capsys, "verify", "constants", "--fast") == stored
    assert stored[0] == 0


def test_parser_accepts_every_benchmark_command(monkeypatch):
    # The benchmark runs these argument vectors; dropping a flag they pass
    # must fail here, not only as a lower pass rate in a benchmark run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    parser = build_parser()
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, 1):
            parser.parse_args(list(cmd.argv))


def test_readme_command_lines_parse():
    # Each example in the README's "Command line" block names only flags
    # the parser has.
    block = README.read_text().split("## Command line", 1)[1].split("```bash", 1)[1]
    lines = [shlex.split(line, comments=True) for line in block.split("```", 1)[0].splitlines()]
    examples = [words[1:] for words in lines if words and words[0] == "additive-bases"]
    assert examples
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)


@pytest.mark.parametrize("n", [1, 2 * _NEAR_AXIS, 2 * _NEAR_AXIS + 1])
def test_bound_two_var_at_small_truncations(n):
    # Below 2 * _NEAR_AXIS the near-axis count shrinks with N; the tails
    # stay two-sided, so even N = 1 lifts tau above 2 and certifies.
    cert = certify(c_axial(n), c_main(n))
    assert cert.c_axial.N == cert.c_main.N == n
    assert cert.tau[0] >= 2.0 and cert.kappa[0] >= 3.0
    assert 0.4788 <= cert.coefficient_upper < 0.5


def test_bound_two_var_flags_a_vacuous_certificate(capsys, monkeypatch):
    # At N = 1 the lemma route certifies 0.8119, no better than the
    # trivial 1/2: the JSON is printed all the same, and the exit status
    # is 1.  (The corner route certifies 0.4933 there, which
    # test_bound_two_var_at_small_truncations checks.)
    monkeypatch.setattr(cli, "SCALE", 1)
    code, out = run_cli(capsys, "bound", "two-var", "--route", "lemma")
    assert code == 1
    doc = json.loads(out)
    assert (doc["route"], doc["coefficient_upper"]) == ("lemma", 0.8119)


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


def test_module_entry_point(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["additive_bases", "search", "--k", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("additive_bases", run_name="__main__")
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["n_best"] == 3
