import ast
import copy
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

from additive_bases.constructions import rohrbach_basis

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SUBMODULES = sorted(p.stem for p in (SRC / "additive_bases").glob("*.py")
                    if not p.stem.startswith("__"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The functions of fourier2d that derive the truncation tails.
TAIL_DERIVATION = ("tail_constants", "_axis_constants", "_lead_rest", "_g_rest",
                   "_magnitude_bounds", "_over_pi", "_inverse_square_tail", "_ell",
                   "_pair_factor", "_range_sums")


def _child_env():
    """The environment for a child interpreter that imports the package from src."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no self-check may rely on one.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


@pytest.fixture(scope="module")
def light_imports():
    """The top-level packages that one fresh interpreter holds after
    importing cli, then after also importing fourier2d and certify; this
    one has loaded them all for the tests."""
    show = "print(sorted({m.split('.')[0] for m in sys.modules}))"
    code = (f"import sys, additive_bases.cli; {show}; "
            f"import additive_bases.fourier2d, additive_bases.certify; {show}")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(("cli", "certificate"), map(ast.literal_eval, proc.stdout.splitlines())))


def test_cli_import_loads_no_scipy(light_imports):
    # numpy is imported by the commands that compute with arrays, when
    # they run; the others are test dependencies only.
    assert {"numpy", "scipy", "sympy", "mpmath"}.intersection(light_imports["cli"]) == set()


def test_certificate_modules_load_no_proof_tools(light_imports):
    # The sympy proofs and the mpmath checks stay in the tests, and the
    # certificate runs on the standard library: the modules that compute
    # it import none of them, nor scipy or numpy.
    assert {"numpy", "scipy", "sympy", "mpmath"}.intersection(light_imports["certificate"]) == set()


def test_cli_import_loads_no_dataclasses(light_imports):
    # The records are NamedTuples or slotted classes: dataclasses would
    # load inspect, ast, dis and tokenize into every command's start-up.
    assert {"dataclasses", "inspect"}.intersection(light_imports["cli"]) == set()


# Rohrbach's k = 400 basis at its covering radius 40001 is above
# sumsets.DIRECT_TERMS, so `basis stats` on it takes numpy's FFT.
LARGE_SPECTRUM = ("basis", "stats", "--set", ",".join(map(str, rohrbach_basis(400))))


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_runs_numpy_with_one_blas_thread_unless_told_otherwise(preset):
    # main sets OPENBLAS_NUM_THREADS before the one command that imports
    # numpy does, and a value already in the environment wins.
    env = {k: v for k, v in _child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, sys; from additive_bases.cli import main; code = main(sys.argv[1:]); "
            "print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, *LARGE_SPECTRUM],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{preset or 1} True"


# Runs cli.main(argv) in an interpreter where importing any of the
# comma-separated modules fails.
WITHOUT = ("import sys; sys.modules.update(dict.fromkeys(sys.argv[1].split(','))); "
           "from additive_bases.cli import main; sys.exit(main(sys.argv[2:]))")


def _run_without(modules, argv):
    return subprocess.run([sys.executable, "-c", WITHOUT, modules, *argv], env=_child_env(),
                          capture_output=True, text=True)


def _take_files() -> dict:
    """The bytes of each file in the working directory, which is then emptied."""
    files = {path.name: path.read_bytes() for path in Path().iterdir()}
    for name in files:
        Path(name).unlink()
    return files


def _same_output_without(modules, argv, capsys, run=None):
    """Run argv in-process, then in a child where none of `modules` can be
    imported, both from an empty working directory, and check that both
    exit 0 with the same stdout and write the same files there.  `run`, the
    exit status and stdout of the command run in-process already, elsewhere,
    stands in for the in-process run, so the child must write no file."""
    from additive_bases.cli import main

    code, out = run or (main(list(argv)), capsys.readouterr().out)
    assert code == 0
    expected = out, _take_files()
    proc = _run_without(modules, argv)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, _take_files()) == expected


@pytest.mark.parametrize("argv", [
    ("search", "--k", "5"), ("construct", "rohrbach", "--k", "10"), ("bound", "moser"),
    # Small spectra are summed without numpy (sumsets.DIRECT_TERMS).
    pytest.param(("basis", "stats", "--set", "0,1,3"), id="basis-stats"),
    # The certificate runs on the standard library.
    pytest.param(("bound", "two-var"), id="two-var-corner"),
    pytest.param(("bound", "two-var", "--route", "lemma"), id="two-var-lemma"),
    pytest.param(("verify", "constants"), id="verify-constants"),
    # So do the test function, a point at a time, and the quadrature oracle.
    pytest.param(("dump", "phi", "--grid", "8", "--out", "phi.csv"), id="dump-phi"),
    pytest.param(("verify", "formulas", "--rmax", "2"), id="verify-formulas"),
], ids=lambda argv: argv[0])
def test_numpy_free_commands_run_without_numpy(argv, capsys, tmp_path, monkeypatch,
                                              certificate_runs):
    # dataclasses is blocked too: no command loads it (see the import tests).
    monkeypatch.chdir(tmp_path)
    _same_output_without("numpy,dataclasses", argv, capsys, certificate_runs.get(argv))


@pytest.mark.parametrize("argv", [pytest.param(LARGE_SPECTRUM, id="basis-stats-k400")])
def test_array_commands_fail_without_numpy(argv):
    # The control: blocking numpy does stop the command that needs it, with
    # one error line that names the extra to install, and no traceback.
    proc = _run_without("numpy", argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: this command needs numpy: pip install 'additive-bases[arrays]'\n"


def _record_fields():
    """Each record type with keyword arguments that build a valid instance."""
    from additive_bases.certify import BoundCertificate
    from additive_bases.fourier2d import ConstantInterval
    from additive_bases.search import SearchResult
    from additive_bases.sumsets import Basis, ExpSumStats, RepProfile

    interval = dict(lo=1.0, hi=2.0, tail_lo=0.25, tail_hi=0.5, rounding_slack=1e-16, N=3)
    return [
        (RepProfile, dict(n=5, delta_total=1)),
        (ExpSumStats, dict(n=5, M=1.5, mu=0.5, ell=1, L=2)),
        (SearchResult, dict(k=2, n_best=3, witnesses=(Basis((0, 1)),), nodes_explored=1)),
        (ConstantInterval, interval),
        (BoundCertificate, dict(alpha1=1.0, alpha2=-3.7, c_axial=ConstantInterval(**interval),
                                c_main=ConstantInterval(**interval), kappa=(3.0, 3.5),
                                tau=(2.0, 2.5), rho_lower=0.04, coefficient_upper=0.48,
                                route="corner")),
    ]


@pytest.mark.parametrize("cls, fields", [pytest.param(*r, id=r[0].__name__)
                                         for r in _record_fields()])
def test_record_contract(cls, fields):
    # Keyword and positional construction agree, records with equal fields
    # are equal, copies are equal, and no field can be set, deleted or added.
    record = cls(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    assert record == cls(*fields.values())
    assert pickle.loads(pickle.dumps(record)) == copy.copy(record) == record
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = value
    assert getattr(record, name) is value


def test_basis_contract():
    # A basis is a tuple that validates in __new__; copies and unpickling
    # reach __new__ through tuple's __getnewargs__, so they validate too.
    from additive_bases.sumsets import Basis

    basis = Basis(elements=(0, 1, 3))
    assert basis == Basis([0, 1, 3]) and hash(basis) == hash(Basis((0, 1, 3)))
    assert eval(repr(basis), {"Basis": Basis}) == basis
    for twin in (copy.copy(basis), copy.deepcopy(basis), pickle.loads(pickle.dumps(basis))):
        assert type(twin) is Basis and twin == basis
    with pytest.raises(AttributeError):
        basis.extra = 1
    with pytest.raises(TypeError):
        basis[0] = 2
    with pytest.raises(TypeError, match="basis element 1.5 is not an integer"):
        Basis((0, 1.5))
    forged = pickle.dumps(tuple.__new__(Basis, (3, 3)))  # skips __new__'s checks
    with pytest.raises(ValueError, match="^duplicate element 3$"):
        pickle.loads(forged)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_import_binds_the_module(name):
    # `import a.b as m` reads the attribute b of a, which a same-named
    # function re-exported by the package would shadow.
    scope = {}
    exec(f"import additive_bases.{name} as m", scope)
    assert isinstance(scope["m"], types.ModuleType)
    assert scope["m"].__name__ == f"additive_bases.{name}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # Demo 06 writes phi_surface.csv into its working directory.
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_quadrature_oracle_reads_no_closed_form():
    # The oracle checks the closed forms, so it must integrate phi's own
    # excess over the upper triangle.
    tree = ast.parse((SRC / "additive_bases" / "fourier2d.py").read_text())
    reads = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in ("coeff_quadrature", "_gauss_panels"):
            reads[node.name] = {n.id for n in ast.walk(node)
                                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert sorted(reads) == ["_gauss_panels", "coeff_quadrature"]
    closed_forms = {"coeff", "_axis_values", "_diag_values", "_off_values", "_off_expansion",
                    "_off_form", "_shell_terms", "_shell_tables", "_scaled", "_horner", "_form",
                    "_AXIS", "_DIAG", "_EDGE", "_G",
                    "_AXIS_F", "_DIAG_F", "_EDGE_F", "_G_F", *TAIL_DERIVATION}
    assert not closed_forms & (reads["coeff_quadrature"] | reads["_gauss_panels"])
    assert "phi_excess" in reads["coeff_quadrature"]


def _fourier2d_functions(names):
    tree = ast.parse((SRC / "additive_bases" / "fourier2d.py").read_text())
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in names}


def _fourier2d_assignments():
    """Each module-level assignment of fourier2d, keyed by its target names."""
    tree = ast.parse((SRC / "additive_bases" / "fourier2d.py").read_text())
    return {tuple(t.id for target in node.targets for t in ast.walk(target)
                  if isinstance(t, ast.Name)): node.value
            for node in tree.body if isinstance(node, ast.Assign)}


def _table_entries(node):
    """The non-tuple leaves of a (nested) tuple display, in order."""
    return [leaf for elt in node.elts
            for leaf in (_table_entries(elt) if isinstance(elt, ast.Tuple) else [elt])]


def test_coefficient_tables_are_exact_and_written_once():
    # Each table entry is Fraction(...) of integers, so the tail derivation
    # bounds the rationals the integrals give; the float copies the
    # evaluators read are derived from the tables with no literal.
    tables = ("_AXIS", "_DIAG", "_EDGE", "_G")
    assigns = _fourier2d_assignments()
    for name in tables:
        entries = _table_entries(assigns[(name,)])
        assert entries, name
        for e in entries:
            assert isinstance(e, ast.Call) and isinstance(e.func, ast.Name), ast.unparse(e)
            assert e.func.id == "Fraction" and not e.keywords, ast.unparse(e)
            assert all(type(ast.literal_eval(a)) is int for a in e.args), ast.unparse(e)
    copies = assigns[tuple(name + "_F" for name in tables)]
    assert [n for n in ast.walk(copies) if isinstance(n, ast.Constant)] == []
    assert set(tables) <= {n.id for n in ast.walk(copies) if isinstance(n, ast.Name)}


def test_closed_form_coefficients_live_only_in_the_tables():
    # tail_constants derives the truncation tails from _AXIS, _DIAG, _EDGE
    # and _G, so an evaluator, or a step of the derivation, writing a
    # coefficient of its own would break the link between the forms the
    # sums evaluate and the forms the tails bound.  No float may appear in
    # either; in an evaluator a number may only index a table.
    evaluators = ("_horner", "_form", "_axis_values", "_diag_values", "_off_expansion",
                  "_off_form", "_off_values", "_shell_terms")
    found = {}
    for name, node in _fourier2d_functions(evaluators + TAIL_DERIVATION).items():
        indices = {id(n) for sub in ast.walk(node) if isinstance(sub, ast.Subscript)
                   for n in ast.walk(sub.slice)}
        found[name] = [n.value for n in ast.walk(node) if isinstance(n, ast.Constant)
                       and (type(n.value) is float or type(n.value) is int
                            and name in evaluators and id(n) not in indices)]
    assert found == {name: [] for name in evaluators + TAIL_DERIVATION}


def test_tail_derivation_reads_the_tables_not_the_evaluators():
    # The derivation works in exact rationals from the four tables and
    # the rational bounds on pi; it reads no float evaluator and not the
    # float pi of the closed forms.
    reads = set()
    for node in _fourier2d_functions(TAIL_DERIVATION).values():
        reads |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    tree = ast.parse((SRC / "additive_bases" / "fourier2d.py").read_text())
    module_names = {t.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets for t in ast.walk(target)
                    if isinstance(t, ast.Name)}
    module_names |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert reads & module_names == {"_AXIS", "_DIAG", "_EDGE", "_G", "_PI_LO", "_PI_HI",
                                    "_NEAR_AXIS", *TAIL_DERIVATION} - {"tail_constants"}


def test_cli_writes_no_reference_literal():
    # certify.py is the one source of the reference constants; a literal
    # copy of one in cli.py would let the two drift apart.
    from additive_bases import certify

    refs = {certify.KAPPA0, certify.TAU0}
    for name in dir(certify):
        if name.startswith("REF_"):
            value = getattr(certify, name)
            refs.update(value if isinstance(value, tuple) else (value,))
    tree = ast.parse((SRC / "additive_bases" / "cli.py").read_text())
    found = [f"cli.py:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) in (int, float)
             and node.value in refs]
    assert found == []


def test_directed_rounding_lives_in_one_helper():
    # certify.directed_root is the one place that steps between floats or
    # takes an integer root; certify.py, which runs the scalar tail in
    # exact rationals, and fourier1d.py, which derives the one-variable
    # bound in them, write no tolerance to absorb a rounding.  The REF_*
    # tolerances widen a published interval instead, and
    # test_cli_writes_no_reference_literal keeps each written once.
    found = []
    for path in sorted((SRC / "additive_bases").glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "directed_root"]
        allowed = {id(n) for node in helper for n in ast.walk(node)}
        published = {id(n) for node in tree.body if isinstance(node, ast.Assign)
                     and all(isinstance(t, ast.Name) and t.id.startswith("REF_")
                             for t in node.targets)
                     for n in ast.walk(node)}
        found += [f"{path.name}:{n.lineno}: {n.attr}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in ("nextafter", "isqrt")
                  and id(n) not in allowed]
        if path.name == "certify.py":
            assert helper, "certify.directed_root is missing"
        if path.name in ("certify.py", "fourier1d.py"):
            found += [f"{path.name}:{n.lineno}: {n.value!r}" for n in ast.walk(tree)
                      if isinstance(n, ast.Constant) and type(n.value) is float
                      and 0 < abs(n.value) < 1e-3 and id(n) not in published]
    assert found == []
