"""The package surface, the modules that each CLI command loads, and unused imports."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import elastica

# the package's public names: 60 functions, classes and errors, and the six
# library modules
PUBLIC = [
    "BvpSolution", "Covector", "ElasticaClass", "EllipticCoords", "EllipticDivergenceError",
    "EllipticDomainError", "IntegratorConfig", "JacobiValues", "MaxwellCoords", "MaxwellReport",
    "MaxwellStratum", "Modulus", "P_of", "Q_of", "Reflection", "State", "Stratum",
    "UnattainableTargetError", "UnsupportedStratumError", "attainable", "bvp_shoot", "classify",
    "cut_time_bound", "elastic_energy_closed", "ellint_E", "ellint_E_inc", "ellint_F_inc",
    "ellint_K", "elliptic", "energy", "exp_map", "expmap", "f1", "f2", "find_k0", "find_kstar",
    "flow_vertical", "from_elliptic", "g1_n1", "g1_n2", "in_maxwell", "integrate_extremal",
    "is_fixed_covector", "is_fixed_state", "jacobi", "jacobi_add", "jacobi_derivs_k",
    "jacobi_recip_modulus", "m3_branch", "maxwell", "maxwell_coords", "oracle", "p1_roots",
    "p_g1", "period", "phase", "reflect_covector", "reflect_state", "sample_elastica",
    "stratify", "symmetry", "to_elliptic", "u_a1", "u_h1", "unit_cut_time_bound", "wrap_angle",
]
MODULES = ("elliptic", "expmap", "maxwell", "oracle", "phase", "symmetry")

EXP = {"elliptic", "phase", "expmap", "cli"}
MAXWELL = {"elliptic", "phase", "symmetry", "maxwell", "cli"}
COVECTOR = ("--beta", "0.3", "--c", "1.1", "--r", "1")

# each command loads the layers it runs, and no other
LOADED = [
    ((), set()),
    (("exp", *COVECTOR, "--t", "2"), EXP),
    (("elastica", *COVECTOR, "--n", "5", "--format", "csv"), EXP),
    (("oracle-exp", *COVECTOR, "--t", "0.1", "--step", "1e-2"), EXP | {"oracle"}),
    (("constants",), MAXWELL),
    (("sweep", "cutbound", "--kmin", "0.1", "--kmax", "0.9", "--n", "3"), MAXWELL),
    (("maxwell", *COVECTOR, "--t", "2"), MAXWELL),
    (("bvp", "--x", "0", "--y", "0.6366", "--theta", "3.1415926", "--t1", "1", "--starts", "4"),
     EXP | MAXWELL | {"oracle"}),
]


@pytest.mark.parametrize("argv, modules", LOADED, ids=[case[0][0] if case[0] else "import"
                                                      for case in LOADED])
def test_command_loads_only_its_modules(argv, modules):
    code = (
        "import contextlib, io, json, sys\n"
        "import elastica\n"
        f"argv = {list(argv)!r}\n"
        "if argv:\n"
        "    from elastica import cli\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('elastica.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(f"elastica.{m}" for m in modules)


def test_cold_cut_time_bound_loads_no_expmap_and_solves_no_kstar():
    # an N1 covector above k*, so the bound also searches the chord-reflection root
    lam = elastica.Covector(0.2, 1.8, 1.0)
    assert elastica.to_elliptic(lam).k >= elastica.maxwell.KSTAR
    code = (
        "import sys\n"
        "import elastica\n"
        f"elastica.cut_time_bound(elastica.{lam!r})\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('elastica.'))\n"
        "import json\n"
        "print(json.dumps([loaded, elastica.find_kstar.cache_info().misses]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [f"elastica.{m}" for m in ("elliptic", "maxwell", "phase", "symmetry")], 0
    ]


def test_cold_maxwell_and_classify_solve_no_k0():
    # the library reads the pinned K0: only find_k0 itself solves 2E = K
    code = (
        "import elastica\n"
        "lam = elastica.Covector(0.2, 1.8, 1.0)\n"
        "elastica.cut_time_bound(lam)\n"
        "elastica.in_maxwell(lam, 3.0)\n"
        "elastica.classify(lam)\n"
        "print(elastica.find_k0.cache_info().misses)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# the writer modules each command imports: sweep writes CSV unless asked for
# JSON, and an SVG needs neither
WRITERS = [
    *[pytest.param(("sweep", curve, "--kmin", "0.85", "--kmax", "0.9", "--n", "3"), ["csv"],
                   id=f"sweep {curve}") for curve in ("p11", "pg1", "ua1", "uh1", "cutbound")],
    *[pytest.param(("elastica", *COVECTOR, "--n", "5", "--format", fmt), writers,
                   id=f"elastica {fmt}") for fmt, writers in (("svg", []), ("csv", ["csv"]))],
    pytest.param(("constants",), ["json"], id="constants"),
]


@pytest.mark.parametrize("argv, writers", WRITERS)
def test_command_imports_only_its_writer(argv, writers):
    code = (
        "import contextlib, io, sys\n"
        "from elastica import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
        "print(' '.join(sorted({'csv', 'json'} & set(sys.modules))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == writers


def test_all_lists_the_public_names():
    assert elastica.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(elastica))


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_module_attribute(name):
    value = getattr(elastica, name)
    if name in MODULES:
        assert value is importlib.import_module(f"elastica.{name}")
        return
    # the module that defines the name, whichever others import it too
    owner = importlib.import_module(value.__module__)
    assert owner.__name__ in [f"elastica.{m}" for m in MODULES]
    assert value is getattr(owner, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from elastica import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["exp_map"] is elastica.expmap.exp_map


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'elastica' has no attribute 'no_such_name'"):
        elastica.no_such_name
    assert not hasattr(elastica, "_NO_SUCH")


@pytest.mark.parametrize("path", sorted(Path(elastica.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    # a name a module imports but never reads is a dead re-export
    tree = ast.parse(path.read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", [p for p in sorted(Path(elastica.__file__).parent.glob("*.py"))
                                  if p.name != "elliptic.py"], ids=lambda path: path.name)
def test_only_elliptic_reads_the_agm_scales(path):
    # the shifted descending pass is written once, in `elliptic._shifted`: no
    # other module reads the scales it and `_jacobi_agm` run over
    tree = ast.parse(path.read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(names & {"_agm_scale", "_shift_scale"}) == []
