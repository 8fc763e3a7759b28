"""Cold start: scipy and mpmath stay off softmatch's import path.

Each case runs a fresh `python -I` child, which sees no PYTHONPATH and no
user site, and lists the scipy modules it has loaded once it is done. One
thing in the library needs scipy: the Hungarian start of a uniform
equal-size W1 of two or more points at d >= 2, which loads scipy's
compiled matching module `scipy.optimize._lsap` alone at its first use,
not the `scipy.optimize` package (one module instead of about 320; a cold
`softmatch w1` on two 12-point clouds takes about 0.3 s and 33 MB instead
of 0.9 s and 78 MB on a 2-vCPU host). The gradient constant
(`bound --tight-c`) is a one-variable maximum in plain floats, and a
custom potential's sampled statistics draw scipy's Latin hypercube from
numpy's generator, so neither loads scipy. The ratio-lemma check needs
no mpmath: its supremum is a closed form in float arithmetic (`import
mpmath` alone adds about 3.7 MB of resident memory).

Two more modules stay out. `numpy.ma`, which `np.quantile` and
`np.median` import at their first call (about 1.3 MB resident), is left
out of `probe` and `lemmas` runs by the probes' own order statistics.
OpenSSL's `_hashlib`, which `import hashlib` maps (about 3.5 MB), is
loaded by a run's config hash only, not by `import softmatch.cli`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import softmatch
from softmatch.measures import DomainBox, load_measure_any
from softmatch.potentials import CustomPotential, SamplingConfig, regularity_stats
from softmatch.transport import w1

SRC = str(Path(softmatch.__file__).resolve().parents[1])
KERNEL = "scipy.optimize._lsap"

# prints the exit code and report of a child, the scipy and mpmath
# modules then loaded, and whether numpy.ma and _hashlib are, as one JSON line
LOADED = """
print(json.dumps({
    "code": code,
    "report": report,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "mpmath": sorted(m for m in sys.modules if m == "mpmath" or m.startswith("mpmath.")),
    "numpy.ma": "numpy.ma" in sys.modules,
    "_hashlib": "_hashlib" in sys.modules,
}))
"""

# imports softmatch.cli (and with it softmatch) and runs `softmatch <argv>`
# in-process if argv is given
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from softmatch.cli import main
code, out = None, io.StringIO()
if sys.argv[2:]:
    with contextlib.redirect_stdout(out):
        code = main(sys.argv[2:])
report = json.loads(out.getvalue())["report"] if out.getvalue() else None
""" + LOADED

# the sampled regularity statistics of a custom potential on [-1, 1]^2
STATS_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from softmatch.measures import DomainBox
from softmatch.potentials import CustomPotential, SamplingConfig, regularity_stats
potential = CustomPotential(fn=lambda x, y: -((x - y) ** 2).sum(axis=-1), dim=2)
stats = regularity_stats(potential, DomainBox.cube(1.0, 2), SamplingConfig(500, 3))
code, report = 0, stats.to_dict()
""" + LOADED


def cold(cwd, *argv, child=CHILD) -> dict:
    proc = subprocess.run(
        [sys.executable, "-I", "-c", child, SRC, *argv],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def clouds(tmp_path):
    """12- and 10-point 2-D clouds, a second 12-point one, and a layer."""
    for name, n, shift in (("a12", 12, 0.0), ("b10", 10, 0.3), ("b12", 12, 0.4)):
        pts = [[((7 * i + 3) % 11) / 11 + shift, ((5 * i + 1) % 13) / 13] for i in range(n)]
        (tmp_path / f"{name}.csv").write_text("".join(f"{x!r},{y!r}\n" for x, y in pts))
    layer = {
        "potential": {"kind": "gaussian", "dim": 2},
        "lookup": {"kind": "linear", "W_V": [[0.3, 0.0], [0.0, 0.3]]},
    }
    (tmp_path / "layer.json").write_text(json.dumps(layer))
    return tmp_path


def test_import_loads_no_scipy(tmp_path):
    loaded = cold(tmp_path)["scipy"]
    assert not loaded, f"importing softmatch loaded {loaded}"


def test_import_maps_no_hashlib(tmp_path):
    assert not cold(tmp_path)["_hashlib"], "import softmatch, softmatch.cli loaded _hashlib"


@pytest.mark.parametrize(
    "argv",
    (
        ("probe", "--theorem", "bounded", "--box-radius", "1", "--trials", "20"),
        ("lemmas", "--nmax", "30", "--trials", "20"),
    ),
    ids=("probe", "lemmas"),
)
def test_probe_and_lemmas_load_no_numpy_ma(tmp_path, argv):
    # the probe's histogram and all three lemma checks, whose product
    # check reports a median
    child = cold(tmp_path, *argv)
    assert child["code"] == 0
    assert not child["numpy.ma"], f"softmatch {' '.join(argv)} loaded numpy.ma"


@pytest.mark.parametrize(
    "argv",
    (
        ("equiv", "--trials", "5"),
        ("bound", "--theorem", "unbounded-gaussian"),
        ("bound", "--theorem", "unbounded-gaussian", "--d", "4", "--tight-c"),
        ("lemmas", "--ratio", "--nmax", "30"),
        ("lemmas", "--product"),
        ("w1", "a12.csv", "b10.csv"),
    ),
    ids=("equiv", "bound", "bound-tight-c", "lemmas-ratio", "lemmas-product", "w1-unequal"),
)
def test_subcommands_load_no_scipy(clouds, argv):
    child = cold(clouds, *argv)
    assert child["code"] == 0
    assert not child["scipy"], f"softmatch {' '.join(argv)} loaded {child['scipy']}"


def test_sampled_stats_load_no_scipy(tmp_path):
    child = cold(tmp_path, child=STATS_CHILD)
    assert not child["scipy"], f"sampled statistics loaded {child['scipy']}"
    potential = CustomPotential(fn=lambda x, y: -((x - y) ** 2).sum(axis=-1), dim=2)
    stats = regularity_stats(potential, DomainBox.cube(1.0, 2), SamplingConfig(500, 3))
    assert child["report"] == stats.to_dict()


def _scipy_imports(tree) -> set:
    """(innermost enclosing function or class, module) of every import
    statement of scipy or one of its submodules in a module."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            found.update((where, n) for n in names if n.split(".")[0] == "scipy")
            visit(child, where)

    visit(tree, None)
    return found


def test_scipy_is_imported_only_for_the_matching_kernel():
    """The one scipy import of the library is the fallback of
    `transport._linear_sum_assignment`, which loads the kernel."""
    sample = "import scipy\ndef f():\n    from scipy.optimize import minimize\n"
    assert _scipy_imports(ast.parse(sample)) == {(None, "scipy"), ("f", "scipy.optimize")}
    src = Path(SRC) / "softmatch"
    found = {
        (path.name, where, module)
        for path in sorted(src.glob("*.py"))
        for where, module in _scipy_imports(ast.parse(path.read_text()))
    }
    assert found == {("transport.py", "_linear_sum_assignment", "scipy.optimize")}


def test_ratio_lemma_loads_no_mpmath_and_no_scipy(tmp_path):
    child = cold(tmp_path, "lemmas", "--ratio", "--nmax", "50")
    assert child["code"] == 0
    assert child["report"]["ratio_lemma"]["ascent_consistent"]
    assert not child["mpmath"], f"the ratio check loaded {child['mpmath']}"
    assert not child["scipy"], f"the ratio check loaded {child['scipy']}"


def test_uniform_assignment_imports_scipy_on_first_use(clouds):
    child = cold(clouds, "w1", "a12.csv", "b12.csv")
    assert child["code"] == 0
    assert child["scipy"] == [KERNEL]
    mu, nu = load_measure_any(clouds / "a12.csv"), load_measure_any(clouds / "b12.csv")
    assert child["report"]["value"] == w1(mu, nu).value


@pytest.mark.parametrize(
    "argv",
    (
        ("dynamics", "a12.csv", "--config", "layer.json", "--steps", "2"),
        (
            "probe", "--theorem", "bounded", "--perturbation", "jitter", "--box-radius", "1",
            "--trials", "20",
        ),
    ),
    ids=("dynamics", "probe-jitter"),
)
def test_uniform_pairs_load_only_the_kernel(clouds, argv):
    # both solve uniform equal-size pairs at d = 2, each through the
    # Hungarian start
    child = cold(clouds, *argv)
    assert child["code"] == 0
    assert child["scipy"] == [KERNEL]


def test_report_header_names_the_package_and_flags_another(tmp_path, monkeypatch):
    # the session header shows which softmatch a run tests, and warns when
    # PYTHONPATH points at another checkout's, which the tests then ignore
    from conftest import pytest_report_header

    other = tmp_path / "src"
    (other / "softmatch").mkdir(parents=True)
    (other / "softmatch" / "__init__.py").write_text("")
    here = Path(softmatch.__file__).resolve().parent
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join((SRC, str(other))))
    header = pytest_report_header(None)
    assert header[0] == f"softmatch: {here}"
    assert len(header) == 2
    assert header[1].startswith(f"WARNING: PYTHONPATH entry {other} holds another softmatch")
    monkeypatch.setenv("PYTHONPATH", SRC)
    assert pytest_report_header(None) == [f"softmatch: {here}"]
