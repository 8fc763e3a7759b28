"""Cold start: scipy stays off softmatch's import path.

Each case runs a fresh `python -I` child, which sees no PYTHONPATH and no
user site, and lists the scipy modules it has loaded once it is done. The
library imports scipy only at the first use of the three things that need
it: the Hungarian start of a uniform equal-size W1 of two or more points
at d >= 2, the
numerically maximized gradient constant (`bound --tight-c`) and a custom
potential's sampled statistics.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import softmatch
from softmatch.measures import load_measure_any
from softmatch.transport import w1

SRC = str(Path(softmatch.__file__).resolve().parents[1])

# imports softmatch.cli (and with it softmatch), runs `softmatch <argv>`
# in-process if argv is given, and prints the exit code, the report and
# the scipy modules then loaded as one JSON line
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from softmatch.cli import main
code, out = None, io.StringIO()
if sys.argv[2:]:
    with contextlib.redirect_stdout(out):
        code = main(sys.argv[2:])
print(json.dumps({
    "code": code,
    "report": json.loads(out.getvalue())["report"] if out.getvalue() else None,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}))
"""


def cold(cwd, *argv) -> dict:
    proc = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, SRC, *argv],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def clouds(tmp_path):
    """12- and 10-point 2-D clouds, and a second 12-point one."""
    for name, n, shift in (("a12", 12, 0.0), ("b10", 10, 0.3), ("b12", 12, 0.4)):
        pts = [[((7 * i + 3) % 11) / 11 + shift, ((5 * i + 1) % 13) / 13] for i in range(n)]
        (tmp_path / f"{name}.csv").write_text("".join(f"{x!r},{y!r}\n" for x, y in pts))
    return tmp_path


def test_import_loads_no_scipy(tmp_path):
    loaded = cold(tmp_path)["scipy"]
    assert not loaded, f"importing softmatch loaded {loaded}"


@pytest.mark.parametrize(
    "argv",
    (
        ("equiv", "--trials", "5"),
        ("bound", "--theorem", "unbounded-gaussian"),
        ("lemmas", "--ratio", "--nmax", "30"),
        ("lemmas", "--product"),
        ("w1", "a12.csv", "b10.csv"),
    ),
    ids=("equiv", "bound", "lemmas-ratio", "lemmas-product", "w1-unequal"),
)
def test_subcommands_load_no_scipy(clouds, argv):
    child = cold(clouds, *argv)
    assert child["code"] == 0
    assert not child["scipy"], f"softmatch {' '.join(argv)} loaded {child['scipy']}"


def test_uniform_assignment_imports_scipy_on_first_use(clouds):
    child = cold(clouds, "w1", "a12.csv", "b12.csv")
    assert child["code"] == 0
    assert "scipy.optimize" in child["scipy"]
    mu, nu = load_measure_any(clouds / "a12.csv"), load_measure_any(clouds / "b12.csv")
    assert child["report"]["value"] == w1(mu, nu).value
