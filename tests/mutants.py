"""Mutation check of the exact checks in the W1 engine and the probes.

    python tests/mutants.py            # run every mutant
    python tests/mutants.py NAME ...   # run the named mutants
    python tests/mutants.py --list

Run from the repository root. The script copies `src`, `tests` and
`pyproject.toml` to a temporary directory, and for each mutant replaces
one fragment of one file there (every fragment occurs exactly once in its
file, which `tests/test_mutants.py` checks), runs that mutant's node ids
with `pytest -x -q`, and restores the file. A mutant is killed when its
tests fail, and survives when they pass. Each line of the report gives the
verdict and the seconds the run took. The exit code is 1 when an expected
kill survived or a run went wrong (no tests collected, a usage error), and
0 otherwise.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRANSPORT = "src/softmatch/transport.py"
PROBES = "src/softmatch/probes.py"
T = "tests/test_transport.py::"
P = "tests/test_probes.py::"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str           # file, relative to the repository root
    fragment: str       # text that occurs exactly once in the file
    replacement: str
    nodes: tuple        # pytest node ids that must fail on the mutant
    killed: bool = True  # False for a mutant that is known to be equivalent


MUTANTS = (
    Mutant(
        "node_sum_off_by_one", TRANSPORT,
        "        out[i] += f\n",
        "        out[i] += f + (i == 0)\n",
        (T + "TestW1Examples::test_split_mass",),
    ),
    Mutant(
        "negative_flow_check_dropped", TRANSPORT,
        "    if min(flows) < 0:\n",
        "    if False:\n",
        (T + "TestExactBasisChecks::test_faulty_basis_raises[flow-negative_flow]",),
    ),
    Mutant(
        "exact_total_check_dropped", TRANSPORT,
        "    if sum(map(operator.mul, flows, costs)) != total:\n",
        "    if False:\n",
        (T + "TestExactBasisChecks::test_faulty_basis_raises[line-total_off_by_one]",),
    ),
    Mutant(
        "line_overflow_check_dropped", TRANSPORT,
        "    if not max(c[xs[-1]] - c[n + ys[0]], c[n + ys[-1]] - c[xs[0]]) < math.inf:\n",
        "    if False:\n",
        (T + "TestCostMatrix::test_line_path_refuses_overflowing_costs",),
    ),
    # the int64 cast that reads exact costs and line positions is exact
    # below 2**63, so its 2**62 bound has one bit of room: loosened by one
    # bit it stays exact, and by two it is not
    Mutant(
        "cast_bound_one_bit_looser", TRANSPORT,
        "        if top * up < 2.0**62:\n",
        "        if top * up < 2.0**63:\n",
        (T + "TestLinePositions::test_line_positions_cast_bit_for_bit", T + "TestLinePath"),
        killed=False,
    ),
    Mutant(
        "cast_bound_two_bits_looser", TRANSPORT,
        "        if top * up < 2.0**62:\n",
        "        if top * up < 2.0**64:\n",
        (T + "TestLinePositions::test_line_positions_cast_bit_for_bit",),
    ),
    Mutant(
        "jitter_finiteness_check_dropped", PROBES,
        "        if not np.isfinite(other).all():\n",
        "        if False:\n",
        (P + "TestRefusals::test_jitter_overflow_on_the_unbounded_domain",),
    ),
    Mutant(
        "softmatch_weight_sum_check_dropped", PROBES,
        "        _check_sums(weights.tolist())\n",
        "        pass\n",
        (P + "TestRefusals::test_softmatch_weight_sums_are_checked",),
    ),
)


def run(mutant: Mutant, tmp: Path) -> tuple[str, float]:
    """Apply one mutant in the copy at tmp, run its nodes, restore it;
    returns (verdict, seconds)."""
    target = tmp / mutant.path
    original = target.read_text()
    target.write_text(original.replace(mutant.fragment, mutant.replacement))
    env = {**os.environ, "PYTHONPATH": str(tmp / "src")}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.nodes],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    finally:
        target.write_text(original)
    seconds = time.perf_counter() - start
    # pytest: 0 passed, 1 tests failed; anything else means the run went wrong
    verdict = {0: "survived", 1: "killed"}.get(proc.returncode, f"error (pytest exit {proc.returncode})")
    return verdict, seconds


def main(argv: list) -> int:
    if argv[:1] == ["--list"]:
        for m in MUTANTS:
            print(m.name)
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    with tempfile.TemporaryDirectory(prefix="softmatch-mutants-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        for m in chosen:
            if (tmp / m.path).read_text().count(m.fragment) != 1:
                print(f"{m.name:40s} error (fragment does not occur exactly once)")
                bad += 1
                continue
            verdict, seconds = run(m, tmp)
            expected = "killed" if m.killed else "survived"
            note = "" if verdict == expected else f"  (expected {expected})"
            bad += verdict != expected
            print(f"{m.name:40s} {verdict:10s} {seconds:6.1f} s{note}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
