"""CLI contract: subcommands, exit codes, report envelopes, replay fields."""

import ast
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import softmatch
from softmatch import bounds, probes
from softmatch.cli import build_parser, main
from softmatch.errors import InvalidInput
from softmatch.measures import (
    EmpiricalMeasure,
    PointCloud,
    save_measure_json,
    save_point_cloud_csv,
)
from softmatch.potentials import Provenance
from softmatch.streams import stream
from softmatch.transport import w1


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    save_point_cloud_csv(tmp_path / "a.csv", PointCloud([[1.0, 2.0]]))
    save_point_cloud_csv(tmp_path / "b.csv", PointCloud([[3.0, 5.0]]))
    save_point_cloud_csv(
        tmp_path / "x.csv", PointCloud(rng.uniform(-0.5, 0.5, (5, 2)))
    )
    (tmp_path / "cfg.json").write_text(
        json.dumps(
            {
                "potential": {"kind": "dot_product", "scale": 0.05, "dim": 2},
                "lookup": {"kind": "linear", "W_V": [[0.3, 0.0], [0.0, 0.3]]},
            }
        )
    )
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestW1Command:
    def test_dirac_example(self, workdir, capsys):
        code, env, _ = run(
            capsys, "w1", str(workdir / "a.csv"), str(workdir / "b.csv")
        )
        assert code == 0
        assert env["report"]["value"] == 5.0
        assert "plan" not in env["report"]

    def test_plan_flag(self, workdir, capsys):
        code, env, _ = run(
            capsys, "w1", str(workdir / "a.csv"), str(workdir / "b.csv"), "--plan"
        )
        assert code == 0
        assert env["report"]["plan"] == {"rows": [0], "cols": [0], "mass": [1.0]}

    # sha256 of the report of `w1 --plan` (value, dual gap and the plan's
    # atoms, as printed) on a seeded weighted 7 x 5 pair (JSON measures:
    # the line path at d = 1, else the flow path) and a uniform 6 x 6 one
    # (CSV: the assignment path at d >= 2); the atoms rebuild, bit for
    # bit, the dense plans that the same reports printed before
    PLAN_DIGESTS = {
        ("weighted", 1): "718e5696f97ae9bae45889bafcf615af7300cfcdd64fd7085b3efd994a66f83b",
        ("weighted", 2): "cc9c93bec95a72861898b20d6852cb47d91b157ba476a72c314ef95ef57ddf88",
        ("weighted", 4): "535af239e9374131ac62ce31f05519f9d84ec7d4c52f03b3b459e74f69ead27d",
        ("uniform", 1): "376c931c8b12c535f6a1cc3b10a6c1b7a8ced13f0e0eee7a3621a90579edb146",
        ("uniform", 2): "38a2f0c2c3d1fe17d115fe4ac28574077bca4d1e6103745fd8d8bf866e679cf8",
        ("uniform", 4): "ee8490dc1d542b259d30cfd38a5631adb04fe4431ecacd934cca2302eadf07b5",
    }

    @pytest.mark.parametrize("d", (1, 2, 4))
    @pytest.mark.parametrize("kind", ("weighted", "uniform"))
    def test_plan_json_pinned(self, tmp_path, capsys, kind, d):
        rng = np.random.default_rng([d, kind == "uniform"])
        paths = []
        for side, n in (("a", 7), ("b", 5)) if kind == "weighted" else (("a", 6), ("b", 6)):
            cloud = PointCloud(rng.uniform(-2.0, 2.0, (n, d)))
            if kind == "weighted":
                w = rng.random(n) + 0.02
                paths.append(tmp_path / f"{side}.json")
                save_measure_json(paths[-1], EmpiricalMeasure(cloud, w / w.sum()))
            else:
                paths.append(tmp_path / f"{side}.csv")
                save_point_cloud_csv(paths[-1], cloud)
        code, env, _ = run(capsys, "w1", *map(str, paths), "--plan")
        assert code == 0
        report = json.dumps(env["report"]).encode()
        assert hashlib.sha256(report).hexdigest() == self.PLAN_DIGESTS[kind, d]

    @pytest.mark.parametrize("kind, d", (("weighted", 1), ("uniform", 2)))
    def test_plan_at_512_points_is_its_atoms(self, tmp_path, capsys, kind, d):
        # the dense 512 x 512 plan took 3.4 MB; its atoms rebuild it exactly
        rng = np.random.default_rng(7)
        measures = []
        for side in "ab":
            cloud = PointCloud(rng.uniform(-2.0, 2.0, (512, d)))
            w = rng.random(512) + 0.02 if kind == "weighted" else np.ones(512)
            measures.append(EmpiricalMeasure(cloud, w / w.sum()))
            save_measure_json(tmp_path / f"{side}.json", measures[-1])
        code = main(["w1", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--plan"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.encode()) < 64 * 1024
        atoms = json.loads(out)["report"]["plan"]
        assert len(atoms["rows"]) <= 1023
        gamma = np.zeros((512, 512))
        np.add.at(gamma, (atoms["rows"], atoms["cols"]), atoms["mass"])
        plan = w1(*measures).plan
        assert gamma.tobytes() == plan.gamma.tobytes()

    def test_missing_file_is_usage_error(self, workdir, capsys):
        code, _, err = run(capsys, "w1", str(workdir / "nope.csv"), str(workdir / "b.csv"))
        assert code == 2
        assert "missing input" in err


def run_child(cwd, *argv, log_level=None):
    """The CLI in a child process, which sees stderr as a user would,
    outside pytest's warning capture and logging handlers."""
    src = str(Path(softmatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    env.pop("SOFTMATCH_LOG_LEVEL", None)
    if log_level is not None:
        env["SOFTMATCH_LOG_LEVEL"] = log_level
    return subprocess.run(
        [sys.executable, "-m", "softmatch.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("a, b", (("1e308,0\n", "-1e308,0\n"), ("1e308\n0\n", "-1e308\n1\n")))
def test_overflowing_costs_print_one_line(tmp_path, a, b):
    # finite coordinates whose l1 distance overflows: exit 2 with the
    # one-line message, and no numpy warning ahead of it; at d = 1 no
    # cost matrix is built and a range check refuses the pair
    (tmp_path / "a.csv").write_text(a)
    (tmp_path / "b.csv").write_text(b)
    proc = run_child(tmp_path, "w1", "a.csv", "b.csv")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "non-finite transport costs" in proc.stderr


# an overflowing similarity (dot product of scale 1e300), and an
# overflowing FFN product (W = [[1e308]] on a one-head d = 1 layer)
OVERFLOWING_LAYERS = {
    "similarity": (
        "1e5,0\n2e5,0\n",
        {"potential": {"kind": "dot_product", "scale": 1e300}},
        ("deq",),
        "similarity produced non-finite values",
    ),
    "ffn": (
        "10\n10\n",
        {
            "heads": [{"potential": {"kind": "gaussian", "dim": 1}, "W_O": [[1.0]]}],
            "ffn": {"layers": [{"W": [[1e308]]}]},
        },
        ("dynamics", "--steps", "1"),
        "layer output must be finite",
    ),
}


@pytest.mark.parametrize("case", OVERFLOWING_LAYERS)
def test_overflowing_layer_prints_one_line(tmp_path, case):
    points, config, (command, *flags), message = OVERFLOWING_LAYERS[case]
    (tmp_path / "x.csv").write_text(points)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    proc = run_child(tmp_path, command, "x.csv", "--config", "cfg.json", *flags)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert message in proc.stderr


class TestEquivCommand:
    def test_default_passes(self, workdir, capsys):
        code, env, _ = run(capsys, "equiv", "--trials", "30", "--n-max", "8")
        assert code == 0
        assert env["report"]["pass"] is True
        assert env["report"]["max_abs_deviation"] <= 1e-10

    def test_sabotage_fails(self, workdir, capsys):
        code, env, _ = run(capsys, "equiv", "--trials", "6", "--sabotage")
        assert code == 1
        assert env["report"]["pass"] is False

    def test_multi_head_reduction_included(self, workdir, capsys):
        code, env, _ = run(capsys, "equiv", "--trials", "12", "--seed", "5")
        assert code == 0


class TestBoundCommand:
    def test_unbounded(self, workdir, capsys):
        code, env, _ = run(
            capsys, "bound", "--theorem", "unbounded-gaussian",
            "--d", "2", "--n", "8", "--m", "4",
        )
        assert code == 0
        rep = env["report"]
        assert rep["theorem"] == "UnboundedGaussian"
        assert rep["value"] > 0
        assert "tau_pi" in rep["ingredients"]

    def test_tight_constant_at_a_large_dimension(self, workdir, capsys):
        # the maximum is over one variable, so its cost does not grow with d
        code, env, _ = run(
            capsys, "bound", "--theorem", "unbounded-gaussian", "--d", "100000", "--tight-c",
        )
        assert code == 0
        diag = env["report"]["diagnostics"]["gradient_constant_numeric"]
        assert diag["value"] == bounds.tight_gradient_constant(100000)
        assert diag["value"] < env["report"]["ingredients"]["gradient_constant_loose"]["value"]

    def test_bounded_with_config(self, workdir, capsys):
        code, env, _ = run(
            capsys, "bound", "--theorem", "bounded",
            "--config", str(workdir / "cfg.json"), "--box-radius", "1", "--d", "2",
        )
        assert code == 0
        assert env["report"]["status"] == "ok"

    def test_cross_attention_needs_query(self, workdir, capsys):
        code, _, err = run(
            capsys, "bound", "--theorem", "cross-attention",
            "--config", str(workdir / "cfg.json"), "--box-radius", "1", "--d", "2",
        )
        assert code == 2
        assert "config error" in err

    def test_cross_attention_query_of_another_dimension_is_usage_error(self, workdir, capsys):
        code, _, err = run(
            capsys, "bound", "--theorem", "cross-attention", "--q", "0.1,0.2,0.3",
            "--config", str(workdir / "cfg.json"), "--box-radius", "1", "--d", "2",
        )
        assert code == 2
        assert "DimMismatch" in err

    @pytest.mark.parametrize(
        "theorem, query",
        [
            ("bounded", ()),
            ("pointwise", ()),
            ("cross-attention", ("--q", "0.1,-0.2")),
            ("component-taus", ()),
        ],
    )
    def test_compact_theorems_default_to_the_gaussian(self, workdir, capsys, theorem, query):
        # with no potential named, the compact family takes the Gaussian, as
        # the unbounded family and `probe` do; it used to exit 2
        lookup = '"lookup": {"kind": "linear", "W_V": [[0.3, 0.0], [0.0, 0.3]]}'
        bare, gauss = workdir / "bare.json", workdir / "gauss.json"
        bare.write_text("{" + lookup + "}")
        gauss.write_text('{"potential": {"kind": "gaussian"}, ' + lookup + "}")
        reports = []
        for cfg in (bare, gauss):
            code, env, err = run(
                capsys, "bound", "--theorem", theorem, "--box-radius", "0.5",
                "--config", str(cfg), *query,
            )
            assert (code, err) == (0, "softmatch bound: pass\n")
            reports.append(env["report"])
        assert reports[0] == reports[1]
        assert reports[0]["status"] == "ok"
        if theorem == "bounded":
            _, probe, _ = run(
                capsys, "probe", "--theorem", "bounded", "--trials", "3",
                "--box-radius", "0.5", "--config", str(bare),
            )
            assert probe["report"]["bound"] == reports[0]["value"]


def _bound_configs(d):
    """The three potential kinds of the pinned bound values, at dim d."""
    return {
        "gaussian": {"potential": {"kind": "gaussian"}},
        "dot": {
            "potential": {"kind": "dot_product", "scale": 0.5},
            "lookup": {
                "kind": "linear",
                "W_V": [[0.3 * (i == j) + 0.1 for j in range(d)] for i in range(d)],
            },
        },
        "scaled_dot": {
            "potential": {
                "kind": "scaled_dot_product",
                "W_Q": [[(i - j) / 4 + (i == j) for j in range(d)] for i in range(d)],
                "W_K": [[(i + j + 1) / 8 for j in range(d)] for i in range(d)],
                "scale": 0.5,
            },
        },
    }


def _report_from_dict(rep):
    """The BoundReport a printed report describes."""
    def ingredients(block):
        return {
            k: bounds.Ingredient(v["value"], Provenance(**v["provenance"]))
            for k, v in block.items()
        }

    return bounds.BoundReport(
        rep["theorem"], rep["value"], ingredients(rep["ingredients"]),
        tuple(tuple(a) for a in rep["assumptions_checked"]),
        ingredients(rep.get("diagnostics", {})),
    )


class TestBoundReports:
    """Every `bound --theorem` prints a full report, exits by its status,
    and reevaluates from its own printed ingredients."""

    KEYS = ["theorem", "value", "status", "ingredients", "assumptions_checked"]

    # float.hex of each value at d = 1, 2, 3, 4 on a radius-0.75 box, as
    # printed before the pointwise and cross-attention constants became reports
    PINNED = {
        ("pointwise", "gaussian"): (
            "0x1.86a2a87992852p+4", "0x1.4796c229d6bc3p+10",
            "0x1.0ba6d2cca9494p+15", "0x1.45ce649b8dac5p+19",
        ),
        ("pointwise", "dot"): (
            "0x1.945d55f6e73d8p-1", "0x1.39a35933fc9d5p+3",
            "0x1.c70f67fec7714p+5", "0x1.de2e90174473dp+7",
        ),
        ("pointwise", "scaled_dot"): (
            "0x1.34fa98fec465fp-3", "0x1.89565fb0c301ep+2",
            "0x1.1e233ad916e37p+8", "0x1.f7a375bb628d3p+15",
        ),
        ("cross-attention", "gaussian"): (
            "0x1.86a2a87992852p+4", "0x1.cf47d9b2751e0p+9",
            "0x1.350eb8e94e0c4p+14", "0x1.45ce649b8dac5p+18",
        ),
        ("cross-attention", "dot"): (
            "0x1.5205273d90e87p-4", "0x1.2daceb48089bfp+0",
            "0x1.c4d55b48b19b6p+2", "0x1.e1df078aef97bp+4",
        ),
        ("cross-attention", "scaled_dot"): (
            "0x1.3fafe6c1b617bp-6", "0x1.a9f59bb2336fbp-1",
            "0x1.e7969762cdbadp+3", "0x1.05550cf134da2p+9",
        ),
        ("component-taus", "gaussian"): (
            "0x1.86a2a87992852p+5", "0x1.cf47d9b2751e0p+10",
            "0x1.350eb8e94e0c4p+15", "0x1.45ce649b8dac5p+19",
        ),
        ("component-taus", "dot"): (
            "0x1.945d55f6e73d8p+0", "0x1.bb8d1d29c3855p+3",
            "0x1.06baa7762e1fep+6", "0x1.de2e90174473ep+7",
        ),
        ("component-taus", "scaled_dot"): (
            "0x1.34fa98fec465fp-2", "0x1.36da5795a67cbp+3",
            "0x1.41b55c279f483p+8", "0x1.aa27d9c5f0edap+15",
        ),
    }

    @staticmethod
    def argv(workdir, theorem, kind, d):
        path = workdir / f"{kind}{d}.json"
        path.write_text(json.dumps(_bound_configs(d)[kind]))
        argv = ["bound", "--theorem", theorem, "--config", str(path),
                "--d", str(d), "--box-radius", "0.75"]
        if theorem == "cross-attention":
            argv += ["--q", ",".join(str(0.1 * (k + 1)) for k in range(d))]
        return argv

    @pytest.mark.parametrize("theorem,kind", PINNED)
    @pytest.mark.parametrize("d", (1, 2, 3, 4))
    def test_values_pinned_and_keys(self, workdir, capsys, theorem, kind, d):
        code, env, _ = run(capsys, *self.argv(workdir, theorem, kind, d))
        rep = env["report"]
        q = [0.1 * (k + 1) for k in range(d)]
        assert list(rep) == self.KEYS + (["q"] if theorem == "cross-attention" else [])
        assert rep.get("q", q) == q
        assert rep["value"].hex() == self.PINNED[theorem, kind][d - 1]
        assert (rep["status"], code) == ("ok", 0)

    @pytest.mark.parametrize("theorem", ("bounded", "component-taus", "pointwise", "cross-attention"))
    def test_exit_code_follows_status(self, workdir, capsys, monkeypatch, theorem):
        argv = self.argv(workdir, theorem, "dot", 2)
        analytic = bounds.regularity_stats

        def patch_stats(provenance=(), **changes):
            def stats(potential, box):
                s = analytic(potential, box)
                prov = {**s.provenance, **dict(provenance)}
                return dataclasses.replace(s, provenance=prov, **changes)
            monkeypatch.setattr(bounds, "regularity_stats", stats)

        got = [run(capsys, *argv)]
        patch_stats(provenance={"eps_g": Provenance("sampled", n_samples=10, seed=0)})
        got.append(run(capsys, *argv))
        patch_stats(lip_left=math.inf, sup_g=math.inf)
        got.append(run(capsys, *argv))
        statuses = [(env["report"]["status"], code) for code, env, _ in got]
        assert statuses == [("ok", 0), ("estimated", 1), ("inapplicable", 1)]

    def test_every_choice_reevaluates_and_every_theorem_is_reachable(self, workdir, capsys):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        choices = next(a for a in sub.choices["bound"]._actions if a.dest == "theorem").choices
        path = workdir / "gauss.json"
        path.write_text(json.dumps(_bound_configs(2)["gaussian"]))
        tags = set()
        for theorem in choices:
            code, env, _ = run(
                capsys, "bound", "--theorem", theorem, "--config", str(path), "--d", "2",
                "--box-radius", "1", "--q", "0.1,0.2", "--n", "8", "--m", "4",
            )
            printed = env["report"]
            rep = _report_from_dict(printed)
            assert rep.theorem in bounds.THEOREMS
            assert bounds.reevaluate(rep) == rep.value
            assert rep.to_dict() == {k: v for k, v in printed.items() if k != "q"}
            assert code == (0 if rep.status == "ok" else 1)
            tags.add(rep.theorem)
        assert tags == set(bounds.THEOREMS)

class TestProbeCommand:
    def test_projection_probe(self, workdir, capsys):
        code, env, _ = run(
            capsys, "probe", "--theorem", "component-projection",
            "--trials", "40", "--d", "1", "--n-min", "1", "--n-max", "4",
            "--box-radius", "2",
        )
        assert code == 0
        assert env["report"]["violations"] == 0

    def test_ratios_csv(self, workdir, capsys):
        out = workdir / "ratios.csv"
        code, env, _ = run(
            capsys, "probe", "--theorem", "component-projection",
            "--trials", "25", "--d", "1", "--box-radius", "2",
            "--ratios-csv", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "ratio"
        assert len(lines) == 1 + env["report"]["trials"] - env["report"]["skipped"]

    def test_deterministic_given_seed(self, workdir, capsys):
        args = ("probe", "--theorem", "bounded", "--trials", "25", "--d", "2",
                "--box-radius", "1", "--seed", "9")
        _, env1, _ = run(capsys, *args)
        _, env2, _ = run(capsys, *args)
        assert env1["report"] == env2["report"]

    def test_default_potential_keeps_the_config_lookup(self, workdir, capsys):
        # with no potential named, probe and bound both use the Gaussian
        # with the config's lookup (the probe used to drop the lookup)
        cfg = workdir / "lookup.json"
        cfg.write_text('{"lookup": {"kind": "linear", "W_V": [[0.3, 0.0], [0.0, 0.3]]}}')
        _, probe, _ = run(
            capsys, "probe", "--theorem", "unbounded-gaussian", "--trials", "3",
            "--config", str(cfg),
        )
        _, bound, _ = run(
            capsys, "bound", "--theorem", "unbounded-equal-n", "--n", "2", "--config", str(cfg),
        )
        assert bound["report"]["ingredients"]["tau_lookup"]["value"] == 0.3
        assert probe["report"]["bound"] == bound["report"]["value"]

    @pytest.mark.parametrize("radius", ("0", "-0.0"))
    @pytest.mark.parametrize("theorem", ("bounded", "component-projection"))
    def test_box_radius_zero_is_the_one_point_box(self, workdir, capsys, theorem, radius):
        # an explicit 0 used to be replaced by the default: the radius-1
        # cube for `bounded`, the unbounded domain for `component-projection`;
        # -0.0 made the box [0.0, -0.0], which numpy's uniform refused
        gauss = workdir / "gauss.json"
        gauss.write_text('{"potential": {"kind": "gaussian"}}')
        code, env, _ = run(
            capsys, "probe", "--theorem", theorem, "--trials", "7", "--box-radius", radius,
            "--config", str(gauss),
        )
        _, bound, _ = run(
            capsys, "bound", "--theorem", "bounded", "--box-radius", radius, "--config", str(gauss),
        )
        rep = env["report"]
        assert code == 0
        assert (rep["skipped"], rep["trials"], rep["violations"]) == (7, 7, 0)
        if theorem == "bounded":
            assert rep["bound"] == bound["report"]["value"] == 0.0


def _cli(argv):
    """main(argv) as (exit code, stdout, stderr), the code of an argparse
    exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


class TestCliParity:
    """`bound` and `probe` print what they printed at commit 7281b16, before
    one theorem table drove both: a sha256 over every run of a grid, of
    its argv, exit code, stdout envelope and stderr. The one change since
    is the `--tight-c` diagnostic of `unbounded-gaussian`, now the
    gradient constant's one-variable maximum. Configs are passed by
    a relative path, so the envelope's config_hash, which covers the parsed
    arguments, is the same in every checkout and shows a renamed flag or
    default."""

    BOUND = {
        "bounded": "e087204b187af45e8af1aa742d3394f5e6b7689e0b3f334df0251cfe4ef30b70",
        "pointwise": "78c3203eab3d08f3098e8125d9c4f55491f3842da20fd7a3689fa05d60d89af8",
        "unbounded-gaussian": "bd0de8279cf8d8d2da8a19c36586332df07faf8d3e9ded026ed1b2af851587df",
        "unbounded-equal-n": "b05b42b0c1823865657eb61eaa03dad4024eb0004e2e97d315a826b63cfc14a6",
        "cross-attention": "aba9ebc9974ee5adc10c18d3b69f4c8d95f64caf43ff4f3f81611c51c878d513",
        "component-taus": "4a7ac0f7204ac0893e029783fb9a4c4d43358fd939bb349bafd55a892f7bb172",
    }
    PROBE = {
        "bounded": "36c13df962b84fafeb93924c47e38f5869b7b730e3b974b66905e4a05bcb86f5",
        "unbounded-gaussian": "be1c24a379522587c82cfade04aa91070246ac97362834d56aab1b84c64977c7",
        "component-projection": "6824d36caece441ef6fe0a301c74ef26e4c340072814282f0f3ea5f0aee9fd77",
        "component-lookup": "a600b2b3653b51a45dffe40fddab425f4fda438976bf1d91aee963494c464040",
        "component-softmatch-x": "01ad475e95b21bd8320e535ec358870524e6f163dfbd27a2728a695bd057b369",
        "component-softmatch-measure": "f6da05ce321890241b25a6adb03c84512083c26397d7625738f039040ff0508c",
    }

    @staticmethod
    def digest(runs):
        h = hashlib.sha256()
        for argv in runs:
            h.update(json.dumps([argv, *_cli(argv)]).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("theorem", BOUND)
    def test_bound(self, tmp_path, monkeypatch, theorem):
        # the Gaussian (identity lookup), dot-product (linear lookup) and
        # scaled dot-product configs at d = 1..4, box radius 0.5 and 1,
        # (N, M) = (1, 1) and (3, 7), and --tight-c on the unbounded ones;
        # a theorem ignores the flags it does not read
        monkeypatch.chdir(tmp_path)
        runs = []
        for d in (1, 2, 3, 4):
            for kind, config in _bound_configs(d).items():
                Path(f"{kind}{d}.json").write_text(json.dumps(config))
                for radius in ("0.5", "1"):
                    for n, m in (("1", "1"), ("3", "7")):
                        runs.append([
                            "bound", "--theorem", theorem, "--config", f"{kind}{d}.json",
                            "--d", str(d), "--box-radius", radius, "--n", n, "--m", m,
                            "--q=" + ",".join(str(0.2 * k - 0.3) for k in range(d)),
                        ])
                        if theorem.startswith("unbounded") and radius == "1":
                            runs[-1].append("--tight-c")
        assert self.digest(runs) == self.BOUND[theorem]

    @pytest.mark.parametrize("theorem", PROBE)
    def test_probe(self, tmp_path, monkeypatch, theorem):
        # seeds 3 and 11, ten trials, the default Gaussian with and without
        # a linear lookup, and the default box or one of radius 0.5
        monkeypatch.chdir(tmp_path)
        Path("lookup.json").write_text('{"lookup": {"kind": "linear", "W_V": [[0.3, 0.1], [0.0, 0.3]]}}')
        runs = [
            ["probe", "--theorem", theorem, "--trials", "10", "--d", "2", "--seed", seed,
             *config, *radius]
            for seed in ("3", "11")
            for config in ((), ("--config", "lookup.json"))
            for radius in ((), ("--box-radius", "0.5"))
        ]
        assert self.digest(runs) == self.PROBE[theorem]


class TestDynamicsCommands:
    def test_dynamics_with_states_out(self, workdir, capsys):
        states = workdir / "traj.jsonl"
        code, env, _ = run(
            capsys, "dynamics", str(workdir / "x.csv"),
            "--config", str(workdir / "cfg.json"), "--steps", "3",
            "--states-out", str(states),
        )
        assert code == 0
        assert env["report"]["depth"] == 3
        assert len(env["report"]["per_step_w1"]) == 3
        lines = states.read_text().strip().splitlines()
        assert len(lines) == 4
        assert len(json.loads(lines[0])["points"]) == 5

    def test_deq(self, workdir, capsys):
        code, env, _ = run(
            capsys, "deq", str(workdir / "x.csv"),
            "--config", str(workdir / "cfg.json"), "--tol", "1e-9",
        )
        assert code == 0
        assert env["report"]["converged"] is True

    def test_multi_head_layer_config(self, workdir, capsys):
        mh = workdir / "mh.json"
        mh.write_text(
            json.dumps(
                {
                    "heads": [
                        {
                            "potential": {"kind": "gaussian", "dim": 2},
                            "W_O": [[0.2, 0.0], [0.0, 0.2]],
                        }
                    ],
                    "ffn": {"layers": [{"W": [[0.5, 0.0], [0.0, 0.5]]}]},
                }
            )
        )
        code, env, _ = run(
            capsys, "dynamics", str(workdir / "x.csv"),
            "--config", str(mh), "--steps", "2",
        )
        assert code == 0
        assert env["report"]["depth"] == 2

    def test_invert(self, workdir, capsys):
        code, env, _ = run(
            capsys, "invert", str(workdir / "x.csv"),
            "--config", str(workdir / "cfg.json"), "--tol", "1e-9",
        )
        assert code == 0
        assert env["report"]["residual"] <= 1e-9


def _numeric(text: str) -> bool:
    """Whether every comma-separated piece of text reads as a float (an
    int reads as one too)."""
    try:
        [float(v) for v in text.split(",")]
    except ValueError:
        return False
    return True


# non-numeric and empty flag values, which every numeric flag refuses
STRINGS = st.one_of(
    st.sampled_from(("", " ", "abc", "1x", "0x10", "1e", "1,x", ",", "--", "-x", "nan?")),
    st.text(max_size=6).filter(lambda t: not _numeric(t)),
)


class TestLemmasCommand:
    def test_ratio_only(self, workdir, capsys):
        code, env, _ = run(capsys, "lemmas", "--ratio", "--nmax", "30")
        assert code == 0
        assert env["report"]["ratio_lemma"]["all_within_bound"]
        assert "product_lemma" not in env["report"]

    def test_default_runs_all(self, workdir, capsys):
        code, env, _ = run(capsys, "lemmas", "--nmax", "20", "--trials", "20")
        assert code == 0
        assert set(env["report"]) == {"ratio_lemma", "product_lemma", "local_lip_lemma"}

    @pytest.mark.parametrize(
        "flag, check, kw",
        [
            ("--ratio", "check_ratio_lemma", {"restarts": 0}),
            ("--product", "check_product_lemma", {"size_range": (3, 2)}),
            ("--local-lip", "check_local_lip_lemma", {"n_samples": 1}),
        ],
        ids=["ratio-restarts0", "product-range", "local_lip-samples1"],
    )
    def test_rejected_arguments_exit_2(self, workdir, capsys, monkeypatch, flag, check, kw):
        # the flags do not reach these arguments; a library caller's
        # InvalidInput takes the same exit-2 path
        monkeypatch.setattr(probes, check, functools.partial(getattr(probes, check), **kw))
        code, env, err = run(capsys, "lemmas", flag, "--nmax", "10", "--trials", "5")
        assert code == 2
        assert env is None
        assert err.startswith("input error: InvalidInput: ")


    @settings(max_examples=25, deadline=None)
    @given(
        flag=st.sampled_from(("--ratio", "--product")),
        nmax=st.one_of(st.integers(1, 300), st.integers(-(2**40), 0), STRINGS),
        trials=st.one_of(st.integers(1, 20), st.integers(-(2**40), 0), STRINGS),
        seed=st.one_of(st.integers(0, 2**128), st.integers(-(2**40), -1), STRINGS),
    )
    @example(flag="--ratio", nmax=300, trials=0, seed=2**128)
    @example(flag="--product", nmax=0, trials=20, seed=2**128)
    @example(flag="--ratio", nmax=0, trials=20, seed=0)
    @example(flag="--product", nmax=300, trials=-1, seed=0)
    @example(flag="--ratio", nmax="", trials=20, seed=0)
    @example(flag="--product", nmax=10, trials=5, seed="--")
    def test_any_count_or_seed_gives_an_exit_code_and_one_line(self, flag, nmax, trials, seed):
        # 0, negative, non-numeric and large but cheap values: --nmax stays
        # at or below 300 and --trials at or below 20, so that each run
        # takes well under a second (the ascent holds four arrays of
        # 64 x nmax doubles)
        values = {"--nmax": nmax, "--trials": trials, "--seed": seed}
        report = _assert_one_line_and_clean_json(["lemmas", flag, *_argv(values)], values)
        assert report is None or set(report) == {"ratio_lemma" if flag == "--ratio" else "product_lemma"}


# special flag values for the properties below: 0, negative, non-finite,
# huge and small positive, and non-numeric strings; the integer flags draw
# the integers among them
SPECIAL_FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, -1e308, math.nan, math.inf, -math.inf, 1e308, 1e-300, 5e-324)),
    st.floats(-10.0, -1e-6),
    STRINGS,
)
BIG = 10**308


def _special_ints(huge=True):
    values = st.one_of(st.sampled_from((0, -1)), st.integers(-(2**40), -2), STRINGS)
    return st.one_of(values, st.just(BIG)) if huge else values


@st.composite
def _flags(draw, valid, special):
    """A valid value of every flag, with up to three of them replaced by a
    special value, so that both the edge cases and the runs are drawn."""
    values = {flag: draw(strategy) for flag, strategy in valid.items()}
    for flag in draw(st.lists(st.sampled_from(sorted(special)), max_size=3, unique=True)):
        values[flag] = draw(special[flag])
    return values


SEEDS = (st.integers(0, 2**128), st.one_of(st.integers(-(2**40), -1), STRINGS))
BOUND_FLAGS = _flags(
    {
        "--d": st.integers(1, 8), "--n": st.integers(1, 64), "--m": st.integers(1, 64),
        "--box-radius": st.one_of(st.none(), st.floats(1e-3, 3.0)), "--seed": SEEDS[0],
        "--q": st.none(),
    },
    {
        "--d": _special_ints(huge=False), "--n": _special_ints(), "--m": _special_ints(),
        "--box-radius": SPECIAL_FLOATS, "--seed": SEEDS[1], "--q": STRINGS,
    },
)
PROBE_FLAGS = _flags(
    {
        "--d": st.integers(1, 8), "--trials": st.integers(1, 20),
        "--n-min": st.integers(1, 4), "--n-max": st.integers(4, 16),
        "--radius": st.floats(1e-3, 10.0), "--box-radius": st.one_of(st.none(), st.floats(1e-3, 3.0)),
        "--jitter-sigma": st.floats(0.0, 1.0), "--seed": SEEDS[0],
    },
    {
        "--d": _special_ints(huge=False), "--trials": _special_ints(huge=False),
        "--n-min": _special_ints(), "--n-max": _special_ints(huge=False),
        "--radius": SPECIAL_FLOATS, "--box-radius": SPECIAL_FLOATS,
        "--jitter-sigma": SPECIAL_FLOATS, "--seed": SEEDS[1],
    },
)


def _argv(flags: dict) -> list:
    """--flag=value for each flag that is not absent (None); a number
    by its repr, a string as it stands."""
    return [
        f"{flag}={value if isinstance(value, str) else repr(value)}"
        for flag, value in flags.items()
        if value is not None
    ]


def _assert_one_line_and_clean_json(argv, flags=()):
    """The run's report, or None on exit 2, which a non-numeric value in
    `flags` must give."""
    code, out, err = _cli(argv)
    assert code in (0, 1, 2)
    if any(isinstance(v, str) and not _numeric(v) for v in dict(flags).values()):
        assert code == 2
    assert len(err.splitlines()) == 1, err
    if code == 2:
        assert out == ""
        return None
    env = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in report"))
    return env["report"]


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """A Gaussian and a dot-product config of any dimension."""
    path = tmp_path_factory.mktemp("configs")
    (path / "gauss.json").write_text('{"potential": {"kind": "gaussian"}}')
    (path / "dot.json").write_text('{"potential": {"kind": "dot_product", "scale": 0.5}}')
    return path


class TestBoundAndProbeProperties:
    """Any numeric flag value gives an exit code, one stderr line and, on
    exits 0 and 1, a report without NaN or Infinity; a non-numeric or
    empty one gives exit 2 and one stderr line. --d is at most 8,
    --trials at most 20 and --n-max at most 16, so each run takes well
    under a second."""

    @settings(max_examples=40, deadline=None)
    @given(
        theorem=st.sampled_from(list(TestCliParity.BOUND)),
        kind=st.sampled_from(("gauss", "dot")),
        flags=BOUND_FLAGS,
    )
    @example(theorem="bounded", kind="gauss", flags={"--d": 8, "--box-radius": 1e308})
    @example(theorem="pointwise", kind="dot", flags={"--d": 8, "--box-radius": 1e-300})
    @example(theorem="unbounded-gaussian", kind="gauss", flags={"--d": 8, "--n": BIG, "--m": BIG})
    @example(theorem="cross-attention", kind="gauss", flags={"--d": 3, "--box-radius": 5e-324})
    @example(theorem="cross-attention", kind="dot", flags={"--d": 2, "--q": "1,x"})
    @example(theorem="bounded", kind="gauss", flags={"--d": "", "--seed": "abc"})
    def test_bound(self, configs, theorem, kind, flags):
        # a query of --d entries unless --q is drawn
        d = flags["--d"] if isinstance(flags["--d"], int) else 1
        if flags.get("--q") is None:
            flags = {**flags, "--q": ",".join(["0.1"] * max(d, 1))}
        argv = ["bound", "--theorem", theorem, "--config", str(configs / f"{kind}.json")]
        report = _assert_one_line_and_clean_json(argv + _argv(flags), flags)
        assert report is None or report["theorem"] in bounds.THEOREMS

    @settings(max_examples=40, deadline=None)
    @given(
        theorem=st.sampled_from(list(TestCliParity.PROBE)),
        perturbation=st.sampled_from(probes.PERTURBATIONS),
        dot=st.booleans(),
        flags=PROBE_FLAGS,
    )
    @example(
        theorem="unbounded-gaussian", perturbation="jitter", dot=False,
        flags={"--d": 8, "--trials": 20, "--n-max": 16, "--jitter-sigma": 1e308},
    )
    @example(
        theorem="bounded", perturbation="jitter", dot=True,
        flags={"--d": 8, "--trials": 20, "--box-radius": 1e-300, "--jitter-sigma": 1e308},
    )
    @example(
        theorem="component-softmatch-measure", perturbation="drop_point", dot=False,
        flags={"--d": 1, "--n-min": 1, "--n-max": 1, "--box-radius": 0.0},
    )
    def test_probe(self, configs, theorem, perturbation, dot, flags):
        argv = ["probe", "--theorem", theorem, "--perturbation", perturbation, *_argv(flags)]
        if dot:
            argv += ["--config", str(configs / "dot.json")]
        report = _assert_one_line_and_clean_json(argv, flags)
        assert report is None or report["trials"] == flags.get("--trials", 200)


# fields of a malformed or non-finite CSV file: non-finite, overflowing
# and subnormal numbers, an empty field, words, a hex literal, a field
# holding a comma (one column too many) and one cut short
BAD_FIELDS = st.sampled_from(
    ("nan", "inf", "-inf", "1e999", "1e308", "-1e308", "5e-324", "", "abc", "0x10", "1,2", "1e")
)


@st.composite
def _csv_cloud(draw, d):
    """A cloud of 1-6 points in d dimensions on [-2, 2] as CSV text, with
    up to three fields replaced by a bad one, and at times a row dropped
    to one field."""
    n = draw(st.integers(1, 6))
    rows = [[repr(draw(st.floats(-2.0, 2.0))) for _ in range(d)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, d - 1))] = draw(BAD_FIELDS)
    if d > 1 and draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, n - 1))] = rows[0][:1]
    return "".join(",".join(row) + "\n" for row in rows)


EQUIV_FLAGS = _flags(
    {
        "--trials": st.integers(1, 4), "--n-max": st.integers(1, 8),
        "--dims": st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
            lambda ds: ",".join(map(str, ds))
        ),
        "--seed": SEEDS[0],
    },
    {
        "--trials": _special_ints(huge=False), "--n-max": _special_ints(),
        "--dims": st.sampled_from(("0", "-1", f"1,{BIG}", "2,-3")), "--seed": SEEDS[1],
    },
)
# --max-iter draws no huge count: a layer that does not contract would
# run all of it
SOLVE_FLAGS = _flags(
    {"--tol": st.floats(1e-12, 1e-2), "--max-iter": st.integers(1, 30), "--seed": SEEDS[0]},
    {"--tol": SPECIAL_FLOATS, "--max-iter": _special_ints(huge=False), "--seed": SEEDS[1]},
)
STEPS_FLAGS = _flags(
    {"--steps": st.integers(0, 3), "--seed": SEEDS[0]},
    {"--steps": _special_ints(), "--seed": SEEDS[1]},
)


class TestFileCommandProperties:
    """The property of `TestBoundAndProbeProperties` for `equiv`, `w1`,
    `dynamics`, `deq` and `invert`: any flag value and any CSV file of
    `_csv_cloud` gives an exit code, one stderr line and, on exits 0 and
    1, a report without NaN or Infinity. Clouds hold at most
    6 points, --trials is at most 4, --n-max 8, --steps 3 and --max-iter
    30, so each run takes well under a second."""

    KINDS = st.sampled_from(("gauss", "dot"))
    # a cloud and, for deq, an optional --h0 state of its dimension
    CLOUDS = st.integers(1, 3).flatmap(
        lambda d: st.tuples(_csv_cloud(d), st.one_of(st.none(), _csv_cloud(d)))
    )
    # the two points are 1e308 apart: costs and sums pass the float range
    FAR = "0.0,1e308\n0.0,0.0\n"

    @settings(max_examples=30, deadline=None)
    @given(flags=EQUIV_FLAGS, sabotage=st.booleans())
    @example(flags={"--n-max": BIG}, sabotage=False)
    @example(flags={"--dims": f"1,{BIG}", "--trials": 1}, sabotage=False)
    @example(flags={"--dims": "1,x"}, sabotage=False)
    def test_equiv(self, flags, sabotage):
        argv = ["equiv", *_argv(flags), *(["--sabotage"] if sabotage else [])]
        report = _assert_one_line_and_clean_json(argv, flags)
        assert report is None or report["pass"] is not sabotage

    @settings(max_examples=40, deadline=None)
    @given(
        clouds=st.integers(1, 3).flatmap(lambda d: st.tuples(_csv_cloud(d), _csv_cloud(d))),
        plan=st.booleans(),
        seed=st.one_of(*SEEDS),
    )
    @example(clouds=(FAR, FAR), plan=False, seed=0)
    def test_w1(self, configs, clouds, plan, seed):
        for name, text in zip(("a.csv", "b.csv"), clouds):
            (configs / name).write_text(text)
        argv = ["w1", str(configs / "a.csv"), str(configs / "b.csv"), f"--seed={seed}"]
        report = _assert_one_line_and_clean_json(argv + (["--plan"] if plan else []), {"--seed": seed})
        assert report is None or report["dual_gap"] == 0.0

    @staticmethod
    def _run(configs, command, kind, cloud, flags, h0=None):
        (configs / "x.csv").write_text(cloud)
        argv = [command, str(configs / "x.csv"), "--config", str(configs / f"{kind}.json")]
        if h0 is not None:
            (configs / "h0.csv").write_text(h0)
            argv.append(f"--h0={configs / 'h0.csv'}")
        return _assert_one_line_and_clean_json(argv + _argv(flags), flags)

    @settings(max_examples=30, deadline=None)
    @given(kind=KINDS, clouds=CLOUDS, flags=STEPS_FLAGS)
    @example(kind="gauss", clouds=("0.5,0.25\n", None), flags={"--steps": BIG})
    def test_dynamics(self, configs, kind, clouds, flags):
        report = self._run(configs, "dynamics", kind, clouds[0], flags)
        assert report is None or report["depth"] == flags.get("--steps", 4)

    @settings(max_examples=30, deadline=None)
    @given(kind=KINDS, clouds=CLOUDS, flags=SOLVE_FLAGS)
    @example(kind="gauss", clouds=(FAR, FAR), flags={"--max-iter": 1})
    @example(kind="gauss", clouds=("1e308\n", None), flags={})
    @example(kind="dot", clouds=("0.5\n", None), flags={"--tol": "abc"})
    def test_deq(self, configs, kind, clouds, flags):
        report = self._run(configs, "deq", kind, clouds[0], flags, h0=clouds[1])
        assert report is None or 1 <= report["iterations"] <= flags.get("--max-iter", 500)

    @settings(max_examples=30, deadline=None)
    @given(kind=KINDS, clouds=CLOUDS, flags=SOLVE_FLAGS)
    @example(kind="gauss", clouds=("0.1,0.2\n0.3,-0.1\n", None), flags={"--max-iter": 3})
    def test_invert(self, configs, kind, clouds, flags):
        report = self._run(configs, "invert", kind, clouds[0], flags)
        assert report is None or report["lip_estimate"] is not None


def _string_literals(tree) -> set:
    """Every string constant of a module, docstrings and f-string parts
    included."""
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_theorem_names_live_in_the_table():
    """Each theorem tag, `bound --theorem` name and `probe --theorem` name
    is written once, in the theorem table of `bounds`: neither the CLI nor
    the probes hold one as a string."""
    rows = bounds._TABLE.values()
    names = set(bounds._TABLE) | {row.name for row in rows}
    names |= {name for row in rows for name, _ in row.probe_names}
    assert names >= {*bounds.THEOREMS, *TestCliParity.BOUND, *TestCliParity.PROBE}
    assert _string_literals(ast.parse('x = f"{y} bounded"; z = "bounded"')) & names == {"bounded"}
    src = Path(softmatch.__file__).resolve().parent
    found = {
        (path, literal)
        for path in ("cli.py", "probes.py")
        for literal in _string_literals(ast.parse((src / path).read_text())) & names
    }
    assert not found, f"theorem names written outside the table: {sorted(found)}"


def test_a_new_table_row_reaches_both_subcommands(workdir, capsys, monkeypatch):
    """A row added to the table is a `bound` and a `probe` choice and runs
    its own builder, with no edit to the CLI."""

    def build(cfg, box):
        base = bounds.bound_bounded_contraction(cfg, box)
        return bounds.BoundReport(
            "DoubledContraction", 2.0 * base.value, base.ingredients, base.assumptions_checked
        )

    row = bounds._Theorem(
        "doubled", build, lambda v: 2.0 * v["tau_pi"] * v["tau_softmatch"] * v["tau_lookup"],
        ("cfg", "box"), "probe_contraction", (("doubled-probe", None),),
    )
    monkeypatch.setitem(bounds._TABLE, "DoubledContraction", row)
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    choices = {
        name: next(a for a in sub.choices[name]._actions if a.dest == "theorem").choices
        for name in ("bound", "probe")
    }
    assert "doubled" in choices["bound"] and "doubled-probe" in choices["probe"]
    gauss = workdir / "gauss.json"
    gauss.write_text('{"potential": {"kind": "gaussian"}}')
    flags = ("--config", str(gauss), "--box-radius", "1")
    (code, env, _), (_, base, _) = (
        run(capsys, "bound", "--theorem", name, *flags) for name in ("doubled", "bounded")
    )
    rep = env["report"]
    assert (code, rep["theorem"], rep["status"]) == (0, "DoubledContraction", "ok")
    assert rep["value"] == 2.0 * base["report"]["value"]
    assert bounds.reevaluate(_report_from_dict(rep)) == rep["value"]
    (code, env, _), (_, base, _) = (
        run(capsys, "probe", "--theorem", name, "--trials", "5", *flags)
        for name in ("doubled-probe", "bounded")
    )
    assert code == 0
    assert env["report"]["bound"] == 2.0 * base["report"]["bound"]
    assert env["report"]["max_ratio"] == base["report"]["max_ratio"]


class TestExitCodes:
    # malformed files: a CSV field that is no number, CSV rows of differing
    # lengths, a JSON measure cut off after its points, a JSON object
    # without points
    BAD_FILES = {
        "non_numeric_csv": ("bad.csv", "1.0,abc\n"),
        "ragged_csv": ("bad.csv", "1.0,2.0\n3.0\n"),
        "truncated_json": ("bad.json", '{"dim": 2, "points": [[1.0, 2.0]]'),
        "json_without_points": ("bad.json", '{"dim": 2, "weights": [1.0]}'),
    }

    # boxes too wide for float arithmetic: numpy's sampler refused a side
    # 2e308 in a traceback, and the squared side of a Gaussian or the
    # corner products of a dot product overflowed with numpy warnings
    # ahead of the exit-2 line; a 9-d form past the corner limit read NaN
    WIDE_BOUND = ("bound", "--theorem", "bounded", "--box-radius", "1e160", "--config")
    WIDE_PROBE = ("probe", "--theorem", "bounded", "--trials", "3", "--box-radius", "1e160")
    HUGE_BOXES = {
        "projection_box_1e308": (
            "probe", "--theorem", "component-projection", "--box-radius", "1e308",
            "--trials", "3",
        ),
        "lookup_box_1e308": (
            "probe", "--theorem", "component-lookup", "--box-radius", "1e308", "--trials", "3",
        ),
        "bound_gaussian_box_1e160": (*WIDE_BOUND, "gauss.json"),
        "bound_dot_box_1e160": (*WIDE_BOUND, "cfg.json"),
        "bound_scaled_dot_box_1e160": (*WIDE_BOUND, "sdp.json"),
        "bound_scaled_dot_9d_box_1e160": (*WIDE_BOUND, "sdp9.json", "--d", "9"),
        "probe_gaussian_box_1e160": WIDE_PROBE,
        "probe_dot_box_1e160": (*WIDE_PROBE, "--config", "cfg.json"),
    }

    @pytest.mark.parametrize(
        "case",
        (
            "dim_mismatch", "nan_csv", "zero_trials", "q_wrong_dim", "dims_zero",
            "n_max_zero", "product_trials_zero", "equiv_trials_zero", "deq_max_iter_zero",
            "invert_max_iter_zero", "probe_d_negative", "lookup_probe_d_negative",
            "bound_d_negative", "softmatch_x_eps_zero", "softmatch_measure_eps_zero",
            *HUGE_BOXES, *BAD_FILES,
        ),
    )
    def test_library_errors_are_usage_errors(self, workdir, capsys, monkeypatch, case):
        (workdir / "one_d.csv").write_text("1.0\n2.0\n")
        (workdir / "nan.csv").write_text("1.0,2.0\nnan,0.0\n")
        (workdir / "gauss.json").write_text('{"potential": {"kind": "gaussian", "dim": 2}}')
        if case in self.BAD_FILES:
            name, text = self.BAD_FILES[case]
            (workdir / name).write_text(text)
            argv = ("w1", str(workdir / name), str(workdir / "b.csv"))
        elif case in self.HUGE_BOXES:
            w9 = np.eye(9)
            w9[0, 1] = 1.0
            for name, w_q, w_k in (
                ("sdp.json", [[1.0, 0.5], [0.2, 1.0]], [[1.0, 0.0], [0.3, 1.0]]),
                ("sdp9.json", w9.tolist(), w9.tolist()),
            ):
                spec = {"kind": "scaled_dot_product", "W_Q": w_q, "W_K": w_k}
                (workdir / name).write_text(json.dumps({"potential": spec}))
            monkeypatch.chdir(workdir)
            argv = self.HUGE_BOXES[case]
        else:
            argv = {
                "dim_mismatch": ("w1", str(workdir / "a.csv"), str(workdir / "one_d.csv")),
                "nan_csv": ("w1", str(workdir / "nan.csv"), str(workdir / "b.csv")),
                "zero_trials": ("probe", "--theorem", "bounded", "--trials", "0"),
                "q_wrong_dim": (
                    "bound", "--theorem", "cross-attention", "--config",
                    str(workdir / "gauss.json"), "--box-radius", "1", "--d", "2",
                    "--q", "1,2,3",
                ),
                "dims_zero": ("equiv", "--dims", "0"),
                "n_max_zero": ("equiv", "--n-max", "0"),
                "product_trials_zero": ("lemmas", "--product", "--trials", "0"),
                "equiv_trials_zero": ("equiv", "--trials", "0"),
                "deq_max_iter_zero": (
                    "deq", str(workdir / "x.csv"), "--config", str(workdir / "gauss.json"),
                    "--max-iter", "0",
                ),
                "invert_max_iter_zero": (
                    "invert", str(workdir / "x.csv"), "--config", str(workdir / "gauss.json"),
                    "--max-iter", "0",
                ),
                # numpy refused the negative dimension in a traceback
                "probe_d_negative": ("probe", "--theorem", "bounded", "--d", "-1"),
                "lookup_probe_d_negative": ("probe", "--theorem", "component-lookup", "--d", "-1"),
                "bound_d_negative": (
                    "bound", "--theorem", "bounded", "--d", "-1", "--box-radius", "1",
                    "--config", str(workdir / "gauss.json"),
                ),
                # eps(G) = exp(-1600) underflows to 0: the constant divided by zero
                "softmatch_x_eps_zero": (
                    "probe", "--theorem", "component-softmatch-x", "--d", "1",
                    "--box-radius", "20",
                ),
                "softmatch_measure_eps_zero": (
                    "probe", "--theorem", "component-softmatch-measure", "--d", "1",
                    "--box-radius", "20",
                ),
            }[case]
        code, env, err = run(capsys, *argv)
        assert code == 2
        assert env is None
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("input error: ")
        if case in self.HUGE_BOXES:
            # a zero entry of W_Q^T W_K made 0 * inf = NaN in the 9-d
            # form's per-entry extrema, reported for a pair x=None, y=None
            assert "nan" not in err and "None" not in err

    # the unbounded theorems hold for the Gaussian potential of dimension
    # --d only; they used to report a dot-product config, or a Gaussian of
    # another dimension, "ok" against the Gaussian constant for --d
    GAUSSIAN_ONLY = {
        "bound_unbounded_gaussian": ("bound", "--theorem", "unbounded-gaussian", "--d", "2"),
        "bound_unbounded_equal_n": ("bound", "--theorem", "unbounded-equal-n", "--d", "2"),
        "probe_unbounded_gaussian": (
            "probe", "--theorem", "unbounded-gaussian", "--d", "2", "--trials", "3",
        ),
    }

    @pytest.mark.parametrize("case", GAUSSIAN_ONLY)
    def test_gaussian_only_theorems_refuse_other_potentials(self, workdir, capsys, case):
        (workdir / "dot.json").write_text('{"potential": {"kind": "dot_product", "scale": 1.0}}')
        (workdir / "gauss3.json").write_text('{"potential": {"kind": "gaussian", "dim": 3}}')
        (workdir / "gauss.json").write_text('{"potential": {"kind": "gaussian"}}')
        argv = self.GAUSSIAN_ONLY[case]
        for name in ("dot.json", "gauss3.json"):
            code, env, err = run(capsys, *argv, "--config", str(workdir / name))
            assert code == 2
            assert env is None
            assert len(err.strip().splitlines()) == 1
            assert err.startswith("config error: ")
        code, env, _ = run(capsys, *argv, "--config", str(workdir / "gauss.json"))
        assert code == 0 and env["report"]

    # a config naming heads or an ffn passed the key check and was then
    # evaluated as the default single Gaussian head: one head with W_O = 5I
    # read 81822.66 (bounded) and 24.96 (unbounded), both "ok"
    LAYERED = {
        "bound_bounded": ("bound", "--theorem", "bounded", "--box-radius", "1"),
        "bound_unbounded_gaussian": ("bound", "--theorem", "unbounded-gaussian"),
        "probe_bounded": ("probe", "--theorem", "bounded", "--trials", "3"),
        "probe_component_lookup": ("probe", "--theorem", "component-lookup", "--trials", "3"),
    }

    @pytest.mark.parametrize("case", LAYERED)
    @pytest.mark.parametrize("field", ("heads", "ffn"))
    def test_multi_head_and_ffn_configs_are_refused(self, workdir, capsys, case, field):
        layer = {
            "heads": [{"potential": {"kind": "gaussian", "dim": 2}, "W_O": [[5, 0], [0, 5]]}],
            "ffn": {"layers": [{"W": [[2, 0], [0, 2]]}]},
        }
        layer = {field: layer[field]}
        (workdir / "layer.json").write_text(json.dumps(layer))
        code, env, err = run(capsys, *self.LAYERED[case], "--config", str(workdir / "layer.json"))
        assert code == 2
        assert env is None
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: ") and f"'{field}'" in err
        assert "ROADMAP item 9" in err

    # an ffn block without heads passed the key check and was dropped: a
    # two-point dynamics run read the same per_step_w1 with and without
    # W = 100 I
    @pytest.mark.parametrize("command", ("dynamics", "deq", "invert"))
    def test_ffn_without_heads_is_refused(self, workdir, capsys, command):
        config = {
            "potential": {"kind": "gaussian", "dim": 2},
            "ffn": {"layers": [{"W": [[100, 0], [0, 100]]}]},
        }
        (workdir / "ffn.json").write_text(json.dumps(config))
        code, env, err = run(capsys, command, str(workdir / "x.csv"), "--config", str(workdir / "ffn.json"))
        assert (code, env) == (2, None)
        assert err == "config error: an 'ffn' block follows multi-head attention and needs 'heads'\n"

    # a file that is not UTF-8 text, and a directory, ended in a traceback
    @pytest.mark.parametrize("name", ("bad.csv", "bad.json", "folder"))
    def test_unreadable_inputs_are_usage_errors(self, workdir, capsys, name):
        if name == "folder":
            (workdir / name).mkdir()
        else:
            (workdir / name).write_bytes(b"\xff\xfe,1\n")
        code, env, err = run(capsys, "w1", str(workdir / name), str(workdir / "b.csv"))
        assert (code, env) == (2, None)
        assert len(err.splitlines()) == 1
        assert err.startswith("cannot read input: " if name == "folder" else "input error: ")

    # the component probes built only the part of the config their kind
    # uses, so a bad potential or lookup elsewhere in it passed unread
    @pytest.mark.parametrize(
        "theorem, config",
        (
            ("component-projection", {"potential": {"kind": "bogus"}}),
            ("component-lookup", {"potential": {"kind": "bogus"}}),
            ("component-projection", {"lookup": {"kind": "bogus"}}),
            ("component-softmatch-x", {"lookup": {"kind": "bogus"}}),
        ),
    )
    def test_component_probes_read_the_whole_config(self, workdir, capsys, theorem, config):
        (workdir / "bad.json").write_text(json.dumps(config))
        code, env, err = run(
            capsys, "probe", "--theorem", theorem, "--trials", "3",
            "--config", str(workdir / "bad.json"),
        )
        assert (code, env) == (2, None)
        assert err == f"config error: unknown {next(iter(config))} kind 'bogus'\n"

    # out-of-range probe sampling parameters and solver tolerances: numpy
    # overflowed on a radius whose width 2r is not finite, a NaN sigma was
    # blamed on the point coordinates, and a NaN or infinite tol ran as if
    # it were a tolerance
    PROBE = ("probe", "--theorem", "unbounded-gaussian", "--trials", "3")
    JITTER = (*PROBE, "--perturbation", "jitter", "--jitter-sigma")
    BAD_VALUES = {
        "radius_inf": ((*PROBE, "--radius", "inf"), "sampling radius"),
        "radius_nan": ((*PROBE, "--radius", "nan"), "sampling radius"),
        "radius_1e308": ((*PROBE, "--radius", "1e308"), "sampling radius"),
        "radius_negative": ((*PROBE, "--radius", "-5"), "sampling radius"),
        "radius_zero": ((*PROBE, "--radius", "0"), "sampling radius"),
        "jitter_sigma_nan": ((*JITTER, "nan"), "jitter sigma"),
        "jitter_sigma_inf": ((*JITTER, "inf"), "jitter sigma"),
        "jitter_sigma_negative": ((*JITTER, "-0.1"), "jitter sigma"),
        "deq_tol_nan": (("deq", "x.csv", "--config", "cfg.json", "--tol", "nan"), "tol"),
        "deq_tol_inf": (("deq", "x.csv", "--config", "cfg.json", "--tol", "inf"), "tol"),
        "invert_tol_nan": (("invert", "x.csv", "--config", "cfg.json", "--tol", "nan"), "tol"),
        "invert_tol_inf": (("invert", "x.csv", "--config", "cfg.json", "--tol", "inf"), "tol"),
    }

    @pytest.mark.parametrize("case", BAD_VALUES)
    def test_out_of_range_values_are_usage_errors(self, workdir, capsys, monkeypatch, case):
        monkeypatch.chdir(workdir)
        argv, name = self.BAD_VALUES[case]
        code, env, err = run(capsys, *argv)
        assert code == 2
        assert env is None
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"input error: InvalidInput: {name} must be ")

    def test_ffn_dim_mismatch_is_usage_error(self, workdir, capsys):
        (workdir / "ffn3.json").write_text(
            json.dumps(
                {
                    "heads": [
                        {"potential": {"kind": "gaussian", "dim": 2}, "W_O": np.eye(2).tolist()}
                    ],
                    "ffn": {"layers": [{"W": np.eye(3).tolist()}]},
                }
            )
        )
        code, env, err = run(
            capsys, "dynamics", str(workdir / "x.csv"),
            "--config", str(workdir / "ffn3.json"), "--steps", "1",
        )
        assert code == 2
        assert env is None
        assert err.strip() == "input error: DimMismatch: FFN dim 3 vs attention dim 2"

    @pytest.mark.parametrize("d", (1, 2))
    def test_w1_on_weights_with_unequal_float_totals_passes(self, workdir, capsys, d):
        # 0.7 + 0.3 and 0.4 + 0.3 + 0.3 are different sums of floats; W1
        # normalizes each side exactly, so the gap is 0 however far apart
        # the points lie
        zero, far = [0.0] * d, [1e8] + [0.0] * (d - 1)
        (workdir / "p.json").write_text(
            json.dumps({"dim": d, "points": [zero, far], "weights": [0.7, 0.3]})
        )
        (workdir / "q.json").write_text(
            json.dumps({"dim": d, "points": [zero, zero, far], "weights": [0.4, 0.3, 0.3]})
        )
        code, env, _ = run(capsys, "w1", str(workdir / "p.json"), str(workdir / "q.json"))
        assert code == 0
        assert env["report"]["dual_gap"] == 0.0

    @pytest.mark.parametrize("argv", (["-h"], ["w1", "--help"], ["--version"]))
    def test_help_and_version_keep_their_output(self, argv):
        code, out, err = _cli(argv)
        assert (code, err) == (0, "")
        if argv == ["--version"]:
            assert out == softmatch.__version__ + "\n"
        else:
            assert out.startswith("usage: softmatch") and "options:" in out

    # flag values argparse cannot parse, a flag that no longer exists, an
    # unknown choice and no subcommand: one stderr line, no usage block
    UNPARSABLE_FLAGS = {
        "method_flag_gone": ("w1", "a.csv", "b.csv", "--method", "flow"),
        "q_not_numeric": (
            "bound", "--theorem", "cross-attention", "--config", "cfg.json",
            "--box-radius", "1", "--d", "2", "--q", "abc",
        ),
        "dims_not_integers": ("equiv", "--dims", "1,x"),
        "tol_not_a_number": ("deq", "x.csv", "--tol", "abc"),
        "unknown_theorem": ("probe", "--theorem", "bogus"),
        "no_subcommand": (),
    }

    @pytest.mark.parametrize("case", UNPARSABLE_FLAGS)
    def test_unparsable_flags_are_usage_errors(self, workdir, capsys, monkeypatch, case):
        monkeypatch.chdir(workdir)
        with pytest.raises(SystemExit) as exit_info:
            main(list(self.UNPARSABLE_FLAGS[case]))
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert ": error: " in line


class TestSeed:
    # one cheap run of every subcommand; each takes --seed, and the
    # envelope records it for a replay
    RUNS = {
        "equiv": ("equiv", "--trials", "2"),
        "w1": ("w1", "a.csv", "b.csv"),
        "bound": ("bound", "--theorem", "unbounded-gaussian", "--d", "2"),
        "probe": (
            "probe", "--theorem", "component-projection", "--trials", "2", "--d", "1",
            "--box-radius", "1",
        ),
        "dynamics": ("dynamics", "x.csv", "--config", "cfg.json", "--steps", "1"),
        "deq": ("deq", "x.csv", "--config", "cfg.json"),
        "invert": ("invert", "x.csv", "--config", "cfg.json"),
        "lemmas": ("lemmas", "--product", "--trials", "2"),
    }

    @pytest.mark.parametrize("command", RUNS)
    def test_negative_seed_exits_2_with_one_line(self, workdir, capsys, monkeypatch, command):
        monkeypatch.chdir(workdir)
        code, env, err = run(capsys, *self.RUNS[command], "--seed", "0")
        assert code in (0, 1) and env["seed"] == 0
        code, env, err = run(capsys, *self.RUNS[command], "--seed", "-1")
        assert code == 2
        assert env is None
        assert err.strip() == "input error: InvalidInput: seed must be >= 0, got -1"

    def test_streams_reject_negative_seeds(self):
        with pytest.raises(InvalidInput):
            stream(-1, 0)
        assert stream(0, 1).random() == stream(np.int64(0), 1).random()


class TestLogLevel:
    @pytest.mark.parametrize("name", ("debug", "Info", "WARNING", "error"))
    def test_level_names_in_any_case(self, workdir, capsys, monkeypatch, name):
        monkeypatch.setenv("SOFTMATCH_LOG_LEVEL", name)
        code, env, _ = run(capsys, "w1", str(workdir / "a.csv"), str(workdir / "b.csv"))
        assert code == 0
        assert env["report"]["value"] == 5.0

    @pytest.mark.parametrize("name", ("verbose", "", "10"))
    def test_unknown_or_empty_level_is_usage_error(self, workdir, capsys, monkeypatch, name):
        monkeypatch.setenv("SOFTMATCH_LOG_LEVEL", name)
        code, env, err = run(capsys, "w1", str(workdir / "a.csv"), str(workdir / "b.csv"))
        assert code == 2
        assert env is None
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: SOFTMATCH_LOG_LEVEL=")

    def test_lower_case_debug_logs_events(self, workdir):
        proc = run_child(workdir, "w1", "a.csv", "b.csv", log_level="debug")
        assert proc.returncode == 0
        assert "DEBUG:softmatch:w1 " in proc.stderr


class TestUnwritableOutputs:
    # each output flag with a subcommand that writes it
    WRITERS = {
        "out": ("w1", "a.csv", "b.csv", "--out"),
        "ratios_csv": (
            "probe", "--theorem", "component-projection", "--trials", "5", "--d", "1",
            "--box-radius", "2", "--ratios-csv",
        ),
        "states_out": ("dynamics", "x.csv", "--config", "cfg.json", "--steps", "1", "--states-out"),
    }

    @pytest.mark.parametrize("target", ("directory", "missing_directory"))
    @pytest.mark.parametrize("flag", WRITERS)
    def test_exit_2_with_one_line(self, workdir, capsys, monkeypatch, flag, target):
        monkeypatch.chdir(workdir)
        (workdir / "sub").mkdir()
        path = {"directory": "sub", "missing_directory": "nope/report.txt"}[target]
        code, env, err = run(capsys, *self.WRITERS[flag], path)
        assert code == 2
        assert env is None
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"cannot write {path}: ")
        assert not (workdir / "nope").exists()


class TestEnvelope:
    def test_replay_fields_present(self, workdir, capsys):
        code, env, _ = run(capsys, "equiv", "--trials", "5", "--seed", "42")
        assert env["seed"] == 42
        assert env["version"]
        assert len(env["config_hash"]) == 16

    def test_out_file(self, workdir, capsys):
        out = workdir / "report.json"
        code, env, _ = run(
            capsys, "w1", str(workdir / "a.csv"), str(workdir / "b.csv"),
            "--out", str(out),
        )
        assert code == 0
        assert env is None  # stdout empty when --out is used
        assert json.loads(out.read_text())["report"]["value"] == 5.0

    def test_unknown_config_fields_exit_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text('{"potential": {"kind": "gaussian", "bogus": 1}}')
        code, _, err = run(
            capsys, "bound", "--theorem", "bounded",
            "--config", str(bad), "--box-radius", "1", "--d", "2",
        )
        assert code == 2
        assert "unknown fields" in err

    def test_human_summary_on_stderr(self, workdir, capsys):
        _, _, err = run(capsys, "w1", str(workdir / "a.csv"), str(workdir / "b.csv"))
        assert "softmatch w1: pass" in err
