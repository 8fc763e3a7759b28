"""CLI contract: subcommands, exit codes, report envelopes, replay fields."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import softmatch
from softmatch import probes
from softmatch.cli import main
from softmatch.errors import InvalidInput
from softmatch.measures import PointCloud, save_point_cloud_csv
from softmatch.streams import stream


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
        assert env["report"]["plan"] == [[1.0]]

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


def test_overflowing_costs_print_one_line(tmp_path):
    # finite coordinates whose l1 distance overflows: exit 2 with the
    # one-line message, and no numpy warning ahead of it
    (tmp_path / "a.csv").write_text("1e308,0\n")
    (tmp_path / "b.csv").write_text("-1e308,0\n")
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
            ("--ratio", "check_ratio_lemma", {"grid": 1}),
            ("--product", "check_product_lemma", {"size_range": (3, 2)}),
            ("--local-lip", "check_local_lip_lemma", {"n_samples": 1}),
        ],
        ids=["ratio-restarts0", "ratio-grid1", "product-range", "local_lip-samples1"],
    )
    def test_rejected_arguments_exit_2(self, workdir, capsys, monkeypatch, flag, check, kw):
        # the flags do not reach these arguments; a library caller's
        # InvalidInput takes the same exit-2 path
        monkeypatch.setattr(probes, check, functools.partial(getattr(probes, check), **kw))
        code, env, err = run(capsys, "lemmas", flag, "--nmax", "10", "--trials", "5")
        assert code == 2
        assert env is None
        assert err.startswith("input error: InvalidInput: ")


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

    @pytest.mark.parametrize(
        "case",
        (
            "dim_mismatch", "nan_csv", "zero_trials", "q_wrong_dim", "dims_zero",
            "n_max_zero", "product_trials_zero", "equiv_trials_zero", "deq_max_iter_zero",
            "invert_max_iter_zero", *BAD_FILES,
        ),
    )
    def test_library_errors_are_usage_errors(self, workdir, capsys, case):
        (workdir / "one_d.csv").write_text("1.0\n2.0\n")
        (workdir / "nan.csv").write_text("1.0,2.0\nnan,0.0\n")
        (workdir / "gauss.json").write_text('{"potential": {"kind": "gaussian", "dim": 2}}')
        if case in self.BAD_FILES:
            name, text = self.BAD_FILES[case]
            (workdir / name).write_text(text)
            argv = ("w1", str(workdir / name), str(workdir / "b.csv"))
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
            }[case]
        code, env, err = run(capsys, *argv)
        assert code == 2
        assert env is None
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("input error: ")

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

    # flag values argparse cannot parse, and a flag that no longer exists
    UNPARSABLE_FLAGS = {
        "method_flag_gone": ("w1", "a.csv", "b.csv", "--method", "flow"),
        "q_not_numeric": (
            "bound", "--theorem", "cross-attention", "--config", "cfg.json",
            "--box-radius", "1", "--d", "2", "--q", "abc",
        ),
        "dims_not_integers": ("equiv", "--dims", "1,x"),
    }

    @pytest.mark.parametrize("case", UNPARSABLE_FLAGS)
    def test_unparsable_flags_are_usage_errors(self, workdir, capsys, monkeypatch, case):
        monkeypatch.chdir(workdir)
        with pytest.raises(SystemExit) as exit_info:
            main(list(self.UNPARSABLE_FLAGS[case]))
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert ": error: " in captured.err.strip().splitlines()[-1]


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
