import argparse
import errno
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fewcast
from fewcast.cli import REQUIRED, build_parser, main
from fewcast.data import DEFAULT_WINDOW, MAX_GENERATED_VALUES, csv_text, TimeSeries
from fewcast.learners import NumericError
from fewcast.search import MAX_GRID_RESOLUTION


FAST = ["--meta-iterations", "5"]
# The lower bound of each integer flag that the CLI checks itself, which fixes the message a value below it gets
FLAG_MINIMUMS = {"--tasks": 0, "--budget": 1, "--window": 1, "--horizon": 1, "--train-steps": 1}


def run(*argv):
    return main([str(a) for a in argv])


SUBCOMMANDS = ("generate", "search", "train", "predict", "compare")


def strict_json(path):
    """The JSON document at ``path``, parsed strictly: ``Infinity``, ``-Infinity`` or ``NaN`` raises."""
    def reject(constant):
        raise ValueError(f"{path}: non-standard JSON constant {constant}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def command_options(command):
    """The dests of a command's own options: what its manifest records beside command, argv and artifact_version."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest for action in subparsers.choices[command]._actions if action.dest != "help"}


def run_child(*argv):
    """The CLI in a child process, so that its stderr holds any warning or traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(fewcast.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "fewcast", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert run("generate", "--kind", "synthetic", "--seed", 11, "--out", out) == 0
    return out


class TestGenerate:
    def test_default_writes_five_csvs_and_manifest(self, tmp_path):
        out = tmp_path / "gen"
        assert run("generate", "--seed", 3, "--out", out) == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs == ["target.csv", "train_00.csv", "train_01.csv", "train_02.csv", "train_03.csv"]
        assert (out / "manifest.json").exists()

    def test_kind_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "pv"
        assert run("generate", "--kind", "pv", "--seed", 3, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "pv"
        assert manifest["argv"][:3] == ["generate", "--kind", "pv"]

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("generate", "--seed", 9, "--out", out) == 0
        for name in ("target.csv", "train_00.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_seed_is_usage_error(self, tmp_path):
        assert run("generate", "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize("tasks, hours", [(4, 10**12), (10**7, 2), (1, MAX_GENERATED_VALUES // 2 + 1)])
    def test_oversized_bundle_rejected_before_it_is_drawn(self, tmp_path, monkeypatch, capsys, tasks, hours):
        def undrawn(*path):
            raise AssertionError("a series was drawn before the bundle size was checked")

        monkeypatch.setattr(fewcast.data, "spawn", undrawn)
        assert run("generate", "--tasks", tasks, "--hours", hours, "--seed", 1, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1 and "values" in err
        assert not (tmp_path / "x").exists()


class TestSearch:
    def test_budget_one_trajectory(self, data_dir, tmp_path):
        out = tmp_path / "s1"
        assert run("search", "--data", data_dir, "--family", "linear", "--budget", 1,
                   "--seed", 5, "--out", out, *FAST) == 0
        lines = (out / "seed_5" / "trajectory.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["iteration"] == 0
        assert "wall_time_ms" not in record  # timing lives in timings.json
        assert (out / "seed_5" / "plot.csv").read_text().splitlines()[0] == "iteration,best_so_far_mse"
        assert (out / "scores.csv").exists()

    def test_missing_seed_is_usage_error(self, data_dir, tmp_path):
        assert run("search", "--data", data_dir, "--family", "linear", "--out", tmp_path / "x") == 2

    def test_zero_exit_despite_failed_evaluations(self, data_dir, tmp_path):
        # resolution 2 puts half the grid at lr = 0.5, where enough meta
        # iterations compound into a numeric blow-up
        out = tmp_path / "s2"
        assert run("search", "--data", data_dir, "--family", "linear", "--budget", 12,
                   "--seed", 1, "--out", out, "--grid-resolution", 2) == 0
        records = [json.loads(l) for l in (out / "seed_1" / "trajectory.jsonl").read_text().splitlines()]
        assert any(r["status"] == "failed" for r in records)

    def test_all_failed_search_scores_inf(self, data_dir, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise NumericError("diverged")

        monkeypatch.setattr(fewcast.meta, "train_pipeline", diverge)
        out = tmp_path / "failed"
        assert run("search", "--data", data_dir, "--family", "linear", "--budget", 2,
                   "--seed", 3, 4, "--out", out, *FAST) == 0
        assert (out / "scores.csv").read_text() == "seed,test_mse\n3,inf\n4,inf\n"
        summary = json.loads((out / "seed_3" / "summary.json").read_text())
        assert summary["best_config"] is None and summary["failed_evaluations"] == 2

    def test_rerun_into_the_same_out_repeats_every_file_but_the_timings(self, data_dir, tmp_path):
        out, written = tmp_path / "twice", []
        for _ in range(2):
            assert run("search", "--data", data_dir, "--family", "linear", "--budget", 3,
                       "--seed", 1, 2, "--out", out, *FAST) == 0
            written.append({p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        first, second = ({name: content for name, content in files.items() if not name.endswith("timings.json")}
                         for files in written)
        assert sorted(first) == sorted(second) and len(first) == 8  # scores, manifest, and 3 files per seed
        assert [name for name in first if first[name] != second[name]] == []
        # wall-clock time lives in timings.json alone
        assert json.loads(written[1]["seed_1/timings.json"]).keys() == {"per_iteration_ms", "total_ms"}
        assert json.loads(first["seed_1/summary.json"]).keys() == {
            "seed", "budget", "best_config", "best_test_mse", "best_val_mse", "failed_evaluations"}

    def test_linear_budget_50_within_time_budget(self, data_dir, tmp_path):
        # measured well under a minute on commodity hardware; enforced at 3x
        import time

        out = tmp_path / "s50"
        start = time.perf_counter()
        assert run("search", "--data", data_dir, "--family", "linear", "--budget", 50,
                   "--seed", 3, "--out", out) == 0
        assert time.perf_counter() - start < 180.0
        assert len((out / "seed_3" / "trajectory.jsonl").read_text().splitlines()) == 50

    def test_bad_budget_usage_error(self, data_dir, tmp_path):
        assert run("search", "--data", data_dir, "--family", "linear", "--budget", 0,
                   "--seed", 1, "--out", tmp_path / "x") == 2

    def test_missing_data_dir(self, tmp_path):
        assert run("search", "--data", tmp_path / "nope", "--family", "linear",
                   "--seed", 1, "--out", tmp_path / "x") == 3


@pytest.mark.parametrize(
    "command, flags",
    [
        ("search", ["--shots", 0]),
        ("search", ["--meta-iterations", -1]),
        ("search", ["--kappa", 1.5]),
        ("search", ["--grid-resolution", 1]),
        ("search", ["--c-uct", 0]),
        ("search", ["--c-uct", "inf"]),
        ("search", ["--c-uct", "nan"]),
        ("search", ["--grid-resolution", MAX_GRID_RESOLUTION + 1]),
        ("train", ["--shots", 0]),
        ("train", ["--finetune-steps", 0]),
        ("train", ["--vanilla", "--train-steps", 0]),
        ("train", ["--vanilla", "--train-steps", -5]),
        ("train", ["--seed", 1, 1]),
        ("search", ["--seed", 2, 3, 2]),
        ("train", ["--train-steps", 5, "--meta-iterations", 1]),
        ("train", ["--width", 512]),
        ("train", ["--vanilla", "--width", 128]),
        ("generate", ["--tasks", -1]),
        ("search", ["--budget", 0]),
        ("search", ["--window", 0]),
        ("predict", ["--horizon", 0]),
        ("train", ["--train-steps", 0]),  # without --vanilla as well: the bound is reported first
    ],
)
def test_invalid_setting_is_usage_error_before_any_work(command, flags, data_dir, tmp_path, capsys):
    out = tmp_path / "x"
    argv = {"generate": ["--seed", 1], "predict": ["--checkpoint", tmp_path / "none.params", "--data", data_dir]}.get(
        command, ["--data", data_dir, "--family", "linear", "--seed", 1])
    assert run(command, *argv, "--out", out, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    if flags[-2] in FLAG_MINIMUMS:
        assert err == f"usage error: {flags[-2]} must be >= {FLAG_MINIMUMS[flags[-2]]}, got {flags[-1]}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--window=--", "--inner-lr=--", "--optimizer=--", "--out=--", "--config=--"])
def test_double_dash_value_is_usage_error(flag, data_dir, tmp_path, capsys):
    # Python 3.11's argparse reads "--flag=--" as an empty list instead of refusing it, and the list reached
    # the commands: a TypeError traceback for "--window=--"
    out = tmp_path / "x"
    assert run("train", "--data", data_dir, "--family", "linear", "--seed", 1, "--out", out, flag) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, missing", [(command, name) for command in SUBCOMMANDS for name in REQUIRED
                                              if name in command_options(command)])
def test_missing_required_option_prints_one_line_and_writes_nothing(command, missing, data_dir, checkpoint,
                                                                     tmp_path, monkeypatch, capsys):
    # each is checked once --config is merged, so a config may supply it; left out everywhere, it is one line
    monkeypatch.chdir(tmp_path)
    given = {"data": ["--data", data_dir], "family": ["--family", "linear"], "checkpoint": ["--checkpoint", checkpoint],
             "seed": ["--seed", 1], "results": [data_dir, data_dir], "out": ["--out", "out"]}
    assert run(command, *[token for name in REQUIRED if name in command_options(command) and name != missing
                          for token in given[name]]) == 2
    named = "the result directories are" if missing == "results" else f"--{missing} is"
    assert capsys.readouterr().err == f"usage error: {named} required (on the command line or in --config)\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [[], ["search", "--bogus"], ["search", "--budget", "many"], ["train", "--family", "cnn"],
                                  ["search", "--seed"], ["generate", "--seed", "1", "extra"]])
def test_argparse_error_prints_one_usage_line_and_writes_nothing(argv, tmp_path, monkeypatch, capsys):
    # argparse's own errors take the one-line path of every other usage error; no subcommand is one of them
    monkeypatch.chdir(tmp_path)
    assert run(*argv, *(["--out", "out"] if argv else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    if argv[-1:] == ["many"]:
        assert err == "usage error: argument --budget: invalid int value: 'many'\n"
    assert not any(tmp_path.iterdir())


def test_config_value_argparse_refuses_is_one_usage_line(data_dir, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"optimizer": [True, 1]}))
    out = tmp_path / "out"
    assert run("train", "--data", data_dir, "--family", "linear", "--seed", 1, "--config", config, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


def test_help_still_prints_usage_and_exits_zero(capsys):
    assert run("--help") == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: fewcast") and captured.err == ""


@pytest.fixture(scope="module")
def short_target_dir(data_dir, tmp_path_factory):
    """The generated training tasks with a 19-value target: too short for 24 lags."""
    out = tmp_path_factory.mktemp("short")
    for path in data_dir.glob("train_*.csv"):
        (out / path.name).write_bytes(path.read_bytes())
    (out / "target.csv").write_text(
        csv_text([TimeSeries(task_id="short-target", values=np.linspace(0.0, 1.0, 19))]))
    return out


@pytest.mark.parametrize(
    "argv, data, code",
    [
        (["search", "--family", "linear", "--budget", 1, "--seed", 1, "--window", 0], "data_dir", 2),
        (["search", "--family", "linear", "--budget", 1, "--seed", 1, "--window", 500], "data_dir", 3),
        (["train", "--family", "linear", "--seed", 1], "short_target_dir", 3),
        (["predict", "--horizon", 0], "data_dir", 2),
        (["predict", "--horizon", 100000], "data_dir", 3),
    ],
)
def test_window_and_horizon_probes_exit_with_one_line(argv, data, code, request, checkpoint, tmp_path, capsys):
    if argv[0] == "predict":
        argv = [*argv, "--checkpoint", checkpoint]
    assert run(*argv, "--data", request.getfixturevalue(data), "--out", tmp_path / "x") == code
    err = capsys.readouterr().err
    assert err.startswith({2: "usage error: ", 3: "data error: "}[code]) and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [["train", "--family", "linear"], ["train", "--family", "mlp", "--width", 128],
                                  ["search", "--family", "linear", "--budget", 2]])
def test_training_series_of_window_plus_two_values_trains(argv, data_dir, tmp_path):
    # its 2 windows split 1/1: round(0.8 * 2) = 2 support windows would leave the query pool empty
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    rows = (data / "train_01.csv").read_text().splitlines()
    (data / "train_01.csv").write_text("\n".join(rows[: 1 + DEFAULT_WINDOW + 2]) + "\n")
    assert run(*argv, "--data", data, "--seed", 1, *FAST, "--out", tmp_path / "x") == 0


class TestTrain:
    def test_fixed_defaults_accepted_verbatim(self, data_dir, tmp_path):
        # width 512, rates 0.01 / 0.001 / 0.05, sgd
        out = tmp_path / "t1"
        assert run("train", "--data", data_dir, "--family", "mlp", "--width", 512,
                   "--inner-lr", 0.01, "--outer-lr", 0.001, "--finetune-lr", 0.05,
                   "--optimizer", "sgd", "--seed", 7, "--out", out, *FAST) == 0
        result = json.loads((out / "seed_7" / "result.json").read_text())
        assert result["config"]["inner_lr"] == 0.01
        assert result["config"]["outer_lr"] == 0.001
        assert result["config"]["finetune_lr"] == 0.05
        assert (out / "seed_7" / "model.params").exists()
        assert (out / "seed_7" / "meta_init.params").exists()

    def test_overflowed_meta_loss_is_recorded_as_null(self, data_dir, tmp_path):
        # inner steps at rate 0.5 blow the query residuals up past 1e154, where r @ r overflows while the
        # gradient and every parameter stay finite: the run succeeds and its curve holds null, not Infinity
        out = tmp_path / "overflow"
        assert run("train", "--data", data_dir, "--family", "linear", "--optimizer", "adam", "--inner-lr", 0.5,
                   "--outer-lr", 0.001, "--finetune-lr", 0.0001, "--inner-steps", 90, "--seed", 1,
                   "--out", out) == 0
        result = strict_json(out / "seed_1" / "result.json")
        assert math.isfinite(result["test_mse"]) and math.isfinite(result["val_mse"])
        assert None in [loss for _, loss in result["train_curve"]]

    def test_out_of_range_rate_usage_error(self, data_dir, tmp_path):
        assert run("train", "--data", data_dir, "--family", "mlp", "--inner-lr", 0.7,
                   "--seed", 1, "--out", tmp_path / "x") == 2

    def test_out_of_range_width_usage_error(self, data_dir, tmp_path):
        assert run("train", "--data", data_dir, "--family", "mlp", "--width", 64,
                   "--seed", 1, "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize("family", ["mlp", "recurrent"])
    def test_width_defaults_to_512(self, family, data_dir, tmp_path):
        out = tmp_path / family
        assert run("train", "--data", data_dir, "--family", family, "--seed", 1, "--out", out,
                   "--meta-iterations", 1) == 0
        assert json.loads((out / "seed_1" / "result.json").read_text())["config"]["width"] == 512

    def test_width_with_linear_usage_error(self, data_dir, tmp_path, capsys):
        # the linear family has no hidden layer, so a width would be silently unused
        assert run("train", "--data", data_dir, "--family", "linear", "--width", 256,
                   "--seed", 1, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == "usage error: --width applies only to the mlp and recurrent families\n"

    def test_vanilla_ignores_train_tasks(self, tmp_path):
        data = tmp_path / "only_target"
        data.mkdir()
        rng = np.random.default_rng(0)
        target = TimeSeries(task_id="solo-target", values=rng.uniform(size=60))
        (data / "target.csv").write_text(csv_text([target]))
        out = tmp_path / "vanilla"
        assert run("train", "--data", data, "--family", "linear", "--vanilla",
                   "--finetune-lr", 0.01, "--window", 12, "--seed", 2, "--out", out, *FAST) == 0
        result = json.loads((out / "seed_2" / "result.json").read_text())
        assert result["vanilla"] is True
        assert not (out / "seed_2" / "meta_init.params").exists()

    def test_vanilla_train_steps_default_and_explicit(self, data_dir, tmp_path):
        steps = {}
        for name, extra in (("default", []), ("explicit", ["--train-steps", 3])):
            out = tmp_path / name
            assert run("train", "--data", data_dir, "--family", "linear", "--vanilla", "--finetune-lr", 0.01,
                       "--seed", 2, "--out", out, *FAST, *extra) == 0
            steps[name] = json.loads((out / "seed_2" / "result.json").read_text())["train_steps"]
        assert steps == {"default": 5 * (4 + 1) + 1, "explicit": 3}  # default: the meta run's step count

    def test_diverging_vanilla_run_prints_one_line(self, data_dir, tmp_path):
        # sgd at the default rates diverges at width 512: exit 4 with no numpy
        # warnings. A child process, because pytest would capture the warnings.
        proc = run_child("train", "--data", data_dir, "--family", "mlp", "--width", 512,
                         "--vanilla", "--seed", 1, "--out", tmp_path / "v")
        assert proc.returncode == 4
        assert proc.stderr.startswith("numeric failure: ") and proc.stderr.count("\n") == 1

    def test_same_seed_identical_checkpoints(self, data_dir, tmp_path):
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            assert run("train", "--data", data_dir, "--family", "linear",
                       "--inner-lr", 0.001, "--outer-lr", 0.001, "--finetune-lr", 0.003,
                       "--seed", 4, "--out", out, *FAST) == 0
            outs.append((out / "seed_4" / "model.params").read_bytes())
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def checkpoint(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    assert run("train", "--data", data_dir, "--family", "linear",
               "--inner-lr", 0.001, "--outer-lr", 0.001, "--finetune-lr", 0.003,
               "--seed", 6, "--out", out, *FAST) == 0
    return out / "seed_6"


class TestPredict:
    def test_row_count_default_24(self, checkpoint, data_dir, tmp_path):
        out = tmp_path / "p1"
        assert run("predict", "--checkpoint", checkpoint, "--data", data_dir, "--out", out) == 0
        lines = (out / "forecast.csv").read_text().splitlines()
        assert lines[0] == "step,y_true,y_pred"
        assert len(lines) == 1 + 24

    def test_outputs_denormalized(self, checkpoint, data_dir, tmp_path):
        from fewcast.data import load_csv

        out = tmp_path / "p2"
        assert run("predict", "--checkpoint", checkpoint, "--data", data_dir, "--out", out) == 0
        target = load_csv(data_dir / "target.csv")[0]
        rows = (out / "forecast.csv").read_text().splitlines()[1:]
        y_true = [float(r.split(",")[1]) for r in rows]
        assert y_true == target.values[-24:].tolist()  # the target's own values, not a scaling round trip

    @pytest.mark.parametrize("target_norm", ["trained", []], ids=["checkpoint-scaler", "no-checkpoint-scaler"])
    def test_other_target_uses_one_scaler(self, tmp_path, target_norm):
        # A checkpoint trained on one bundle, applied to another kind's target: the inputs are normalized and
        # the forecast de-normalized by the same (lo, hi), the checkpoint's or else the target's own min/max.
        from fewcast.data import denormalize, load_csv, make_windows, normalize
        from fewcast.learners import dump_params, forward, load_params

        assert run("generate", "--seed", 1, "--hours", 60, "--out", tmp_path / "small") == 0
        assert run("generate", "--kind", "load", "--seed", 5, "--out", tmp_path / "load") == 0
        assert run("train", "--data", tmp_path / "small", "--family", "linear", "--seed", 1,
                   "--out", tmp_path / "train", *FAST) == 0
        spec, theta, trained = load_params(tmp_path / "train" / "seed_1" / "model.params")
        scaler = trained if target_norm == "trained" else None
        (tmp_path / "model.params").write_bytes(dump_params(spec, theta, scaler))
        assert run("predict", "--checkpoint", tmp_path / "model.params", "--data", tmp_path / "load",
                   "--out", tmp_path / "pred") == 0
        rows = [r.split(",") for r in (tmp_path / "pred" / "forecast.csv").read_text().splitlines()[1:]]
        target = load_csv(tmp_path / "load" / "target.csv")[0]
        assert [float(r[1]) for r in rows] == target.values[-24:].tolist()
        scaled = normalize(target, scaler)
        assert scaled.norm == (scaler or (target.values.min(), target.values.max()))
        expected = denormalize(forward(spec, theta, make_windows(scaled, 24).X[-24:]), scaled.norm)
        assert [float(r[2]) for r in rows] == expected.tolist()

    def test_training_files_are_not_read(self, checkpoint, data_dir, tmp_path):
        copy = tmp_path / "header-only-train"
        shutil.copytree(data_dir, copy)
        (copy / "train_00.csv").write_text("task_id,timestamp,value\n")
        for data, out in ((data_dir, tmp_path / "intact"), (copy, tmp_path / "copy")):
            assert run("predict", "--checkpoint", checkpoint, "--data", data, "--out", out) == 0
        assert (tmp_path / "copy" / "forecast.csv").read_bytes() == (tmp_path / "intact" / "forecast.csv").read_bytes()

    def test_recursive_mode_runs(self, checkpoint, data_dir, tmp_path):
        out = tmp_path / "p3"
        assert run("predict", "--checkpoint", checkpoint, "--data", data_dir, "--out", out,
                   "--recursive") == 0
        assert len((out / "forecast.csv").read_text().splitlines()) == 25

    def test_horizon_may_take_every_window_after_the_first(self, checkpoint, data_dir, tmp_path):
        # 168 hours give 144 windows of 24 lags; the test slice may hold all but the first
        out = tmp_path / "p4"
        assert run("predict", "--checkpoint", checkpoint, "--data", data_dir, "--out", out, "--horizon", 143) == 0
        assert len((out / "forecast.csv").read_text().splitlines()) == 1 + 143
        assert run("predict", "--checkpoint", checkpoint, "--data", data_dir, "--out", tmp_path / "x",
                   "--horizon", 144) == 3
        assert not (tmp_path / "x").exists()

    def test_constant_zero_target_forecast_zero(self, tmp_path):
        data = tmp_path / "zero"
        data.mkdir()
        target = TimeSeries(task_id="flat-target", values=np.zeros(40))
        (data / "target.csv").write_text(csv_text([target]))
        train_out = tmp_path / "zero_train"
        assert run("train", "--data", data, "--family", "linear", "--vanilla",
                   "--finetune-lr", 0.01, "--window", 8, "--seed", 1, "--out", train_out, *FAST) == 0
        out = tmp_path / "zero_pred"
        assert run("predict", "--checkpoint", train_out / "seed_1", "--data", data, "--out", out) == 0
        rows = (out / "forecast.csv").read_text().splitlines()[1:]
        preds = [float(r.split(",")[2]) for r in rows]
        assert np.allclose(preds, 0.0, atol=1e-9)

    def test_corrupt_checkpoint_version_error(self, data_dir, tmp_path):
        bad = tmp_path / "bad.params"
        bad.write_bytes(b'{"format_version": 99}\n')
        assert run("predict", "--checkpoint", bad, "--data", data_dir, "--out", tmp_path / "x") == 3


def _on_file(name, content, command):
    """``command(directory, checkpoint)`` after writing ``content`` to ``name`` in a fresh directory."""
    def argv(tmp, data, ckpt):
        d = tmp / "probe"
        d.mkdir()
        (d / name).write_bytes(content)
        return command(d, ckpt)
    return argv


def _compare_scores(body):
    return _on_file("scores.csv", ("seed,test_mse\n" + body).encode(), lambda d, ckpt: ["compare", d, d])


def _training_task_named_like_the_target(tmp, data, ckpt):
    copy = tmp / "renamed"
    shutil.copytree(data, copy)
    train = copy / "train_00.csv"
    train.write_text(train.read_text().replace("synthetic-00", "synthetic-target"))
    return ["search", "--data", copy, "--family", "linear", "--budget", 2, "--seed", 1]


def _set_extra(key, value):
    return lambda header, payload: ({**header, "extra": {**header["extra"], key: value}}, payload)


def _predict_edited_checkpoint(edit, *flags):
    """predict from a copy of the trained checkpoint, its (header, payload) rewritten by ``edit``."""
    def argv(tmp, data, ckpt):
        header, payload = (ckpt / "model.params").read_bytes().split(b"\n", 1)
        header, payload = edit(json.loads(header), payload)
        path = tmp / "bad.params"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        return ["predict", "--checkpoint", path, "--data", data, *flags]
    return argv


def _set_params(index, value):
    def edit(header, payload):
        theta = np.frombuffer(payload, dtype="<f8").copy()
        theta[index] = value
        return header, theta.tobytes()
    return edit


def _drop(key):
    return lambda header, payload: ({k: v for k, v in header.items() if k != key}, payload)


@pytest.mark.parametrize(
    "make_argv, code",
    [
        pytest.param(lambda tmp, data, ckpt: ["generate", "--hours", 1, "--seed", 1], 2, id="generate-hours-1"),
        pytest.param(lambda tmp, data, ckpt: ["generate", "--tasks", -1, "--seed", 1], 2, id="generate-tasks-minus-1"),
        pytest.param(lambda tmp, data, ckpt: ["generate", "--hours", 10**12, "--seed", 1], 2, id="generate-hours-1e12"),
        # sgd at the CLI defaults diverges at width 512 on the second seed,
        # after the first has finished
        pytest.param(lambda tmp, data, ckpt: ["train", "--data", data, "--family", "mlp", "--width", 512,
                                              "--seed", 1, 4], 4, id="train-defaults-diverge"),
        pytest.param(lambda tmp, data, ckpt: ["train", "--data", data, "--family", "linear", "--vanilla",
                                              "--finetune-lr", 0.5, "--seed", 1], 4, id="vanilla-infinite-mse"),
        *[
            pytest.param(_compare_scores(body), 3, id=f"compare-{name}")
            for name, body in [
                ("non-number", "1,abc\n"),
                ("one-field", "1\n"),
                ("non-integer-seed", "1.5,0.2\n"),
                ("duplicate-seed", "1,0.2\n1,0.3\n"),
                ("inf", "1,inf\n2,inf\n"),
                ("nan", "1,0.2\n2,nan\n"),
                ("header-only", ""),
            ]
        ],
        pytest.param(_training_task_named_like_the_target, 3, id="training-task-named-like-the-target"),
        pytest.param(_predict_edited_checkpoint(lambda h, p: (h, p[:-3])), 3, id="checkpoint-ragged-payload"),
        pytest.param(_predict_edited_checkpoint(lambda h, p: ([h], p)), 3, id="checkpoint-header-not-object"),
        *[
            pytest.param(_predict_edited_checkpoint(_drop(key)), 3, id=f"checkpoint-without-{key}")
            for key in ("n_params", "family", "input_dim", "width")
        ],
        pytest.param(_predict_edited_checkpoint(lambda h, p: ({**h, "width": "x"}, p)), 3, id="checkpoint-width-x"),
        pytest.param(_predict_edited_checkpoint(_set_extra("target_norm", "ab")), 3, id="checkpoint-target-norm-ab"),
        pytest.param(_predict_edited_checkpoint(_set_extra("window", "24")), 3, id="checkpoint-window-string"),
        pytest.param(_predict_edited_checkpoint(_set_params(3, np.nan)), 3, id="checkpoint-nan-payload"),
        pytest.param(_predict_edited_checkpoint(_set_params(3, np.nan), "--recursive"), 3,
                     id="checkpoint-nan-payload-recursive"),
        # finite weights whose forecast overflows, before or after it is denormalized
        pytest.param(_predict_edited_checkpoint(_set_params(slice(0, 2), 1e308)), 4,
                     id="checkpoint-forecast-overflows"),
        pytest.param(_predict_edited_checkpoint(_set_params(slice(0, 2), 1e308), "--recursive"), 4,
                     id="checkpoint-forecast-overflows-recursive"),
        pytest.param(_predict_edited_checkpoint(_set_extra("target_norm", [-1e308, 1e308])), 4,
                     id="checkpoint-target-norm-span-overflows"),
        pytest.param(_on_file("bad.params", b"[" * 100_000 + b"\n" + bytes(8),
                              lambda d, ckpt: ["predict", "--checkpoint", d / "bad.params", "--data", d]),
                     3, id="checkpoint-deeply-nested-header"),
        pytest.param(_on_file("run.json", b"[" * 100_000, lambda d, ckpt: ["generate", "--config", d / "run.json"]),
                     2, id="config-deeply-nested"),
        # two finite values whose difference, the span normalize divides by, overflows
        pytest.param(_on_file("target.csv", b"task_id,timestamp,value\nt,0,-1e308\nt,1,1e308\n",
                              lambda d, ckpt: ["predict", "--checkpoint", ckpt, "--data", d]),
                     3, id="target-span-overflows"),
        # one 0xff byte, which is not UTF-8
        pytest.param(_on_file("target.csv", b"\xff\n", lambda d, ckpt: ["predict", "--checkpoint", ckpt, "--data", d]),
                     3, id="predict-undecodable-target"),
        pytest.param(_on_file("scores.csv", b"seed,test_mse\n1,0.5\xff\n", lambda d, ckpt: ["compare", d, d]),
                     3, id="compare-undecodable-scores"),
    ],
)
def test_failing_command_prints_one_line_and_writes_nothing(make_argv, code, data_dir, checkpoint, tmp_path):
    out = tmp_path / "out"
    proc = run_child(*make_argv(tmp_path, data_dir, checkpoint), "--out", out)
    assert proc.returncode == code, proc.stderr
    prefix = {2: "usage error: ", 3: "data error: ", 4: "numeric failure: "}[code]
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_failed_write_leaves_no_truncated_or_temporary_file(tmp_path, monkeypatch, capsys):
    reference = tmp_path / "reference"
    assert run("generate", "--seed", 3, "--tasks", 2, "--out", reference) == 0
    write_bytes, calls = Path.write_bytes, []

    def disk_full_on_second_file(path, content):
        calls.append(path)
        if len(calls) == 2:  # half the file reaches the disk, then it is full
            write_bytes(path, content[: len(content) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return write_bytes(path, content)

    monkeypatch.setattr(Path, "write_bytes", disk_full_on_second_file)
    out = tmp_path / "out"
    assert run("generate", "--seed", 3, "--tasks", 2, "--out", out) == 3
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert len(calls) == 2
    # the first file is whole, the second absent, and no temporary file is left
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        "train_00.csv": (reference / "train_00.csv").read_bytes()
    }


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the freed-memory setting is glibc's")
def test_vanilla_train_does_not_fault_in_its_temporaries_again(data_dir, tmp_path):
    # A full-batch width-1024 step frees (115, 1024) temporaries of 0.9 MB;
    # handed back to the kernel, they fault in again on every step (about
    # 225k minor page faults for this command). Kept in the process, they
    # do not. The count covers the whole child, Python start-up included.
    script = ("import resource, sys; from fewcast.cli import main; rc = main(sys.argv[1:]); "
              "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_minflt)")
    env = dict(os.environ, PYTHONPATH=str(Path(fewcast.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, "train", "--data", str(data_dir), "--vanilla", "--family", "mlp",
         "--width", "1024", "--optimizer", "adam", "--seed", "1", "--out", str(tmp_path / "v")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rc, faults = map(int, proc.stdout.split())
    assert rc == 0, proc.stderr
    assert faults < 50_000


def test_each_command_writes_its_files_and_strict_json(data_dir, tmp_path):
    per_search_seed = ["plot.csv", "summary.json", "timings.json", "trajectory.jsonl"]
    chain = [
        ("gen", ["generate", "--seed", 3, "--tasks", 2],
         ["manifest.json", "target.csv", "train_00.csv", "train_01.csv"]),
        ("search", ["search", "--data", data_dir, "--family", "linear", "--budget", 2, "--seed", 1, 2, *FAST],
         ["manifest.json", "scores.csv"] + [f"seed_{s}/{name}" for s in (1, 2) for name in per_search_seed]),
        ("train", ["train", "--data", data_dir, "--family", "linear", "--inner-lr", 0.001, "--outer-lr", 0.001,
                   "--finetune-lr", 0.003, "--seed", 1, 2, *FAST],
         ["manifest.json", "scores.csv"]
         + [f"seed_{s}/{name}" for s in (1, 2) for name in ("meta_init.params", "model.params", "result.json")]),
        ("vanilla", ["train", "--data", data_dir, "--family", "linear", "--vanilla", "--finetune-lr", 0.01,
                     "--seed", 1, 2, *FAST],
         ["manifest.json", "scores.csv", "seed_1/model.params", "seed_1/result.json",
          "seed_2/model.params", "seed_2/result.json"]),
        ("predict", ["predict", "--checkpoint", tmp_path / "train" / "seed_1", "--data", data_dir, "--recursive"],
         ["forecast.csv", "manifest.json"]),
        ("compare", ["compare", tmp_path / "search", tmp_path / "train", tmp_path / "vanilla"],
         ["manifest.json", "report.json"]),
    ]
    for name, argv, expected in chain:
        out = tmp_path / name
        assert run(*argv, "--out", out) == 0
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) == expected
        for path in out.rglob("*.json"):
            strict_json(path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest.keys() == command_options(argv[0]) | {"command", "argv", "artifact_version"}


class TestConfigFile:
    def test_config_supplies_values_and_seed(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 4, "tasks": 2, "hours": 80}))
        out = tmp_path / "gen"
        assert run("generate", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 4 and manifest["tasks"] == 2 and manifest["hours"] == 80

    def test_config_supplies_the_required_options(self, data_dir, tmp_path):
        # the required options come from the config like any other
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": "linear", "data": str(data_dir), "seed": [1], "budget": 2}))
        out = tmp_path / "s"
        assert run("search", "--config", cfg, "--out", out, *FAST) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["family"], manifest["data"], manifest["seed"]) == ("linear", str(data_dir), [1])

    @pytest.mark.parametrize("command, key, value", [("search", "command", "generate"),
                                                     ("generate", "artifact_version", "0.0.0")])
    def test_manifest_of_another_command_or_version_usage_error(self, command, key, value, tmp_path, capsys):
        assert run("generate", "--seed", 2, "--tasks", 1, "--hours", 60, "--out", tmp_path / "gen") == 0
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({**json.loads((tmp_path / "gen" / "manifest.json").read_text()), key: value}))
        out = tmp_path / "x"
        assert run(command, "--config", manifest, "--out", out) == 2
        expected = {"command": command, "artifact_version": fewcast.__version__}[key]
        assert capsys.readouterr().err == (
            f"usage error: {manifest}: {key} {value!r} does not match this run's {expected!r}\n")
        assert not out.exists()

    def test_config_values_recorded_in_manifest(self, data_dir, tmp_path):
        # the run directory alone reproduces the run, however the config file changes after it
        settings = {"kappa": 0.7, "c_uct": 0.5, "grid_resolution": 3, "meta_iterations": 5}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": [1], "budget": 2, **settings}))
        out = tmp_path / "s"
        assert run("search", "--config", cfg, "--data", data_dir, "--family", "linear", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {name: manifest[name] for name in settings} == settings

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 4, "tasks": 2}))
        out = tmp_path / "gen"
        assert run("generate", "--config", cfg, "--tasks", 3, "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["tasks"] == 3

    @pytest.mark.parametrize("flag_form", [["--budget", 2], ["--budget=2"]])
    def test_explicit_flag_beats_config_in_either_form(self, flag_form, data_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"budget": 4, "seed": 1}))
        out = tmp_path / "s"
        assert run("search", "--config", cfg, "--data", data_dir, "--family", "linear", "--out", out,
                   *flag_form, *FAST) == 0
        assert len((out / "seed_1" / "trajectory.jsonl").read_text().splitlines()) == 2

    @pytest.mark.parametrize("command", ["search", "train"])
    def test_repeated_config_seed_usage_error(self, command, data_dir, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": [1, 1]}))
        out = tmp_path / "x"
        assert run(command, "--config", cfg, "--data", data_dir, "--family", "linear", "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "usage error: --seed lists seed 1 more than once\n"
        assert not out.exists()

    @pytest.mark.parametrize("c_uct", [math.inf, math.nan])
    def test_non_finite_config_c_uct_usage_error(self, c_uct, data_dir, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1, "c_uct": c_uct}))  # written as Infinity / NaN
        out = tmp_path / "x"
        assert run("search", "--config", cfg, "--data", data_dir, "--family", "linear", "--out", out) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: c_uct must be finite and positive, got {c_uct}\n"
        assert not out.exists()

    def test_non_utf8_config_usage_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"seed": 1}\xff')
        proc = run_child("generate", "--config", cfg, "--out", tmp_path / "x")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "overrides", [{"budget": "many"}, {"budget": 2.5}, {"family": "cnn"}, {"search_shots": "yes"}]
    )
    def test_mistyped_value_usage_error(self, overrides, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"seed": 1, **overrides}))
        assert run("search", "--config", cfg, "--data", data_dir, "--family", "linear",
                   "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_unknown_key_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"sedd": 4}))
        assert run("generate", "--config", cfg, "--out", tmp_path / "x") == 2

    def test_search_shots_level(self, data_dir, tmp_path):
        out = tmp_path / "shots"
        assert run("search", "--data", data_dir, "--family", "linear", "--budget", 3,
                   "--seed", 2, "--out", out, "--search-shots", *FAST) == 0
        record = json.loads((out / "seed_2" / "trajectory.jsonl").read_text().splitlines()[0])
        assert len(record["config"]["choices"]) == 6
        assert record["config"]["shots"] in (1, 5, 10, 20)


class TestCompare:
    def make_scores(self, path, rows):
        path.mkdir(parents=True, exist_ok=True)
        lines = ["seed,test_mse"] + [f"{s},{m!r}" for s, m in rows]
        (path / "scores.csv").write_text("\n".join(lines) + "\n")

    def test_self_comparison_identity(self, tmp_path):
        d = tmp_path / "r1"
        self.make_scores(d, [(1, 0.5), (2, 0.4), (3, 0.3)])
        out = tmp_path / "cmp1"
        assert run("compare", d, d, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["pairs"]) == 1
        assert report["pairs"][0]["p_value"] == 1.0
        assert report["pairs"][0]["a12"] == 0.5

    def test_pair_count_and_percentages(self, tmp_path):
        rng = np.random.default_rng(0)
        dirs = []
        for i in range(3):
            d = tmp_path / f"m{i}"
            self.make_scores(d, [(s, float(rng.uniform(0.1, 1.0))) for s in range(10)])
            dirs.append(d)
        out = tmp_path / "cmp2"
        assert run("compare", *dirs, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["pairs"]) == 3  # 3 choose 2
        assert sum(report["category_percentages"].values()) == pytest.approx(100.0)

    def test_median_of_huge_errors_does_not_overflow(self, tmp_path):
        # the two middle values of an even count sum past the float64 range
        a, b = tmp_path / "huge", tmp_path / "small"
        self.make_scores(a, [(1, 1e308), (2, 1.5e308), (3, 0.5), (4, 1.7e308)])
        self.make_scores(b, [(1, 0.1), (2, 0.2), (3, 0.3), (4, 0.4)])
        proc = run_child("compare", a, b, "--out", tmp_path / "cmp")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert strict_json(tmp_path / "cmp" / "report.json")["pairs"][0]["mse_a"] == pytest.approx(1.25e308)

    def test_negative_error_rejected(self, tmp_path):
        # an MSE is never negative; scores of opposite sign overflowed the Wilcoxon differences
        a, b = tmp_path / "huge", tmp_path / "negative"
        self.make_scores(a, [(1, 1.7e308), (2, 0.5)])
        self.make_scores(b, [(1, -1.7e308), (2, 0.4)])
        proc = run_child("compare", a, b, "--out", tmp_path / "cmp")
        assert proc.returncode == 3
        assert proc.stderr.startswith("data error: ") and proc.stderr.count("\n") == 1
        assert f"{b / 'scores.csv'}:2: test_mse '-1.7e+308'" in proc.stderr
        assert not (tmp_path / "cmp").exists()

    def test_unequal_seed_sets_rejected(self, tmp_path):
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        self.make_scores(d1, [(1, 0.5), (2, 0.4)])
        self.make_scores(d2, [(1, 0.5), (3, 0.4)])
        assert run("compare", d1, d2, "--out", tmp_path / "x") == 3

    def test_command_line_results_replace_a_manifest_results(self, tmp_path):
        dirs = [tmp_path / name for name in "abc"]
        for i, d in enumerate(dirs):
            self.make_scores(d, [(1, 0.5 + i), (2, 0.4), (3, 0.3 * i)])
        first = tmp_path / "first"
        assert run("compare", dirs[0], dirs[1], "--out", first) == 0
        assert run("compare", "--config", first / "manifest.json", "--out", tmp_path / "replay") == 0
        assert (tmp_path / "replay" / "report.json").read_bytes() == (first / "report.json").read_bytes()
        out = tmp_path / "other"
        assert run("compare", "--config", first / "manifest.json", dirs[2], dirs[0], "--out", out) == 0
        pairs = json.loads((out / "report.json").read_text())["pairs"]
        assert [(pair["dir_a"], pair["dir_b"]) for pair in pairs] == [(str(dirs[2]), str(dirs[0]))]

    def test_single_directory_usage_error(self, tmp_path):
        d = tmp_path / "only"
        self.make_scores(d, [(1, 0.5)])
        assert run("compare", d, "--out", tmp_path / "x") == 2
