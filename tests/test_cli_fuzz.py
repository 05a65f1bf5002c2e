"""Random mutations of valid command lines and input files, after Miller et al. (1990).

Each case calls ``main`` in process on a mutated command line, or on a valid
one whose data, checkpoint, config or scores file has been mutated. Every
case must end in a known exit code (0 success, 2 usage, 3 data, 4 numeric)
without an escaping exception; a success must write only finite forecasts
and strict JSON, and a failure must print exactly one stderr line and write
nothing. A warning counts as a stderr line, since a console run
prints it. A case of an even index that exits 0 and writes files must write
them again, byte for byte, when rerun from ``--config`` of its own
``manifest.json`` into a new ``--out``.

The cases are drawn from ``random.Random`` with fixed seeds, and every valid
value they can reach keeps a command cheap (linear learners, tiny budgets):
huge numbers go only to flags that must reject them before any work.
"""

import argparse
import json
import random
import shutil
import warnings

import numpy as np
import pytest

from fewcast.cli import build_parser, main

CASES = {"argv": 140, "data": 60, "checkpoint": 60, "config": 20, "scores": 20}
RUN_FLAGS = ["--data", "--family", "--seed", "--window", "--meta-iterations", "--shots", "--finetune-steps",
             "--inner-steps", "--config"]
OWN_FLAGS = {  # each command's flags, which a mutation adds more often than a foreign one
    "generate": ["--kind", "--tasks", "--hours", "--seed", "--config"],
    "search": RUN_FLAGS + ["--budget", "--grid-resolution", "--kappa", "--c-uct", "--search-shots"],
    "train": RUN_FLAGS + ["--width", "--inner-lr", "--outer-lr", "--finetune-lr", "--optimizer", "--vanilla",
                          "--train-steps"],
    "predict": ["--checkpoint", "--data", "--horizon", "--recursive", "--config"],
    "compare": ["--config"],
}
SWITCHES = {"--vanilla", "--search-shots", "--recursive", "--help", "--"}
FLAGS = sorted({flag for flags in OWN_FLAGS.values() for flag in flags} | SWITCHES)
# Flags whose every huge value is refused before any work is done
HUGE_OK = {"--seed", "--window", "--width", "--kappa", "--c-uct", "--grid-resolution", "--hours", "--tasks",
           "--horizon"}
# Values of each flag type around the bounds of the checks and of the 60-hour bundle (24 lags, 36 windows),
# then junk. Every other flag takes an integer, except the paths, which take junk.
INTS = ["-1", "0", "1", "2", "3", "23", "24", "35", "36", "59", "60", "61", "1_0", "٣", " 3"]
FLOATS = ["-1", "0", "-0", "1", "1.5", "1e-4", "0.01", "0.5", "0.7", "1e-300", "1e308", "-1e308", "nan", "inf", "-inf",
          "1e400"]
FLOAT_FLAGS = {"--kappa", "--c-uct", "--inner-lr", "--outer-lr", "--finetune-lr"}
PATH_FLAGS = {"--data", "--checkpoint", "--config"}
NUMBERS = INTS + [v for v in FLOATS if v not in INTS]
JUNK = ["", "x", "0x10", "adam", "linear", "pv", "-", "--", "--seed", "é"]
# Values of which two in one task once overflowed the float64 span that normalization divides by
EXTREMES = ["1e308", "-1e308", "1e-300", "-1e-300", "9" * 25, "-" + "9" * 25, "9" * 400]
NESTED = "[" * 100_000  # deeper than the JSON decoder's recursion limit
CHOICES = {"--family": ["linear"], "--optimizer": ["sgd", "adam", "rmsprop", "adadelta", "adagrad"],
           "--kind": ["wind", "pv", "load", "synthetic"]}  # linear keeps every case cheap
HUGE = ["9" * 25, "-" + "9" * 25]
JSON_VALUES = [None, True, False, -1, 0, 1, 2, 1.5, 1e308, -1e308, 10**30, -(10**400), float("nan"), float("inf"),
               "", "x", "linear", "mlp", [], [0, 1], [1e308, -1e308], [10**400, 0], [True, 1], ["a", 1], [1, 2, 3], {}]
RERUN_EVERY = 2  # the cases that rerun from their manifest: every other one, since a rerun doubles a case's cost
PREFIX = {2: "usage error: ", 3: "data error: ", 4: "numeric failure: "}
SUBPARSERS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
OPTIONS = {command: {a.dest for a in p._actions if a.dest != "help"} for command, p in SUBPARSERS.items()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny generated bundle, a linear checkpoint trained on it and that run's scores."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["generate", "--tasks", "2", "--hours", "60", "--seed", "1", "--out", str(root / "data")]) == 0
    assert main(["train", "--data", str(root / "data"), "--family", "linear", "--meta-iterations", "1",
                 "--seed", "1", "2", "--out", str(root / "train")]) == 0
    return root


def _commands(data, ckpt, results):
    return [
        ["generate", "--tasks", "2", "--hours", "60", "--seed", "1"],
        ["search", "--data", data, "--family", "linear", "--budget", "2", "--meta-iterations", "1", "--seed", "1"],
        ["train", "--data", data, "--family", "linear", "--meta-iterations", "1", "--seed", "1"],
        ["train", "--data", data, "--family", "linear", "--vanilla", "--train-steps", "2", "--seed", "1"],
        ["predict", "--checkpoint", ckpt, "--data", data, "--horizon", "4"],
        ["predict", "--checkpoint", ckpt, "--data", data, "--horizon", "4", "--recursive"],
        ["compare", results, results],
    ]


def _value(rng, flag):
    """A value of the flag's own type, so that argparse lets it through to the command; junk one time in twenty."""
    if rng.random() < 0.05 or flag in PATH_FLAGS:
        return rng.choice(JUNK)
    if flag in CHOICES:
        return rng.choice(CHOICES[flag])
    values = FLOATS if flag in FLOAT_FLAGS else INTS
    return rng.choice(values + HUGE if flag in HUGE_OK else values)


def _mutate_argv(rng, argv):
    """Mostly a new value for a flag the command owns, in place or added (for compare, which has no such flag,
    one more result directory or junk among them); sometimes any flag added (a switch or another command's
    flag), or a token dropped or repeated."""
    argv = list(argv)
    valued = [f for f in OWN_FLAGS[argv[0]] if f not in SWITCHES | PATH_FLAGS]
    for _ in range(rng.randint(1, 2)):
        op = rng.choices(range(4), weights=(16, 1, 1, 1))[0]
        if op == 0 and valued:
            flag = rng.choice(valued)
            value = _value(rng, flag)
            tokens = [f"{flag}={value}"] if value[:1] == "-" else [flag, value]  # argparse reads "-inf" as a flag
            j = argv.index(flag) if flag in argv else len(argv)
            argv[j : j + 2] = tokens
        elif op == 0:
            argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(JUNK if rng.random() < 0.2 else argv[1:]))
        elif op == 1:
            flag = rng.choice(FLAGS)
            argv += [flag] if flag in SWITCHES else [flag, _value(rng, flag)]
        elif op == 2 and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        else:
            argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(argv))
    return argv


def _mutate_text(rng, raw: bytes) -> bytes:
    lines = raw.split(b"\n")
    op, i = rng.randrange(8), rng.randrange(len(lines))
    if op == 0:
        pos = rng.randrange(len(raw))
        return raw[:pos] + bytes([rng.randrange(256)]) + raw[pos + 1 :]
    if op == 1:
        return raw[: rng.randrange(len(raw))]
    if op == 2:
        del lines[i]
    elif op == 3:
        lines.insert(i, lines[rng.randrange(len(lines))])
    elif op == 4:  # a field of one or two lines
        for i in rng.sample(range(len(lines)), min(len(lines), rng.randint(1, 2))):
            fields = lines[i].split(b",")
            fields[rng.randrange(len(fields))] = rng.choice(JUNK if rng.random() < 0.2 else NUMBERS + HUGE).encode()
            lines[i] = b",".join(fields)
    elif op == 5:
        lines[i] = b""
    elif op == 6:  # the last field of two rows, in a task CSV two values of its one task, set to extremes
        rows = [j for j in range(1, len(lines)) if lines[j]]
        for i in rng.sample(rows, min(len(rows), 2)):
            lines[i] = b",".join(lines[i].split(b",")[:-1] + [rng.choice(EXTREMES).encode()])
    else:  # the header and the first k rows: none, one, or a task CSV's 25 and 26 values (one and two 24-lag windows)
        del lines[1 + rng.choice([0, 1, 25, 26]) :]
        lines.append(b"")
    return b"\n".join(lines)


def _mutate_checkpoint(rng, raw: bytes) -> bytes:
    head, payload = raw.split(b"\n", 1)
    header = json.loads(head)
    op = rng.randrange(5)
    if op == 0:
        header[rng.choice(["family", "input_dim", "width", "n_params", "format_version", "extra"])] = rng.choice(
            JSON_VALUES)
    elif op == 1:
        header["extra"][rng.choice(["window", "target_norm"])] = rng.choice(JSON_VALUES)
    elif op == 2:
        theta = np.frombuffer(payload, dtype="<f8").copy()
        theta[rng.randrange(theta.size)] = rng.choice([np.nan, np.inf, -np.inf, 1e308, -1e308, 1e200, 5e-324])
        payload = theta.tobytes()
    elif op == 3:
        return _mutate_text(rng, raw)
    else:
        return NESTED.encode() + b"\n" + payload
    return json.dumps(header).encode() + b"\n" + payload


def _case(kind, rng, inputs, work):
    """The argv of one case, after writing any mutated file it reads into ``work``."""
    data, ckpt, results = inputs / "data", inputs / "train" / "seed_1", inputs / "train"
    if kind == "argv":
        return _mutate_argv(rng, rng.choice(_commands(str(data), str(ckpt), str(results))))
    if kind == "data":
        shutil.copytree(data, work / "data")
        if rng.random() < 0.1:  # a training task that carries the target's id
            path = work / "data" / "train_00.csv"
            path.write_text(path.read_text().replace("synthetic-00", "synthetic-target"))
        else:
            path = work / "data" / rng.choice(["target.csv", "train_00.csv"])
            path.write_bytes(_mutate_text(rng, path.read_bytes()))
        return rng.choice(_commands(str(work / "data"), str(ckpt), str(results))[1:6])  # every reader of --data
    if kind == "checkpoint":
        path = work / "model.params"
        path.write_bytes(_mutate_checkpoint(rng, (ckpt / "model.params").read_bytes()))
        return rng.choice(_commands(str(data), str(path), str(results))[4:6])  # both predicts
    if kind == "config":
        path, argv = work / "run.json", rng.choice(_commands(str(data), str(ckpt), str(results)))
        own = [flag for flag in OWN_FLAGS[argv[0]] if flag != "--config"]
        if rng.random() < 0.7:  # 1-3 flags of the command itself (compare has none), with values of their own types
            flags = rng.sample(own, min(len(own), rng.randint(1, 3)))
            values = {flag: rng.random() < 0.5 if flag in SWITCHES else _value(rng, flag) for flag in flags}
            path.write_text(json.dumps({flag[2:].replace("-", "_"): value for flag, value in values.items()}))
        else:  # one key, half the time the command's own, with a value of any JSON type; or a document nested too deeply
            flag = rng.choice(own if own and rng.random() < 0.5 else FLAGS + ["--nope"])
            value = rng.choice(JSON_VALUES if flag in HUGE_OK else [v for v in JSON_VALUES if v != 10**30])
            path.write_text(NESTED if rng.random() < 0.3 else json.dumps({flag[2:].replace("-", "_"): value}))
        return [*argv, "--config", str(path)]
    (work / "run").mkdir()
    scores = (results / "scores.csv").read_bytes()
    (work / "run" / "scores.csv").write_bytes(_mutate_text(rng, scores))
    return ["compare", str(results), str(work / "run")]


def _finite_outputs(out):
    """Whether a run's forecast is finite and each JSON file it wrote parses strictly, with no Infinity or NaN."""
    constants = []  # what a strict parser would refuse
    for path in out.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=constants.append)
    path = out / "forecast.csv"
    forecast = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) if path.exists() else np.zeros(1)
    return not constants and np.isfinite(forecast).all()


def _recorded(out, command, printed):
    """Whether a run that exited 0 recorded every option of its command in its manifest, or printed help and
    wrote nothing."""
    if not out.exists():
        return printed.startswith("usage: ")
    return OPTIONS[command] <= json.loads((out / "manifest.json").read_text()).keys()


def _replayed(out):
    """The files a run writes, by path, except the two a replay may change: ``timings.json``, which holds
    wall-clock time, and ``manifest.json``, which records the replay's own command line."""
    return {path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*"))
            if path.is_file() and path.name not in ("timings.json", "manifest.json")}


def _replay_fault(out, again, capsys):
    """What goes wrong when the run in ``out`` reruns from its own manifest into ``again``: "" when nothing does."""
    command = json.loads((out / "manifest.json").read_text())["command"]
    code = main([command, "--config", str(out / "manifest.json"), "--out", str(again)])
    err = capsys.readouterr().err
    if code:
        return f"exits {code} with {err!r}"
    first, second = _replayed(out), _replayed(again)
    differing = sorted(str(path) for path in first.keys() | second.keys() if first.get(path) != second.get(path))
    return f"writes {differing} otherwise" if differing else ""


@pytest.mark.parametrize("kind", CASES)
def test_mutated_inputs_end_in_a_known_exit(kind, inputs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # an empty path names this directory, never the checkout
    failures = []
    for i in range(CASES[kind]):
        rng, work = random.Random(f"{kind}-{i}"), tmp_path / f"case{i}"
        work.mkdir()
        argv, out = _case(kind, rng, inputs, work), work / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([*argv, "--out", str(out)])
            except Exception as exc:  # what a console run would print as a traceback
                failures.append(f"{kind}-{i} {argv}: escaped {exc!r}")
                capsys.readouterr()
                continue
        captured = capsys.readouterr()
        err = captured.err + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        if code not in (0, 2, 3, 4):
            failures.append(f"{kind}-{i} {argv}: exit {code}")
        elif code == 0 and (caught or not _finite_outputs(out) or not _recorded(out, argv[0], captured.out)):
            failures.append(f"{kind}-{i} {argv}: exit 0 with {err!r}, a non-finite output or an unrecorded option")
        elif code == 0 and out.exists() and i % RERUN_EVERY == 0 and (
                fault := _replay_fault(out, work / "again", capsys)):
            failures.append(f"{kind}-{i} {argv}: the rerun from its manifest {fault}")
        elif code:
            if not err.startswith(PREFIX[code]) or err.count("\n") != 1 or out.exists():
                failures.append(f"{kind}-{i} {argv}: exit {code} with {err!r}")
    assert not failures, "\n".join(failures)
