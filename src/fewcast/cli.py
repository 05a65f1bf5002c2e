"""Command-line entry points: generate / search / train / predict / compare.

Every command takes explicit seeds (no wall-clock defaults) and returns its
files; only once it has succeeded does ``main`` write them to ``--out``, with
a manifest recording the argument vector and every resolved option. Each
file is written under a temporary name and renamed into place, so it appears
whole or not at all. Wall-clock measurements live in ``timings.json`` alone,
so repeated runs with the same arguments write every other file byte for
byte.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    DEFAULT_HORIZON,
    DEFAULT_HOURS,
    DEFAULT_WINDOW,
    KINDS,
    DataError,
    build_bundle,
    csv_text,
    denormalize,
    generate_synthetic_tasks,
    load_csv,
    make_windows,
    normalize,
    read_rows,
)
from .learners import (
    FAMILIES,
    LearnerSpec,
    NUMERIC_FAILURES,
    NumericError,
    OPTIMIZERS,
    dump_params,
    forward,
    init_params,
    load_params,
)
from .meta import SEARCHED_FIELDS, MetaConfig, PipelineConfig, fine_tune_and_score, total_gradient_steps, train_pipeline
from .rng import derive_seed
from .search import DEFAULT_C_UCT, DEFAULT_GRID_RESOLUTION, DEFAULT_KAPPA, WIDTH_OPTIONS, build_search_space, search
from .stats import compare_samples


# glibc's mallopt parameters (malloc.h) and the size both are set to.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
KEEP_FREED_BYTES = 32 * 1024 * 1024


# The lower bound of each integer flag, and the options a command that takes them cannot run without.
MINIMUMS = {"tasks": 0, "budget": 1, "window": 1, "horizon": 1, "train_steps": 1}
REQUIRED = ("data", "family", "checkpoint", "seed", "results", "out")
SCORES_HEADER = "seed,test_mse"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own errors, in subparsers too (parser_class defaults to this type)
        raise UsageError(message)


def _keep_freed_memory() -> None:
    """Keep freed heap memory in this process instead of handing it back to
    the kernel.

    A full-batch step at mlp width >= 512 frees and reallocates (115, width)
    temporaries of about 0.9 MB. By default glibc returns such blocks to the
    kernel on free, and the next step faults them in again page by page: one
    vanilla width-1024 ``train`` took about 225k minor faults. Raising both
    thresholds to 32 MB keeps the blocks in the heap for reuse. Both are
    needed: setting one alone also turns off glibc's own threshold
    adjustment, and made a command slower (1.13 s became 1.6-2.1 s), while
    both together gave 0.52 s, with faults over three commands falling from
    677k to 7.4k. Only the CLI sets this, because it owns its process.
    Without glibc's ``mallopt`` nothing is done, and a refused setting
    (``mallopt`` returns 0) leaves the default in place.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library to ask, or no mallopt in it
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param in (M_TRIM_THRESHOLD, M_MMAP_THRESHOLD):
        mallopt(param, KEEP_FREED_BYTES)


def _write_whole(path: Path, content: bytes) -> None:
    """Write ``content`` to a temporary file beside ``path`` and rename it
    into place, so that ``path`` never holds a truncated file."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temporary.write_bytes(content)
        os.replace(temporary, path)
    except OSError:
        temporary.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def _usage_errors():
    """Report an invalid setting as a usage error instead of a traceback."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _config_argv(args, argv: list[str]) -> list[str]:
    """Re-express a JSON config document as flags placed right after the
    command name, so argparse checks their types and any flag given on the
    command line, in either form, comes later and wins.

    Unknown keys are usage errors so typos never pass silently.
    """
    try:
        overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # the last for deeply nested arrays
        raise UsageError(f"{args.config}: not valid UTF-8 JSON ({exc})") from None
    if not isinstance(overrides, dict):
        raise UsageError(f"{args.config}: expected a JSON object")
    tokens, expected = [], {"command": args.command, "artifact_version": __version__}  # so a manifest is a config
    for key, value in sorted(overrides.items(), key=lambda item: item[0] not in expected):  # bookkeeping first
        if not (hasattr(args, key) or key in (*expected, "argv")) or key == "func":
            raise UsageError(f"{args.config}: unknown configuration key {key!r}")
        if key in expected and value != expected[key]:
            raise UsageError(f"{args.config}: {key} {value!r} does not match this run's {expected[key]!r}")
        if key in (*expected, "argv", "config") or value is None:  # bookkeeping, or the flag's default
            continue
        flag = f"--{key.replace('_', '-')}"
        if key == "results":  # compare's positionals, which the command line's replace
            tokens += [] if args.results else [*map(str, value if isinstance(value, list) else [value])]
        elif isinstance(getattr(args, key), bool):  # an on/off switch
            if not isinstance(value, bool):
                raise UsageError(f"{args.config}: {key!r} must be true or false, got {value!r}")
            tokens += [flag] if value else []
        elif isinstance(value, list):
            tokens += [flag, *map(str, value)]
        else:
            tokens.append(f"{flag}={value}")
    return argv[:1] + tokens + argv[1:]


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"  # strict JSON: no Infinity or NaN


def _lines(rows: list[str]) -> str:
    return "\n".join(rows) + "\n"


def _load_target(data_dir: Path):
    path = data_dir / "target.csv"
    targets = load_csv(path)
    if len(targets) != 1:
        raise DataError(f"{path}: expected exactly one task, found {len(targets)}")
    return targets[0]


# The fixed (non-searched) MetaConfig settings that search and train share.
META_FLAGS = ("meta_iterations", "shots", "finetune_steps", "inner_steps")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags of search and train: the data, family, seeds, window and fixed meta settings."""
    p.add_argument("--data", help="directory produced by generate")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--seed", type=int, nargs="+", default=None)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    for name in META_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", type=int, default=getattr(MetaConfig, name))


def _meta_config(args, **chosen) -> MetaConfig:
    """The run's settings from the shared flags; ``chosen`` fixes the
    learning rates and optimizer where the command takes them as flags."""
    with _usage_errors():
        return MetaConfig(**{name: getattr(args, name) for name in META_FLAGS}, **chosen)


def _run_seeds(args, run_seed, require_train: bool = True) -> dict:
    """The files of every seed in ``args.seed`` and their ``scores.csv``,
    from the target and training tasks in ``args.data``.

    ``run_seed(seed, bundle)`` returns one seed's ``{name: content}`` map,
    which goes under ``seed_<n>/``, and its test MSE.
    """
    data_dir = Path(args.data)
    target = _load_target(data_dir)
    train_series = [series for path in sorted(data_dir.glob("train_*.csv")) for series in load_csv(path)]
    if require_train and not train_series:
        raise DataError(f"{data_dir}: no train_*.csv files found")
    files, scores = {}, [SCORES_HEADER]
    for seed in args.seed:
        bundle = build_bundle(train_series, target, window=args.window, seed=seed)
        seed_files, test_mse = run_seed(seed, bundle)
        files.update({f"seed_{seed}/{name}": content for name, content in seed_files.items()})
        scores.append(f"{seed},{test_mse!r}")
    files["scores.csv"] = _lines(scores)
    return files


def _read_scores(result_dir: Path) -> dict[int, float]:
    path, out = Path(result_dir) / "scores.csv", {}
    for lineno, (seed_text, mse_text) in read_rows(path, SCORES_HEADER):
        try:
            seed, mse = int(seed_text), float(mse_text)
        except ValueError:
            raise DataError(f"{path}:{lineno}: expected '<integer seed>,<mse>', got '{seed_text},{mse_text}'") from None
        if seed in out:
            raise DataError(f"{path}:{lineno}: duplicate seed {seed}")
        if not 0.0 <= mse < math.inf:  # NaN fails the comparison too
            raise DataError(f"{path}:{lineno}: test_mse {mse_text!r} is not a finite, non-negative number")
        out[seed] = mse
    return out


def cmd_generate(args) -> dict:
    with _usage_errors():
        series = generate_synthetic_tasks(args.kind, args.tasks + 1, args.hours, args.seed)
    train_series, target = series[: args.tasks], series[args.tasks]
    target = dataclasses.replace(target, task_id=f"{args.kind}-target")
    files = {f"train_{i:02d}.csv": csv_text([s]) for i, s in enumerate(train_series)}
    files["target.csv"] = csv_text([target])
    return files


def cmd_search(args) -> dict:
    settings = _meta_config(args)
    with _usage_errors():
        space = build_search_space(
            args.family,
            grid_resolution=args.grid_resolution,
            kappa=args.kappa,
            c_uct=args.c_uct,
            include_shots_level=args.search_shots,
        )

    def run_seed(seed, bundle):
        start = time.perf_counter()
        trajectory = search(space, bundle, args.budget, seed, settings=settings)[1]
        total_ms = (time.perf_counter() - start) * 1000.0
        plot_rows = [f"{i},{v!r}" for i, v in enumerate(trajectory.best_so_far())]
        per_iter = [r.wall_time_ms for r in trajectory.records]
        best = trajectory.best_record()
        summary = {
            "seed": seed,
            "budget": args.budget,
            "best_config": best.config.to_dict() if best else None,
            "best_test_mse": best.test_mse if best else None,
            "best_val_mse": best.val_mse if best else None,
            "failed_evaluations": trajectory.failed_count(),
        }
        timings = {"per_iteration_ms": per_iter, "total_ms": total_ms}
        return {
            "trajectory.jsonl": trajectory.to_jsonl(),
            "plot.csv": _lines(["iteration,best_so_far_mse"] + plot_rows),
            "timings.json": json.dumps(timings) + "\n",
            "summary.json": _json(summary),
        }, best.test_mse if best else math.inf

    return _run_seeds(args, run_seed)


def cmd_train(args) -> dict:
    low, high = min(WIDTH_OPTIONS), max(WIDTH_OPTIONS)
    if args.family == "linear" and args.width is not None:
        raise UsageError("--width applies only to the mlp and recurrent families")
    width = 1 if args.family == "linear" else 512 if args.width is None else args.width
    if not (args.family == "linear" or low <= width <= high):
        raise UsageError(f"--width must lie in [{low}, {high}], got {width}")
    if args.train_steps is not None and not args.vanilla:
        raise UsageError("--train-steps applies only with --vanilla")
    chosen = {name: getattr(args, name) for name in SEARCHED_FIELDS}
    settings = _meta_config(args, **chosen)
    config = PipelineConfig(family=args.family, width=width, **chosen)

    def run_seed(seed, bundle):
        spec = LearnerSpec(family=config.family, input_dim=bundle.window, width=config.width)
        if args.vanilla:
            steps = args.train_steps or total_gradient_steps(settings, max(1, len(bundle.train_tasks)))
            theta0 = init_params(spec, derive_seed(seed, "vanilla-init"))
            theta, val_mse, test_mse = fine_tune_and_score(spec, theta0, bundle, settings, steps)
            checkpoints, curve = {"model.params": theta}, []
        else:
            meta_result, test_mse = train_pipeline(config, bundle, seed, settings)
            steps, val_mse = total_gradient_steps(settings, len(bundle.train_tasks)), meta_result.val_mse
            checkpoints = {"model.params": meta_result.theta_final, "meta_init.params": meta_result.theta_meta}
            # (iteration, loss) pairs, JSON arrays; a loss that overflowed is null
            curve = [(it, loss if math.isfinite(loss) else None) for it, loss in meta_result.train_curve]
        files = {name: dump_params(spec, params, bundle.target_norm) for name, params in checkpoints.items()}
        result = {"vanilla": args.vanilla, "train_steps": steps, "train_curve": curve, "seed": seed,
                  "val_mse": val_mse, "test_mse": test_mse, "config": config.to_dict()}
        files["result.json"] = _json(result)
        return files, test_mse

    return _run_seeds(args, run_seed, require_train=not args.vanilla)


def cmd_predict(args) -> dict:
    checkpoint = Path(args.checkpoint)
    spec, theta, scaler = load_params(checkpoint / "model.params" if checkpoint.is_dir() else checkpoint)
    target = _load_target(Path(args.data))
    with np.errstate(all="ignore"):  # a non-finite input or forecast is reported below, not warned about
        scaled = normalize(target, scaler)
        windows = make_windows(scaled, spec.input_dim)
        if len(windows) - 1 < args.horizon:  # the first window stays unforecast, as in a training bundle
            raise DataError(f"target holds {len(windows) - 1} forecast steps; --horizon asks for {args.horizon}")
        X = windows.X[-args.horizon :]
        if args.recursive:  # each forecast becomes the newest lag of the next row
            y_pred, row = np.empty(len(X)), X[:1].copy()
            for i in range(len(X)):
                y_pred[i] = forward(spec, theta, row)[0]
                row[0] = np.append(row[0, 1:], y_pred[i])
        else:
            y_pred = forward(spec, theta, X)
        y_pred = denormalize(y_pred, scaled.norm)
    if not np.isfinite(y_pred).all():
        raise NumericError(f"forecast step {int(np.argmin(np.isfinite(y_pred)))} is not finite")
    y_true = target.values[-len(y_pred):]  # the target's own last values, which the test windows predict
    rows = [f"{i},{float(t)!r},{float(p)!r}" for i, (t, p) in enumerate(zip(y_true, y_pred))]
    return {"forecast.csv": _lines(["step,y_true,y_pred"] + rows)}


def cmd_compare(args) -> dict:
    if len(args.results) < 2:
        raise UsageError("compare needs at least two result directories")
    scores = {d: _read_scores(Path(d)) for d in args.results}
    reference = sorted(scores[args.results[0]])
    for d, seeds in scores.items():
        if sorted(seeds) != reference:
            raise DataError(f"seed sets differ: {args.results[0]} has {reference}, {d} has {sorted(seeds)}")
    pairs = []
    for i, dir_a in enumerate(args.results):
        for dir_b in args.results[i + 1 :]:
            errors_a = [scores[dir_a][s] for s in reference]
            errors_b = [scores[dir_b][s] for s in reference]
            row = {"dir_a": str(dir_a), "dir_b": str(dir_b), "n_seeds": len(reference)}
            row.update(compare_samples(errors_a, errors_b))
            pairs.append(row)
    categories = [row["category"] for row in pairs]
    percentages = {
        name: 100.0 * categories.count(name) / len(categories)
        for name in ("large", "medium", "small", "equal", "below_half")
    }
    return {"report.json": _json({"pairs": pairs, "category_percentages": percentages})}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fewcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("generate", help="write a synthetic multi-task bundle as CSVs")
    gen.add_argument("--kind", choices=KINDS, default="synthetic")
    gen.add_argument("--tasks", type=int, default=4, help="number of training tasks")
    gen.add_argument("--hours", type=int, default=DEFAULT_HOURS)
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=cmd_generate)

    srch = sub.add_parser("search", help="MCTS over pipeline configurations")
    _add_run_flags(srch)
    srch.add_argument("--budget", type=int, default=100)
    srch.add_argument("--grid-resolution", type=int, default=DEFAULT_GRID_RESOLUTION)
    srch.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    srch.add_argument("--c-uct", type=float, default=DEFAULT_C_UCT)
    srch.add_argument("--search-shots", action="store_true", help="add shots as a sixth decision level")
    srch.set_defaults(func=cmd_search)

    trn = sub.add_parser("train", help="train one fixed pipeline (or a vanilla baseline)")
    _add_run_flags(trn)
    trn.add_argument("--width", type=int, default=None, help="hidden width, mlp and recurrent only")
    for name in SEARCHED_FIELDS[:3]:  # the learning rates
        trn.add_argument(f"--{name.replace('_', '-')}", type=float, default=getattr(MetaConfig, name))
    trn.add_argument("--optimizer", choices=OPTIMIZERS, default=MetaConfig.optimizer)
    trn.add_argument("--vanilla", action="store_true", help="skip meta-training; fit the validation slice only")
    trn.add_argument("--train-steps", type=int, default=None, help="vanilla step budget (default: match the meta run)")
    trn.set_defaults(func=cmd_train)

    prd = sub.add_parser("predict", help="emit one-step-ahead forecasts from a checkpoint")
    prd.add_argument("--checkpoint", help=".params file or a train seed directory")
    prd.add_argument("--data")
    prd.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    prd.add_argument("--recursive", action="store_true", help="feed predictions back instead of true lags")
    prd.set_defaults(func=cmd_predict)

    cmp_ = sub.add_parser("compare", help="Wilcoxon + A12 report over result directories")
    cmp_.add_argument("results", nargs="*", help="two or more train/search output directories")
    cmp_.set_defaults(func=cmd_compare)

    for p in sub.choices.values():
        p.add_argument("--out")
        p.add_argument("--config", default=None, help="JSON file supplying defaults for any option")
    return parser


def _require_values(args) -> None:
    if missing := [name for name in REQUIRED if name in vars(args) and getattr(args, name) in (None, [])]:
        named = "the result directories are" if missing[0] == "results" else f"--{missing[0]} is"
        raise UsageError(f"{named} required (on the command line or in --config)")
    if empty := [name for name, value in vars(args).items() if value == []]:  # Python 3.11 parses "--flag=--" to []
        raise UsageError(f"--{empty[0].replace('_', '-')} needs a value")
    if isinstance(seed := getattr(args, "seed", None), list) and len(set(seed)) < len(seed):
        raise UsageError(f"--seed lists seed {next(s for s in seed if seed.count(s) > 1)} more than once")
    for name, minimum in MINIMUMS.items():
        if (value := getattr(args, name, None)) is not None and value < minimum:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {minimum}, got {value}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_config_argv(args, argv))
        _require_values(args)
        files = args.func(args)
        options = {name: value for name, value in vars(args).items() if name != "func"}
        files["manifest.json"] = _json({"artifact_version": __version__, "argv": argv, **options})
        for name, content in files.items():
            path = Path(args.out) / name
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_whole(path, content.encode("utf-8") if isinstance(content, str) else content)
        return 0
    except SystemExit as exc:  # --help, which argparse has printed
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
