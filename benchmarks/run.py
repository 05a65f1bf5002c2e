"""fewcast benchmark: end-to-end CLI workloads and per-layer timings.

Run from the repository root:

    python3 benchmarks/run.py --workload search-linear --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1          # every workload in turn

Each workload is a closed loop of ``fewcast`` CLI commands in one process of
its own (``workload.py``), with BLAS pinned to ``BLAS_THREADS`` threads. The
data bundle and every command seed derive from ``--seed``. With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it re-runs its
commands with every public fewcast function wrapped in spans and reports
per-layer self-time shares, exact call counts per evaluation and the tracing
overhead, then times each layer in isolation (``layers.py``).

On a shared machine, wall times drift with the load of other tenants: the
same code can run twice as fast an hour later. The end-to-end times
(``setup_s``, ``evals_per_s``, ``eval_ms_p50``) are therefore scaled to a
reference host speed, by the slowdown of a fixed reference kernel timed
around each set-up, command and search evaluation (``workload.HostClock``).
The raw wall times are printed next to them as ``*_raw``.

The metric names and units come from ``BENCHMARK.json``. Human-readable lines
(each starting with ``#``) come first, including the environment, config
digests and checks; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A failed
correctness check shows as ``"correct": false`` there, and the exit code
stays 0. It is not 0 only when no result could be produced: 2 outside a
fewcast checkout, 1 when a workload process crashed. Every run is
also appended to ``.bench_work/results.jsonl`` and traced runs leave their
spans in ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_PY = BENCH_DIR / "workload.py"

# One BLAS thread: the matrices are small (batch 10-115, width <= 1024), and
# on a shared machine a second thread mostly adds run-to-run spread.
BLAS_THREADS = 1
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
N_SEEDS = 500  # more command seeds than any run can use

# Smallest, middle and largest width of the search space. An odd count keeps
# the median latency inside one width's cluster instead of between two.
MLP_WIDTHS = (128, 512, 1024)
OPTIMIZERS = ("sgd", "adam", "rmsprop", "adadelta", "adagrad")

# "sweep" lists extra CLI arguments, one command each; a run repeats whole
# sweeps, so its mix of settings does not depend on the seed. The sweep runs
# at the smallest learning rates the CLI accepts: at the fixed defaults, sgd
# diverges at widths >= 512 (exit 4, or a finite MSE near 1e290).
WORKLOADS = {
    "search-linear": {"command": "search", "args": ["--family", "linear", "--budget", "300"]},
    "train-mlp-sweep": {
        "command": "train",
        "args": ["--family", "mlp", "--inner-lr", "0.0001", "--outer-lr", "0.0001", "--finetune-lr", "0.0001"],
        "sweep": [["--width", str(w), "--optimizer", o] for w in MLP_WIDTHS for o in OPTIMIZERS],
    },
    "train-recurrent": {"command": "train", "args": ["--family", "recurrent", "--width", "128"]},
    "vanilla-mlp": {
        "command": "train",
        "args": ["--vanilla", "--family", "mlp", "--width", "1024", "--optimizer", "adam"],
    },
}

# Self time of these spans gets its own share; any other span counts towards
# its module's share (the cli module's is its I/O and argument handling).
SPAN_SHARES = {
    "data.pairs_to_arrays": "data.pairs_to_arrays_share",
    "learners.gradient": "learners.gradient_share",
    "learners.forward": "learners.forward_share",
    "learners.loss": "learners.forward_share",
    "learners.predict": "learners.forward_share",
    "learners.optimizer_step": "learners.optimizer_step_share",
    "rng.spawn": "rng.spawn_share",
    "rng.derive_seed": "rng.derive_seed_share",
}
CALL_COUNTS = {
    "learners.gradient_calls_per_eval": "learners.gradient",
    "learners.forward_calls_per_eval": "learners.forward",
    "data.pairs_to_arrays_calls_per_eval": "data.pairs_to_arrays",
    "rng.spawn_calls_per_eval": "rng.spawn",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, a child crashed)."""


def derive(seed: int, label: str, index: int = 0) -> int:
    digest = hashlib.sha256(f"{seed}/{label}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(mode: str, job: dict, env: dict) -> dict:
    job_path = Path(job["result"]).with_suffix(".job.json")
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKLOAD_PY), mode, str(job_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process ({mode}) did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process ({mode}) exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(Path(job["result"]).read_text())


def measure_setup(work: Path, data_seed: int, env: dict) -> list[tuple[float, float]]:
    """Seconds from process start to a generated and loaded bundle, and the
    host slowdown measured right after, per repeat."""
    times = []
    for k in range(SETUP_REPEATS):
        job = {"data": str(work / f"setup{k}"), "data_seed": data_seed, "result": str(work / f"setup{k}.json")}
        start = time.monotonic()
        probe = run_child("setup", job, env)
        times.append((probe["ready"] - start, probe["slowdown"]))
    return times


def source_info(root: Path) -> dict:
    files = sorted((root / "src").rglob("*.py"))
    blob = b"".join(f.read_bytes() for f in files)
    commit = None
    if (root / ".git").exists():  # a plain source tree has none; git would search its parents
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "src_lines": blob.count(b"\n"),
        "src_sha256": hashlib.sha256(blob).hexdigest()[:16],
    }


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result: dict, setup_times: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """Times scaled to the reference host speed (by the slowdown measured
    around each command or set-up), plus the raw times as ``*_raw``."""
    commands = result["commands"]
    wall = sum(c["wall_s"] for c in commands)
    evals = sum(c["evals"] for c in commands)
    latencies = [ms for c in commands for ms in c.get("eval_ms", [])]
    scaled = [ms / f for c in commands for ms, f in zip(c.get("eval_ms", []), c["eval_slowdown"])]
    values = {
        "setup_s": (statistics.median(t / f for t, f in setup_times), "s"),
        "setup_s_raw": (statistics.median(t for t, _ in setup_times), "s"),
        "evals_per_s": (evals / sum(c["wall_s"] / c["slowdown"] for c in commands), "1/s"),
        "evals_per_s_raw": (evals / wall, "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    if latencies:
        values["eval_ms_p50"] = (statistics.median(scaled), "ms")
        values["eval_ms_p50_raw"] = (statistics.median(latencies), "ms")
    notes = [
        f"setup_s: median of {len(setup_times)} set-ups ({', '.join(f'{t:.3f}' for t, _ in setup_times)} s raw)",
        f"evals_per_s: {evals} evaluations in {len(commands)} commands, {wall:.2f} s",
        f"eval_ms_p50: n={len(latencies)}",
        "host slowdown against the reference kernel: median {:.3f}, range {:.3f}-{:.3f}".format(
            statistics.median(c["slowdown"] for c in commands),
            min(c["slowdown"] for c in commands),
            max(c["slowdown"] for c in commands),
        ),
    ]
    widths: dict[str, list[float]] = {}
    for c in commands:
        if "--width" in c["extra"]:
            widths.setdefault(c["extra"][c["extra"].index("--width") + 1], []).extend(c.get("eval_ms", []))
    if widths:
        notes.append("eval_ms_p50_raw by width: " + ", ".join(f"{w}: {statistics.median(v):.1f}" for w, v in widths.items()))
    if len(latencies) >= 100:
        values["eval_ms_p90"] = (quantile(scaled, 90), "ms")
        notes.append(f"eval_ms_p90: n={len(latencies)}, {len(latencies) - int(0.9 * len(latencies))} beyond it")
    return values, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    """Shares and call counts of the spans the tracer wrapped (its ``calls``
    names every wrapped span, also one never called). A share or count whose
    function no longer exists is left out, so the run reports it as absent."""
    trace = result["trace"]
    wall, evals, wrapped = trace["wall_s"], trace["evals"], trace["calls"]
    shares: dict[str, float] = {}
    for span, seconds in trace["self_s"].items():
        module = span.split(".")[0]
        key = SPAN_SHARES.get(span) or ("cli.io_share" if module == "cli" else f"{module}.self_share")
        shares[key] = shares.get(key, 0.0) + seconds / wall
    values = {name: (value, "share") for name, value in shares.items()}
    values["trace.accounted_share"] = (sum(shares.values()), "share")
    for name, span in CALL_COUNTS.items():
        if evals and span in wrapped:
            values[name] = (wrapped[span] / evals, "calls")
    values["trace_overhead_frac"] = (wall / trace["plain_wall_s"] - 1.0, "frac")
    values.update({name: tuple(v) for name, v in result["layers"]["metrics"].items()})
    notes = [
        f"trace: {evals} evaluations ({trace['span_evals']} opened by spans), traced {wall:.2f} s, "
        f"untraced {trace['plain_wall_s']:.2f} s"
    ]
    notes += [f"absent: {name}: {why}" for name, why in result["layers"]["absent"].items()]
    return values, notes


def run_one(root: Path, spec: dict, name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload; returns the full record (the JSON result is in ``record['result']``)."""
    wl = WORKLOADS[name]
    env = child_env(root)
    work = root / ".bench_work" / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data_seed = derive(seed, "data")
    job = {
        "workload": wl,
        "work": str(work),
        "data_seed": data_seed,
        "seeds": [derive(seed, "command", k) for k in range(N_SEEDS)],
        "seconds": seconds,
        "trace": trace,
        "trace_out": str(root / ".bench_work" / "traces" / f"{name}-seed{seed}.json.gz"),
        "result": str(work / "result.json"),
    }
    try:
        setup_times = [] if trace else measure_setup(work, data_seed, env)
        result = run_child("run", job, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commands = result["commands"]
    attempted_evals = sum(c["evals"] + (c["rc"] != 0) for c in commands)
    failed_evals = sum(c["failed_evals"] + (c["rc"] != 0) for c in commands)
    values, notes = per_layer(result) if trace else end_to_end(result, setup_times)
    if attempted_evals:
        values["failed_eval_frac"] = (failed_evals / attempted_evals, "frac")
    # Quality over the first block, which every run completes: the search's
    # best test MSE, or the mean test MSE of the block's train commands. A
    # fixed set of commands, so for one --seed the value does not depend on
    # how many commands the host fits in the run. Repeats count once.
    first = {(c["seed"], *c["extra"]): c["test_mse"] for c in commands if c["block"] == 0 and "test_mse" in c}
    if first:
        values["best_test_mse"] = (statistics.fmean(first.values()), "mse")
        notes.append(f"best_test_mse: first block, mean over {len(first)} command(s)")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted if m["name"] in values}
    notes += [f"absent: {m['name']}" for m in wanted if m["name"] not in values]

    problems = result["problems"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {**result["env"], **source_info(root)},
        "digests": {c["seed"]: c["digest"] for c in commands if "digest" in c},
        "values": values,
        "notes": notes,
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": len(commands),
            "failed": sum(not c["ok"] for c in commands),
            "metrics": metrics,
        },
    }
    results_log = root / ".bench_work" / "results.jsonl"
    with results_log.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def report(record: dict) -> None:
    env = record["env"]
    print(f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  seconds {record['seconds']}")
    print(
        f"# env: python {env['python']} | numpy {env['numpy']} | {env['blas']} ({env['blas_threads']} BLAS threads,"
        f" pinned {BLAS_THREADS}) | nproc {env['nproc']} | commit {env['commit'] or 'unknown'}"
        f" | src {env['src_lines']} lines, sha256 {env['src_sha256']}"
    )
    for name, (value, unit) in record["values"].items():
        print(f"#   {name:<44} {value:14.6g} {unit}")
    for seed, digest in record["digests"].items():
        print(f"# config digest: seed {seed} -> {digest}")
    for note in record["notes"]:
        print(f"# {note}")
    print(f"# checks: {'ok' if not record['problems'] else 'FAILED'} ({record['result']['attempted']} commands)")
    for problem in record["problems"]:
        print(f"#   {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fewcast" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} holds no fewcast checkout (src/fewcast/cli.py and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            record = run_one(root, spec, name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(record)
        print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
