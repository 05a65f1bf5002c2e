"""Workload process of the fewcast benchmark.

``run.py`` starts this script in a fresh process whose environment pins the
BLAS thread count, so numpy reads it at import. It drives the user-facing
entry point ``fewcast.cli.main`` and times each command from outside.

    python3 benchmarks/workload.py setup JOB.json
        generate and load one bundle, then record the monotonic clock, so
        the parent can time process start -> ready for the first evaluation
    python3 benchmarks/workload.py run JOB.json
        run one workload's commands in a closed loop (the next command starts
        when the previous one returns) and check every output

Each mode writes its result as JSON to the path ``JOB["result"]``.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from fewcast import cli, data, learners, meta

search_module = importlib.import_module("fewcast.search")  # the package re-exports a function of that name

DATA_KIND = "synthetic"
WINDOW = 24  # the CLI's default --window

# Host calibration. On a shared machine the same work can run 1.5x slower a
# minute later. A fixed reference kernel, timed between commands and inside
# them (between search evaluations, or optimizer steps), slows down with the workloads. It has two parts: the op
# mix of a batch-10 mlp step (compute) and of a linear-model step (per-call
# overhead). On a shared 2-vCPU VM, over 5-s windows, linear and mlp-512
# evaluation times spread 26% and 21% (coefficient of variation); their
# ratios to the kernel time spread 9% and 8%. run.py therefore also reports
# times scaled to a host on which the kernel takes REFERENCE_MS.
REFERENCE_MS = 12.0
COMPUTE_STEPS, OVERHEAD_STEPS = 100, 300
SAMPLE_EVERY_S = 0.5


class HostClock:
    """Times the reference kernel between commands and, inside a command,
    between search evaluations or between optimizer steps."""

    def __init__(self):
        gen = np.random.default_rng(0)
        self._x = gen.standard_normal((10, 24))
        self._w = gen.standard_normal((24, 512))
        self._v = gen.standard_normal(512)
        self._w1 = gen.standard_normal(24)
        self._y = gen.standard_normal(10)
        self.samples: list[tuple[float, float]] = []  # (perf_counter, kernel ms)
        self.sampling_s = 0.0  # time spent sampling, taken out of command times
        self.eval_starts: list[float] = []

    def _kernel_ms(self) -> float:
        start = time.perf_counter()
        for _ in range(COMPUTE_STEPS):
            h = np.tanh(self._x @ self._w)
            d = np.outer(h @ self._v, self._v) * (1.0 - h * h)
            d.T @ self._x, d.sum(axis=0)
        for _ in range(OVERHEAD_STEPS):
            r = self._x @ self._w1 - self._y
            np.concatenate([self._x.T @ (2.0 * r), [r.sum()]]), float(r @ r)
        return (time.perf_counter() - start) * 1e3

    def sample(self, force: bool = False) -> None:
        start = time.perf_counter()
        if force or not self.samples or start - self.samples[-1][0] >= SAMPLE_EVERY_S:
            ms = sorted(self._kernel_ms() for _ in range(3))[1]
            self.samples.append((time.perf_counter(), ms))
            self.sampling_s += time.perf_counter() - start

    def hook_evaluations(self) -> None:
        """Sample before each search evaluation and note when it starts."""
        evaluate = getattr(search_module, "evaluate_pipeline", None)
        if evaluate is None:  # renamed or gone: sample between commands only
            return

        def sampled(*args, **kwargs):
            self.sample()
            self.eval_starts.append(time.perf_counter())
            return evaluate(*args, **kwargs)

        search_module.evaluate_pipeline = sampled

    def hook_steps(self) -> None:
        """Sample between optimizer steps, so that a train command of several
        seconds is scaled by the host speed during it, not only around it."""
        step = getattr(meta, "optimizer_step", None)
        if step is None:  # renamed or gone: sample between commands only
            return

        def sampled(*args, **kwargs):
            self.sample()
            return step(*args, **kwargs)

        meta.optimizer_step = sampled

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over REFERENCE_MS across the samples taken during
        [start, end] and the nearest one on each side."""
        before = [ms for t, ms in self.samples if t < start][-1:]
        inside = [ms for t, ms in self.samples if start <= t <= end]
        after = [ms for t, ms in self.samples if t > end][:1]
        around = before + inside + after or [ms for _, ms in self.samples]
        return sum(around) / len(around) / REFERENCE_MS


def generate(data_dir: Path, seed: int) -> int:
    return cli.main(["generate", "--kind", DATA_KIND, "--seed", str(seed), "--out", str(data_dir)])


def load_bundle(data_dir: Path, seed: int):
    paths = sorted(data_dir.glob("train_*.csv")) + [data_dir / "target.csv"]
    series = [s for p in paths for s in data.load_csv(p)]
    return data.build_bundle(series[:-1], series[-1], seed=seed)


def run_setup(job: dict) -> dict:
    data_dir = Path(job["data"])
    if generate(data_dir, job["data_seed"]) != 0:
        raise SystemExit("fewcast generate failed")
    load_bundle(data_dir, job["data_seed"])
    ready = time.monotonic()
    clock = HostClock()
    clock.sample()
    return {"ready": ready, "slowdown": clock.samples[0][1] / REFERENCE_MS}


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def config_digest(records: list[dict]) -> str:
    """Digest of the evaluated config sequence: equal digests, equal work mix."""
    text = "\n".join(json.dumps(r["config"], sort_keys=True) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def read_search(seed_dir: Path, argv: list[str], problems: list[str]) -> dict:
    trajectory = (seed_dir / "trajectory.jsonl").read_bytes()
    plot = (seed_dir / "plot.csv").read_bytes()
    records = [json.loads(line) for line in trajectory.decode().splitlines()]
    latencies = json.loads((seed_dir / "timings.json").read_text())["per_iteration_ms"]
    budget = int(argv[argv.index("--budget") + 1])
    if len(records) != budget:
        problems.append(f"{seed_dir}: {len(records)} records for budget {budget}")
    ok = [r for r in records if r["status"] == "ok"]
    for r in ok:
        if not all(isinstance(r[k], float) and math.isfinite(r[k]) for k in ("val_mse", "test_mse")):
            problems.append(f"{seed_dir}: iteration {r['iteration']} is ok with a non-finite MSE")
    if not ok:
        problems.append(f"{seed_dir}: no evaluation succeeded")
    return {
        "evals": len(records),
        "failed_evals": len(records) - len(ok),
        "eval_ms": latencies,
        "test_mse": min((r["test_mse"] for r in ok), default=math.inf),
        "digest": config_digest(records),
        "fingerprint": hashlib.sha256(trajectory + b"\0" + plot).hexdigest(),
    }


def read_train(seed_dir: Path, argv: list[str], problems: list[str]) -> dict:
    result = (seed_dir / "result.json").read_bytes()
    test_mse = json.loads(result)["test_mse"]
    if not (isinstance(test_mse, float) and math.isfinite(test_mse)):
        problems.append(f"{seed_dir}: test_mse {test_mse!r} is not finite")
    family, width = argv[argv.index("--family") + 1], int(argv[argv.index("--width") + 1])
    expected = learners.LearnerSpec(family=family, input_dim=WINDOW, width=width)
    blobs = [result]
    for name in ("model.params",) if "--vanilla" in argv else ("model.params", "meta_init.params"):
        spec, theta, _ = learners.load_params(seed_dir / name)
        if spec != expected or theta.size != learners.n_params(expected) or not np.all(np.isfinite(theta)):
            problems.append(f"{seed_dir / name}: loads as {spec} with {theta.size} values, expected {expected}")
        blobs.append((seed_dir / name).read_bytes())
    return {
        "evals": 1,
        "failed_evals": 0,
        "test_mse": test_mse,
        "fingerprint": hashlib.sha256(b"\0".join(blobs)).hexdigest(),
    }


def execute(wl: dict, data_dir: Path, out_dir: Path, seed: int, extra: list[str]) -> dict:
    """Run one CLI command, timed from outside; its artifacts are read later."""
    argv = [wl["command"], "--data", str(data_dir), *wl["args"], *extra, "--seed", str(seed), "--out", str(out_dir)]
    start = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - start
    return {"argv": argv, "seed": seed, "extra": extra, "rc": rc, "start": start, "wall_s": wall}


def inspect(command: dict, problems: list[str]) -> None:
    """Check one command's artifacts and add what they report to ``command``."""
    argv = command.pop("argv")
    command.update(evals=0, failed_evals=0)
    before = len(problems)
    seed_dir = Path(argv[argv.index("--out") + 1]) / f"seed_{command['seed']}"
    if command["rc"] != 0:
        problems.append(f"fewcast {' '.join(argv)} exited with {command['rc']}")
    else:
        try:
            if argv[0] == "search":
                command.update(read_search(seed_dir, argv, problems))
            else:
                command.update(read_train(seed_dir, argv, problems), eval_ms=[command["wall_s"] * 1e3])
        except (OSError, ValueError, KeyError) as exc:  # a missing or malformed artifact fails the check
            problems.append(f"fewcast {' '.join(argv)}: unreadable output ({type(exc).__name__}: {exc})")
    command["ok"] = len(problems) == before


def blocks(wl: dict, seeds: list[int]) -> list[list[tuple[int, list[str]]]]:
    """Command blocks of (seed, extra CLI args): one command per seed, or for
    a sweep workload one whole sweep per block, each command its own seed."""
    sweep = wl.get("sweep") or [[]]
    it = iter(seeds)
    return [[(next(it), extra) for extra in sweep] for _ in range(len(seeds) // len(sweep))]


def closed_loop(plan: list, seconds: float, run_block) -> list[dict]:
    """Run the blocks of ``plan`` in order, each command when the previous one
    has returned, until the next block would end past ``seconds``; at least
    one block runs. Each command notes the index of its block."""
    done = []
    start = time.perf_counter()
    for n, block in enumerate(plan, start=1):
        done += [dict(c, block=n - 1) for c in run_block(block)]
        if (time.perf_counter() - start) * (n + 1) / n > seconds:
            break
    return done


def check_repeats(commands: list[dict], problems: list[str]) -> None:
    """Repeated commands (same seed and arguments) must write byte-identical artifacts."""
    first: dict[tuple, str] = {}
    for c in commands:
        if "fingerprint" not in c:
            continue
        key = (c["seed"], *c["extra"])
        if first.setdefault(key, c["fingerprint"]) != c["fingerprint"]:
            c["ok"] = False
            problems.append(f"{' '.join(map(str, key))}: repeated command wrote different artifacts")


def run_workload(job: dict) -> dict:
    wl = job["workload"]
    work = Path(job["work"])
    data_dir = work / "data"
    problems: list[str] = []
    if generate(data_dir, job["data_seed"]) != 0:
        raise SystemExit("fewcast generate failed")
    out_dirs = (work / f"c{i}" for i in itertools.count())
    plan = blocks(wl, job["seeds"])

    def run_block(block):
        return [execute(wl, data_dir, next(out_dirs), seed, extra) for seed, extra in block]

    out = {"env": environment(), "problems": problems}
    if not job["trace"]:
        clock = HostClock()
        # A search's latencies come from its own timings, so samples go
        # between its evaluations; a train command's latency is its wall time
        # less the time spent sampling.
        if wl["command"] == "search":
            clock.hook_evaluations()
        else:
            clock.hook_steps()

        def run_block_sampled(block):
            done = []
            for seed, extra in block:
                clock.sample()
                sampling_s, first_eval = clock.sampling_s, len(clock.eval_starts)
                command = execute(wl, data_dir, next(out_dirs), seed, extra)
                command["wall_s"] -= clock.sampling_s - sampling_s
                command["eval_starts"] = clock.eval_starts[first_eval:]
                done.append(command)
            return done

        # The first command runs twice so that every run checks determinism.
        plan[0].insert(0, plan[0][0])
        clock.sample(force=True)
        commands = closed_loop(plan, job["seconds"], run_block_sampled)
        clock.sample(force=True)
    else:
        # Imported here so that untraced runs load neither module.
        import layers
        from spans import Tracer

        tracer = Tracer()

        def run_block_twice(block):
            """The block untraced, then traced: the same work both ways, so the
            time difference is the tracing overhead (and outputs must match)."""
            plain = run_block(block)
            tracer.install()
            try:
                traced = [dict(c, traced=True) for c in run_block(block)]
            finally:
                tracer.uninstall()
            return plain + traced

        commands = closed_loop(plan, job["seconds"], run_block_twice)
        tracer.save(Path(job["trace_out"]))
        plain = [c for c in commands if not c.get("traced")]
        traced = [c for c in commands if c.get("traced")]
        out["trace"] = {
            "plain_wall_s": sum(c["wall_s"] for c in plain),
            "wall_s": sum(c["wall_s"] for c in traced),
            "span_evals": tracer.n_evals,
            "calls": tracer.calls,
            "self_s": tracer.self_s,
        }
    for command in commands:
        inspect(command, problems)
    check_repeats(commands, problems)
    if not job["trace"]:
        for c in commands:
            start, end = c["start"], c["start"] + c["wall_s"]
            c["slowdown"] = clock.slowdown(start, end)
            starts = c.pop("eval_starts") or [start]
            c["eval_slowdown"] = [clock.slowdown(t, t + ms / 1e3) for t, ms in zip(starts, c.get("eval_ms", []))]
    out["commands"] = commands
    if job["trace"]:
        out["trace"]["evals"] = sum(c["evals"] for c in commands if c.get("traced"))
        try:
            metrics, absent = layers.measure(data_dir, job["data_seed"])
        except Exception as exc:  # keep the run: report every layer as absent
            metrics, absent = {}, {"layers": f"{type(exc).__name__}: {exc}"}
        out["layers"] = {"metrics": metrics, "absent": absent}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main() -> int:
    mode, job_path = sys.argv[1], Path(sys.argv[2])
    job = json.loads(job_path.read_text())
    result = run_setup(job) if mode == "setup" else run_workload(job)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
