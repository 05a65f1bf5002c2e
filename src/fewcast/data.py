"""Multi-task time-series data handling.

Generates synthetic hourly energy tasks from a shared parametric family,
ingests task CSVs, min-max normalizes, windows series into supervised
(lags, next value) pairs, and splits each task into support/query episodes
plus a validation/test bundle for the target task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .rng import derive_seed, spawn

KINDS = ("wind", "pv", "load", "synthetic")
DEFAULT_WINDOW = 24
DEFAULT_HOURS = 168
MAX_GENERATED_VALUES = 10**6  # series x hours one generate call draws: 8 MB of float64 values
SUPPORT_FRACTION = 0.8
CSV_HEADER = "task_id,timestamp,value"


class CsvError(ValueError):
    """Malformed task CSV: bad header, bad field, or duplicate row."""


class EmptyInputError(ValueError):
    """A data source contained no rows."""


class ShortSeriesError(EmptyInputError):
    """A series holds too few values for the requested windows or slices."""


@dataclass(frozen=True)
class TimeSeries:
    """One task's raw hourly measurements.

    ``norm`` records the (lo, hi) that :func:`normalize` mapped onto (0, 1)
    so predictions can be mapped back to raw units.
    """

    task_id: str
    values: np.ndarray
    norm: tuple[float, float] | None = None


@dataclass(frozen=True)
class WindowPair:
    """Supervised pair: the ``w`` lagged values immediately preceding ``y``."""

    x: np.ndarray
    y: float


@dataclass(frozen=True, eq=False)
class Windows:
    """A set of window pairs stored as stacked arrays: row ``i`` of ``X``
    holds the lags preceding ``y[i]``.

    Indexing with a slice or an index array gives another ``Windows``; an int
    index, or iteration, gives :class:`WindowPair` rows. Both arrays are made
    read-only, because every evaluation of a search shares one bundle.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.shape != self.X.shape[:1]:
            raise ValueError(f"inputs {self.X.shape} and targets {self.y.shape} do not form window pairs")
        self.X.flags.writeable = False
        self.y.flags.writeable = False

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return WindowPair(x=self.X[index], y=float(self.y[index]))
        return Windows(self.X[index], self.y[index])

    def __iter__(self):
        return (WindowPair(x=x, y=float(y)) for x, y in zip(self.X, self.y))


def _as_windows(pairs: Windows | list[WindowPair]) -> Windows:
    return pairs if isinstance(pairs, Windows) else Windows(*pairs_to_arrays(pairs))


@dataclass(frozen=True)
class TaskDataset:
    """One task's episode pools: disjoint support and query pair sets.

    A list of pairs given for a pool is stacked into :class:`Windows` here.
    """

    task_id: str
    support: Windows
    query: Windows

    def __post_init__(self):
        object.__setattr__(self, "support", _as_windows(self.support))
        object.__setattr__(self, "query", _as_windows(self.query))


@dataclass(frozen=True)
class DataBundle:
    """Everything one experiment needs.

    ``train_tasks`` are the source tasks; ``validation`` (fine-tuning slice)
    and ``test`` (held-out reporting slice) are disjoint windows of the
    single target task.
    """

    train_tasks: list[TaskDataset]
    validation: Windows
    test: Windows
    target_norm: tuple[float, float]
    window: int


# Per-kind sampling ranges for the synthetic family: amplitude, phase (hours),
# daily-cycle shape, offset, and noise sigma. All tasks of a kind are drawn
# from the same ranges so they share one distribution. "shape" is the bump
# exponent for pv and the second-harmonic mixture weight for the other kinds;
# varying it gives each task its own lag-to-next-value mapping, so per-task
# adaptation has something real to learn.
_PARAM_RANGES = {
    "pv": {"amp": (0.6, 1.0), "phase": (-2.0, 2.0), "shape": (1.0, 2.0), "offset": (0.0, 0.0), "sigma": (0.01, 0.04)},
    "wind": {"amp": (0.3, 0.6), "phase": (0.0, 24.0), "shape": (0.0, 0.5), "offset": (0.5, 0.7), "sigma": (0.02, 0.06)},
    "load": {"amp": (0.2, 0.4), "phase": (0.0, 24.0), "shape": (0.0, 0.4), "offset": (0.8, 1.2), "sigma": (0.01, 0.05)},
    "synthetic": {"amp": (0.5, 1.0), "phase": (0.0, 24.0), "shape": (0.0, 0.7), "offset": (0.0, 0.5), "sigma": (0.02, 0.08)},
}


def synthetic_task_params(kind: str, task_index: int, seed: int) -> dict[str, float]:
    """Sample one task's generator parameters (deterministic per seed)."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    rng = spawn(seed, "task-params", kind, task_index)
    ranges = _PARAM_RANGES[kind]
    return {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in ranges.items()}


def daily_phase_component(params: dict[str, float], hours: int) -> np.ndarray:
    """sin(2*pi*(t - phase)/24) for t = 0..hours-1; the pv day mask is (this > 0)."""
    t = np.arange(hours, dtype=np.float64)
    return np.sin(2.0 * np.pi * (t - params["phase"]) / 24.0)


def _profile(kind: str, params: dict[str, float], hours: int, noise: np.ndarray) -> np.ndarray:
    daily = daily_phase_component(params, hours)
    if kind == "pv":
        # Day-masked bump: night hours are exactly zero (offset is 0, noise gated).
        mask = (daily > 0.0).astype(np.float64)
        bump = params["amp"] * np.maximum(0.0, daily) ** params["shape"]
        return mask * (bump + noise)
    t = np.arange(hours, dtype=np.float64)
    m = params["shape"]
    second = np.sin(4.0 * np.pi * (t - params["phase"]) / 24.0)
    weekly = 0.3 * params["amp"] * np.sin(2.0 * np.pi * t / 168.0)
    return params["amp"] * ((1.0 - m) * daily + m * second) + weekly + params["offset"] + noise


def generate_synthetic_tasks(kind: str, n_tasks: int, hours: int, seed: int) -> list[TimeSeries]:
    """Draw ``n_tasks`` hourly series from the shared per-kind family."""
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    if hours < 2:
        raise ValueError(f"hours must be >= 2, got {hours}")
    if n_tasks * hours > MAX_GENERATED_VALUES:
        raise ValueError(f"{n_tasks} series of {hours} hours exceed the {MAX_GENERATED_VALUES} values one call draws")
    out = []
    for i in range(n_tasks):
        params = synthetic_task_params(kind, i, seed)
        noise = params["sigma"] * spawn(seed, "task-noise", kind, i).standard_normal(hours)
        values = _profile(kind, params, hours, noise)
        out.append(TimeSeries(task_id=f"{kind}-{i:02d}", values=values))
    return out


def normalize(series: TimeSeries, norm: tuple[float, float] | None = None) -> TimeSeries:
    """Map (lo, hi) = ``norm``, by default the series' own (min, max), onto (0, 1),
    recording it for later de-normalization. A zero span maps the series to all zeros."""
    if series.values.size == 0:
        raise ValueError("cannot normalize an empty series")
    lo, hi = map(float, norm or (series.values.min(), series.values.max()))
    if hi == lo:
        return replace(series, values=np.zeros_like(series.values), norm=(lo, hi))
    return replace(series, values=(series.values - lo) / (hi - lo), norm=(lo, hi))


def denormalize(values: np.ndarray, norm: tuple[float, float]) -> np.ndarray:
    """Invert :func:`normalize` given the recorded (min, max)."""
    lo, hi = norm
    return np.asarray(values, dtype=np.float64) * (hi - lo) + lo


def make_windows(series: TimeSeries, window: int) -> Windows:
    """All (lags, next value) pairs in temporal order; exactly len - window of them."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = series.values.size
    if n < window + 1:
        raise ShortSeriesError(f"series {series.task_id!r} has {n} values; needs at least {window + 1}")
    values = series.values
    lags = np.lib.stride_tricks.sliding_window_view(values, window)[:-1].copy()
    return Windows(lags, values[window:].astype(np.float64))


def split_support_query(pairs: Windows, seed: int, task_id: str = "") -> TaskDataset:
    """Seeded uniform split with |support| = round(0.8 * n)."""
    n = len(pairs)
    if n < 2:
        raise ShortSeriesError(f"need at least 2 pairs to split, got {n}")
    n_support = round(SUPPORT_FRACTION * n)
    order = spawn(seed, "support-query").permutation(n)
    support, query = np.sort(order[:n_support]), np.sort(order[n_support:])
    return TaskDataset(task_id=task_id, support=pairs[support], query=pairs[query])


def pairs_to_arrays(pairs: Windows | list[WindowPair]) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) arrays of shape (n, w) and (n,): a :class:`Windows`'s own
    arrays, or a list of pairs stacked."""
    if not pairs:
        raise ValueError("empty pair sequence")
    if isinstance(pairs, Windows):
        return pairs.X, pairs.y
    X = np.stack([p.x for p in pairs])
    y = np.array([p.y for p in pairs], dtype=np.float64)
    return X, y


def build_bundle(
    train_series: list[TimeSeries],
    target_series: TimeSeries,
    window: int = DEFAULT_WINDOW,
    test_horizon: int = 24,
    seed: int = 0,
    target_norm: tuple[float, float] | None = None,
) -> DataBundle:
    """Normalize, window, and split everything into a DataBundle.

    The target is normalized by ``target_norm`` (default: its own min/max),
    each training series by its own. The target's windows are cut into a
    leading validation slice (first 80%, capped so it stays disjoint) and a
    trailing test slice of up to ``test_horizon`` targets.
    """
    if test_horizon < 1:
        raise ValueError(f"test_horizon must be >= 1, got {test_horizon}")
    if any(s.task_id == target_series.task_id for s in train_series):
        raise ValueError(f"target task id {target_series.task_id!r} also appears in the training tasks")
    target = normalize(target_series, target_norm)
    target_pairs = make_windows(target, window)
    n = len(target_pairs)
    if n < 2:
        raise ShortSeriesError("target series too short to carve validation and test slices")
    n_test = min(test_horizon, n - 1)
    n_val = min(round(SUPPORT_FRACTION * n), n - n_test)
    tasks = []
    for s in train_series:
        pairs = make_windows(normalize(s), window)
        tasks.append(split_support_query(pairs, derive_seed(seed, "episode-split", s.task_id), task_id=s.task_id))
    return DataBundle(
        train_tasks=tasks,
        validation=target_pairs[:n_val],
        test=target_pairs[n - n_test :],
        target_norm=target.norm,
        window=window,
    )


def csv_text(series_list: list[TimeSeries]) -> str:
    """Series under the ``task_id,timestamp,value`` schema (round-trip exact)."""
    lines = [CSV_HEADER]
    for s in series_list:
        for t, v in enumerate(s.values):
            lines.append(f"{s.task_id},{t},{float(v)!r}")
    return "\n".join(lines) + "\n"


def read_text(path) -> str:
    """The file as UTF-8 text; undecodable bytes raise :class:`CsvError`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CsvError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_csv(path) -> list[TimeSeries]:
    """Parse a task CSV into one TimeSeries per task_id, ordered by timestamp.

    Raises :class:`CsvError` naming the offending line, or
    :class:`EmptyInputError` for a file with no content.
    """
    lines = read_text(path).splitlines()
    if not lines or not any(line.strip() for line in lines):
        raise EmptyInputError(f"{path}: file is empty")
    if lines[0].strip() != CSV_HEADER:
        raise CsvError(f"{path}:1: expected header {CSV_HEADER!r}, got {lines[0]!r}")
    rows: dict[str, dict[int, float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise CsvError(f"{path}:{lineno}: expected 3 comma-separated fields, got {len(parts)}")
        task_id, ts_text, value_text = parts
        try:
            ts = int(ts_text)
        except ValueError:
            raise CsvError(f"{path}:{lineno}: timestamp {ts_text!r} is not an integer") from None
        if ts < 0:
            raise CsvError(f"{path}:{lineno}: timestamp must be non-negative, got {ts}")
        try:
            value = float(value_text)
        except ValueError:
            raise CsvError(f"{path}:{lineno}: value {value_text!r} is not numeric") from None
        if not math.isfinite(value):
            raise CsvError(f"{path}:{lineno}: value {value_text!r} is not finite")
        per_task = rows.setdefault(task_id, {})
        if ts in per_task:
            raise CsvError(f"{path}:{lineno}: duplicate (task_id, timestamp) = ({task_id}, {ts})")
        per_task[ts] = value
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    out = []
    for task_id, stamped in rows.items():
        if not math.isfinite(max(stamped.values()) - min(stamped.values())):  # normalize divides by this span
            raise CsvError(f"{path}: the values of task {task_id!r} span more than a float64 can hold")
        values = np.array([stamped[t] for t in sorted(stamped)], dtype=np.float64)
        out.append(TimeSeries(task_id=task_id, values=values))
    return out
