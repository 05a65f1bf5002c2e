import numpy as np
import pytest

from fewcast.cli import SCORES_HEADER
from fewcast.data import (
    CSV_HEADER,
    DataError,
    TimeSeries,
    WindowPair,
    Windows,
    build_bundle,
    csv_text,
    denormalize,
    generate_synthetic_tasks,
    load_csv,
    make_windows,
    normalize,
    read_rows,
    split_support_query,
    synthetic_task_params,
)


def series(values, task_id="t"):
    return TimeSeries(task_id=task_id, values=np.asarray(values, dtype=np.float64))


class TestGenerator:
    def test_length_contract(self):
        out = generate_synthetic_tasks("synthetic", 1, 168, seed=7)
        assert len(out) == 1
        assert out[0].values.shape == (168,)
        assert np.all(np.isfinite(out[0].values))

    def test_determinism(self):
        a = generate_synthetic_tasks("synthetic", 3, 168, seed=7)
        b = generate_synthetic_tasks("synthetic", 3, 168, seed=7)
        for sa, sb in zip(a, b):
            assert sa.task_id == sb.task_id
            assert sa.values.tobytes() == sb.values.tobytes()

    def test_different_seeds_differ(self):
        a = generate_synthetic_tasks("synthetic", 1, 168, seed=1)[0]
        b = generate_synthetic_tasks("synthetic", 1, 168, seed=2)[0]
        assert not np.array_equal(a.values, b.values)

    def test_pv_night_hours_are_zero(self):
        # Oracle: evaluate the generator's day mask directly from the sampled
        # parameters; night indices must carry exactly zero.
        tasks = generate_synthetic_tasks("pv", 4, 168, seed=3)
        assert len(tasks) == 4
        for i, task in enumerate(tasks):
            params = synthetic_task_params("pv", i, seed=3)
            night = np.sin(2.0 * np.pi * (np.arange(168) - params["phase"]) / 24.0) <= 0.0
            assert night.any()
            assert np.all(task.values[night] == 0.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_synthetic_tasks("synthetic", 0, 168, seed=1)
        with pytest.raises(ValueError):
            generate_synthetic_tasks("synthetic", 1, 1, seed=1)
        with pytest.raises(ValueError):
            generate_synthetic_tasks("nope", 1, 168, seed=1)


class TestNormalize:
    def test_affine_map(self):
        out = normalize(series([2.0, 4.0, 6.0]))
        assert np.allclose(out.values, [0.0, 0.5, 1.0])
        assert out.norm == (2.0, 6.0)

    def test_constant_series_degenerate(self):
        out = normalize(series([5.0, 5.0, 5.0]))
        assert np.all(out.values == 0.0)
        assert out.norm == (5.0, 5.0)

    def test_given_scaler_replaces_own_min_max(self):
        out = normalize(series([2.0, 4.0, 6.0]), norm=[0, 8])
        assert out.values.tolist() == [0.25, 0.5, 0.75]
        assert out.norm == (0.0, 8.0) and all(type(v) is float for v in out.norm)
        assert normalize(series([1.0, 3.0]), norm=[]).norm == (1.0, 3.0)  # empty: the series' own
        assert np.all(normalize(series([1.0, 3.0]), norm=(2.0, 2.0)).values == 0.0)

    def test_round_trip_inverse(self):
        raw = series(np.random.default_rng(0).uniform(-3, 9, 50))
        out = normalize(raw)
        back = denormalize(out.values, out.norm)
        assert np.max(np.abs(back - raw.values)) < 1e-12

    def test_range_invariant(self):
        out = normalize(series(np.random.default_rng(1).normal(size=100)))
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0


class TestWindows:
    def test_enumeration(self):
        pairs = make_windows(series([1.0, 2.0, 3.0, 4.0]), window=2)
        assert len(pairs) == 2
        assert np.array_equal(pairs[0].x, [1.0, 2.0]) and pairs[0].y == 3.0
        assert np.array_equal(pairs[1].x, [2.0, 3.0]) and pairs[1].y == 4.0

    def test_count_formula(self):
        s = series(np.arange(168, dtype=float))
        assert len(make_windows(s, window=24)) == 168 - 24

    def test_window_zero_rejected(self):
        with pytest.raises(ValueError):
            make_windows(series([1.0, 2.0]), window=0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            make_windows(series([1.0, 2.0]), window=2)

    def test_same_bytes_as_per_pair_construction(self):
        values = np.random.default_rng(3).uniform(size=50)
        w = 7
        windows = make_windows(series(values), window=w)
        X = np.stack([values[i : i + w].copy() for i in range(50 - w)])
        y = np.array([float(values[i + w]) for i in range(50 - w)], dtype=np.float64)
        assert windows.X.tobytes() == X.tobytes() and windows.X.shape == X.shape
        assert windows.y.tobytes() == y.tobytes()

    def test_indexing_and_iteration(self):
        windows = make_windows(series(np.arange(10, dtype=float)), window=3)
        assert isinstance(windows[1], WindowPair) and windows[1].y == 4.0
        assert isinstance(windows[:4], Windows) and len(windows[:4]) == 4
        picked = windows[np.array([5, 0])]
        assert [p.y for p in picked] == [8.0, 3.0]
        assert np.array_equal(picked.X, [[5.0, 6.0, 7.0], [0.0, 1.0, 2.0]])
        assert [p.y for p in windows] == list(np.arange(3.0, 10.0))

    def test_reconstruction_property(self):
        # First lag of each window plus the trailing targets rebuilds the series.
        values = np.random.default_rng(2).uniform(size=40)
        w = 5
        pairs = make_windows(series(values), window=w)
        rebuilt = np.concatenate([[p.x[0] for p in pairs], pairs[-1].x[1:], [pairs[-1].y]])
        assert np.array_equal(rebuilt, values)


class TestSplit:
    def test_ten_pairs_gives_eight_support(self):
        pairs = make_windows(series(np.arange(12, dtype=float)), window=2)
        assert len(pairs) == 10
        ds = split_support_query(pairs, seed=0)
        assert len(ds.support) == 8 and len(ds.query) == 2

    def test_five_pairs_gives_four_support(self):
        # round(0.8 * 5) = 4 by plain arithmetic
        pairs = make_windows(series(np.arange(7, dtype=float)), window=2)
        ds = split_support_query(pairs, seed=1)
        assert len(ds.support) == 4 and len(ds.query) == 1

    def test_two_pairs_keep_one_query_pair(self):
        # round(0.8 * 2) = 2 would leave the query pool empty
        pairs = make_windows(series(np.arange(4, dtype=float)), window=2)
        ds = split_support_query(pairs, seed=2)
        assert len(ds.support) == 1 and len(ds.query) == 1

    def test_determinism(self):
        pairs = make_windows(series(np.arange(20, dtype=float)), window=3)
        a = split_support_query(pairs, seed=5)
        b = split_support_query(pairs, seed=5)
        assert [p.y for p in a.support] == [p.y for p in b.support]
        assert [p.y for p in a.query] == [p.y for p in b.query]

    def test_disjoint_and_complete(self):
        pairs = make_windows(series(np.arange(30, dtype=float)), window=4)
        ds = split_support_query(pairs, seed=9)
        support_ys = {p.y for p in ds.support}
        query_ys = {p.y for p in ds.query}
        assert not support_ys & query_ys
        assert len(ds.support) + len(ds.query) == len(pairs)

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            split_support_query([make_windows(series([1.0, 2.0, 3.0]), 2)[0]], seed=0)


class TestCsv:
    @pytest.mark.parametrize("header", [CSV_HEADER, SCORES_HEADER])
    def test_read_rows_skips_blanks_and_strips_fields(self, tmp_path, header):
        n = header.count(",") + 1
        path = tmp_path / "rows.csv"
        path.write_text(f"{header}\n\n" + " , ".join(["a"] * n) + "\n   \n" + ",".join(["b "] * n) + "\n\n")
        assert list(read_rows(path, header)) == [(3, ["a"] * n), (5, ["b"] * n)]
        path.write_text(f"{header}\n" + ",".join(["a"] * n) + "\n\n" + ",".join(["b"] * (n + 1)) + "\n")
        with pytest.raises(DataError, match=f":4: expected {n} comma-separated fields, got {n + 1}"):
            list(read_rows(path, header))

    def test_direct_mapping(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("task_id,timestamp,value\nA,0,1.0\nA,1,2.0\n")
        out = load_csv(path)
        assert len(out) == 1
        assert out[0].task_id == "A"
        assert np.array_equal(out[0].values, [1.0, 2.0])

    def test_two_tasks(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("task_id,timestamp,value\nA,0,1.0\nB,0,3.0\nA,1,2.0\n")
        out = load_csv(path)
        assert {s.task_id for s in out} == {"A", "B"}

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("task_id,timestamp,value\nA,0,1.0\nA,1,abc\n")
        with pytest.raises(DataError, match=":3:"):
            load_csv(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("task_id,timestamp,value\nA,0,1.0\nA,0,2.0\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path)

    def test_span_beyond_float64_rejected(self, tmp_path):
        # each value is finite, but max - min, which normalize divides by, is not
        path = tmp_path / "span.csv"
        path.write_text("task_id,timestamp,value\nA,0,-1e308\nA,1,1e308\nB,0,1e308\n")
        with pytest.raises(DataError, match="'A' span more than a float64"):
            load_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("A,0,1.0\n")
        with pytest.raises(DataError, match="header"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path)

    def test_rows_ordered_by_timestamp(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("task_id,timestamp,value\nA,2,3.0\nA,0,1.0\nA,1,2.0\n")
        out = load_csv(path)
        assert np.array_equal(out[0].values, [1.0, 2.0, 3.0])

    def test_round_trip_exact(self, tmp_path):
        tasks = generate_synthetic_tasks("wind", 3, 168, seed=11)
        path = tmp_path / "h.csv"
        path.write_text(csv_text(tasks))
        back = load_csv(path)
        assert len(back) == len(tasks)
        for orig, loaded in zip(tasks, back):
            assert loaded.task_id == orig.task_id
            assert loaded.values.tobytes() == orig.values.tobytes()


class TestBundle:
    def test_slices_disjoint_and_sized(self):
        tasks = generate_synthetic_tasks("synthetic", 5, 168, seed=0)
        bundle = build_bundle(tasks[:4], tasks[4], window=24, seed=0)
        assert len(bundle.train_tasks) == 4
        # 144 windows: validation 115 (80%), test the last 24 targets
        assert len(bundle.validation) == 115
        assert len(bundle.test) == 24
        val_ys = {p.y for p in bundle.validation}
        test_ys = [p.y for p in bundle.test]
        target = normalize(tasks[4])
        assert np.array_equal(test_ys, target.values[-24:])
        assert not val_ys & set(test_ys) or len(val_ys & set(test_ys)) < len(test_ys)

    def test_arrays_read_only(self):
        tasks = generate_synthetic_tasks("synthetic", 5, 168, seed=0)
        bundle = build_bundle(tasks[:4], tasks[4], window=24, seed=0)
        pools = [bundle.validation, bundle.test]
        pools += [pool for t in bundle.train_tasks for pool in (t.support, t.query)]
        for pool in pools:
            assert not pool.X.flags.writeable and not pool.y.flags.writeable
            with pytest.raises(ValueError):
                pool.X[0, 0] = 1.0

    def test_duplicate_target_id_rejected(self):
        tasks = generate_synthetic_tasks("synthetic", 2, 168, seed=0)
        with pytest.raises(ValueError):
            build_bundle(tasks, tasks[0], window=24, seed=0)

    def test_repeated_training_id_rejected(self):
        # as when two train_*.csv files hold one task: its windows would count twice
        tasks = generate_synthetic_tasks("synthetic", 3, 168, seed=0)
        with pytest.raises(DataError, match="training task id 'synthetic-00' appears more than once"):
            build_bundle([tasks[0], tasks[1], tasks[0]], tasks[2], window=24, seed=0)
