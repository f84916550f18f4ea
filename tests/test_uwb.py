"""UWB dataset ingestion, range model, and localization runs."""

import math

import numpy as np
import pytest

from sorfilt import (
    AnchorSet,
    DatasetError,
    StepRecord,
    encode_measurements,
    load_dataset,
    make_synthetic_dataset,
    run_localization,
    uwb_measurement_model,
    validate_model,
)
from sorfilt.cli import main
from sorfilt.uwb import DEFAULT_NOISE_VAR


def _toy_dataset():
    anchors = AnchorSet(
        ids=("a", "b", "c"),
        positions=np.array([[0.0, 0.0, 2.5], [4.0, 0.0, 2.5], [0.0, 4.0, 3.0]]),
    )
    steps = [
        StepRecord(1, (0.5, 0.5), (1.0, 3.5, None)),
        StepRecord(2, (1.0, 0.5), (None, 3.0, 4.25)),
        StepRecord(3, (1.5, 0.5), (None, None, None)),
    ]
    return anchors, steps


class TestAnchorSet:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            AnchorSet(ids=("a", "a"), positions=np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            AnchorSet(ids=("a",), positions=np.array([[np.nan, 0.0, 0.0]]))

    def test_len(self):
        anchors, _ = _toy_dataset()
        assert len(anchors) == 3


class TestStepRecord:
    def test_active_count(self):
        _, steps = _toy_dataset()
        assert [s.active_count for s in steps] == [2, 2, 0]

    def test_rejects_more_than_four_readings(self):
        with pytest.raises(ValueError, match="more than 4"):
            StepRecord(1, (0.0, 0.0), (1.0, 1.0, 1.0, 1.0, 1.0))

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError, match=">= 0"):
            StepRecord(1, (0.0, 0.0), (-0.5, None))

    @pytest.mark.parametrize("reading", [math.nan, math.inf, np.float64(-math.inf), "x"])
    def test_rejects_non_finite_range(self, reading):
        with pytest.raises(ValueError, match="step 7: ranges must be finite"):
            StepRecord(7, (0.0, 0.0), (1.0, reading))

    def test_rejects_non_finite_truth(self):
        with pytest.raises(ValueError, match="finite"):
            StepRecord(1, (np.inf, 0.0), (None,))


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        # _toy_dataset in the CSV layout
        anchors, steps = _toy_dataset()
        (tmp_path / "anchors.csv").write_text(
            "id,x,y,z\na,0.0,0.0,2.5\nb,4.0,0.0,2.5\nc,0.0,4.0,3.0\n"
        )
        (tmp_path / "steps.csv").write_text(
            "step,truth_x,truth_y,a,b,c\n"
            "1,0.5,0.5,1.0,3.5,\n2,1.0,0.5,,3.0,4.25\n3,1.5,0.5,,,\n"
        )
        loaded_anchors, loaded_steps = load_dataset(tmp_path)
        assert loaded_anchors.ids == anchors.ids
        assert np.array_equal(loaded_anchors.positions, anchors.positions)
        assert len(loaded_steps) == len(steps)
        for orig, back in zip(steps, loaded_steps):
            assert back.step_index == orig.step_index
            assert np.array_equal(back.truth, orig.truth)
            assert back.ranges == orig.ranges

    def test_missing_files_reported(self, tmp_path):
        with pytest.raises(DatasetError, match="missing dataset file"):
            load_dataset(tmp_path)

    def test_bad_anchor_header(self, tmp_path):
        (tmp_path / "anchors.csv").write_text("id,x,y\n")
        (tmp_path / "steps.csv").write_text("step,truth_x,truth_y\n")
        with pytest.raises(DatasetError, match="header must be id,x,y,z"):
            load_dataset(tmp_path)

    def test_non_numeric_anchor_row_has_line_number(self, tmp_path):
        (tmp_path / "anchors.csv").write_text("id,x,y,z\na,0,0,2.5\nb,oops,0,2.5\n")
        (tmp_path / "steps.csv").write_text("step,truth_x,truth_y,a,b\n")
        with pytest.raises(DatasetError, match="line 3"):
            load_dataset(tmp_path)

    def test_negative_range_row_has_line_number(self, tmp_path):
        (tmp_path / "anchors.csv").write_text("id,x,y,z\na,0,0,2.5\n")
        (tmp_path / "steps.csv").write_text("step,truth_x,truth_y,a\n1,0,0,-2.0\n")
        with pytest.raises(DatasetError, match="line 2.*>= 0"):
            load_dataset(tmp_path)

    def test_wrong_field_count_has_line_number(self, tmp_path):
        (tmp_path / "anchors.csv").write_text("id,x,y,z\na,0,0,2.5\n")
        (tmp_path / "steps.csv").write_text("step,truth_x,truth_y,a\n1,0,0\n")
        with pytest.raises(DatasetError, match="line 2: expected 4 fields"):
            load_dataset(tmp_path)

    def test_unknown_anchor_column_rejected(self, tmp_path):
        (tmp_path / "anchors.csv").write_text("id,x,y,z\na,0,0,2.5\n")
        (tmp_path / "steps.csv").write_text("step,truth_x,truth_y,zz\n")
        with pytest.raises(DatasetError, match="unknown anchor ids"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("columns", ["a,a", "a,b,a"])
    def test_duplicate_anchor_column_rejected(self, tmp_path, capsys, columns):
        (tmp_path / "anchors.csv").write_text("id,x,y,z\na,0,0,2.0\nb,1,0,2.0\n")
        (tmp_path / "steps.csv").write_text(f"step,truth_x,truth_y,{columns}\n")
        with pytest.raises(DatasetError, match=r"duplicate anchor columns \['a'\]$"):
            load_dataset(tmp_path)
        code = main(["uwb", "--dataset", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("dataset error: ")

    def test_anchor_columns_reordered_to_anchor_set(self, tmp_path):
        (tmp_path / "anchors.csv").write_text("id,x,y,z\na,0,0,2.0\nb,1,0,2.0\n")
        (tmp_path / "steps.csv").write_text("step,truth_x,truth_y,b,a\n1,0,0,5.5,4.5\n")
        _, steps = load_dataset(tmp_path)
        assert steps[0].ranges == (4.5, 5.5)


class TestMeasurementModel:
    def test_345_triangle(self):
        anchors = AnchorSet(ids=("a",), positions=np.array([[0.0, 0.0, 0.0]]))
        model = uwb_measurement_model(anchors, tag_z=0.0)
        assert model.meas_fn(np.array([3.0, 4.0]))[0] == pytest.approx(5.0)

    def test_vertical_offset_only(self):
        anchors = AnchorSet(ids=("a",), positions=np.array([[1.0, 2.0, 2.0]]))
        model = uwb_measurement_model(anchors, tag_z=0.0)
        assert model.meas_fn(np.array([1.0, 2.0]))[0] == pytest.approx(2.0)

    def test_tag_height_enters_z_term(self):
        anchors = AnchorSet(ids=("a",), positions=np.array([[0.0, 0.0, 3.0]]))
        model = uwb_measurement_model(anchors, tag_z=1.5)
        assert model.meas_fn(np.array([0.0, 0.0]))[0] == pytest.approx(1.5)

    def test_eleven_anchor_dimensionality_and_noise(self):
        anchors, _ = make_synthetic_dataset(seed=0, num_steps=1)
        model = uwb_measurement_model(anchors)
        assert model.meas_dim == 11
        assert model.state_dim == 2
        assert np.allclose(model.process_cov, 0.1 * np.eye(2))
        assert np.allclose(model.meas_var_diag, 0.1)
        assert validate_model(model).ok

    def test_vectorized_matches_loop(self):
        anchors, _ = _toy_dataset()
        model = uwb_measurement_model(anchors, tag_z=0.3)
        rng = np.random.default_rng(0)
        states = rng.uniform(0.0, 5.0, size=(6, 2))
        batch = model.meas_fn(states)
        rows = np.stack([model.meas_fn(s) for s in states])
        assert np.array_equal(batch, rows)


class TestEncodeMeasurements:
    def test_sentinel_placement(self):
        _, steps = _toy_dataset()
        encoded = encode_measurements(steps, 3)
        assert np.array_equal(
            encoded,
            [[1.0, 3.5, 0.0], [0.0, 3.0, 4.25], [0.0, 0.0, 0.0]],
        )

    @pytest.mark.parametrize(
        "ranges",
        [(1.0, 3.5), (1.0, 3.5, None, None), (1.0, 3.5, None, 2.0)],
        ids=["short", "long, extra entry missing", "long, extra entry a reading"],
    )
    def test_ranges_of_another_length_are_refused(self, ranges):
        anchors, steps = _toy_dataset()
        steps[1] = StepRecord(7, (1.0, 0.5), ranges)
        with pytest.raises(ValueError, match=f"step 7: {len(ranges)} range entries for 3 anchors"):
            encode_measurements(steps, 3)
        # run_localization encodes before any filter step runs
        with pytest.raises(ValueError, match="step 7: "):
            run_localization(anchors, steps)


class TestSyntheticDataset:
    def test_shape_and_activity_invariants(self):
        anchors, steps = make_synthetic_dataset(seed=3, num_steps=120)
        assert len(anchors) == 11
        assert len(steps) == 120
        assert all(s.active_count <= 4 for s in steps)
        assert all(s.active_count >= 3 for s in steps)
        assert all(s.ranges[-1] is None for s in steps)  # permanently absent

    def test_anchor_heights_in_ceiling_band(self):
        anchors, _ = make_synthetic_dataset(seed=4, num_steps=1)
        assert np.all(anchors.positions[:, 2] >= 2.2)
        assert np.all(anchors.positions[:, 2] <= 3.0)

    def test_deterministic(self):
        a1, s1 = make_synthetic_dataset(seed=5, num_steps=30)
        a2, s2 = make_synthetic_dataset(seed=5, num_steps=30)
        assert np.array_equal(a1.positions, a2.positions)
        assert all(x.ranges == y.ranges for x, y in zip(s1, s2))

    def test_readings_near_true_distances(self):
        anchors, steps = make_synthetic_dataset(seed=6, num_steps=50)
        for record in steps:
            tag = np.array([record.truth[0], record.truth[1], 0.0])
            for j, reading in enumerate(record.ranges):
                if reading is None:
                    continue
                true_dist = np.linalg.norm(anchors.positions[j] - tag)
                assert abs(reading - true_dist) < 2.0  # ~6 sigma of sqrt(0.1)


def _stepwise_dataset(seed, num_steps):
    """Reference room, one step at a time: distances, nearest-anchor order,
    reading count and noisy ranges per step, with each step's draws in the
    documented order.  11 anchors, at most 4 readings, the last one silent."""
    num_anchors, max_active = 11, 4
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    angles = 2.0 * np.pi * np.arange(num_anchors) / num_anchors
    px = 6.0 + 5.7 * np.cos(angles)
    py = 4.0 + 3.7 * np.sin(angles)
    pz = 2.2 + 0.8 * rng.random(num_anchors)
    positions = np.column_stack([px, py, pz])
    s = np.arange(num_steps) / 200.0
    phase = np.mod(s, 2.0)
    bounce = np.where(phase > 1.0, 2.0 - phase, phase)
    truth_x = 1.0 + 10.0 * 0.5 * (1.0 - np.cos(2.0 * np.pi * 2.0 * s))
    truth = np.column_stack([truth_x, 1.0 + 6.0 * bounce])
    blocked = num_anchors - 1
    records = []
    for k in range(num_steps):
        tag = np.array([truth[k, 0], truth[k, 1], 0.0])
        dists = np.linalg.norm(positions - tag, axis=1)
        order = [j for j in np.argsort(dists) if j != blocked]
        active = set(order[: max_active - int(rng.random() < 0.2)])
        noisy = dists + np.sqrt(DEFAULT_NOISE_VAR) * rng.standard_normal(num_anchors)
        ranges = tuple(
            max(float(noisy[j]), 0.0) if j in active else None
            for j in range(num_anchors)
        )
        records.append((k + 1, truth[k], ranges))
    return positions, records


class TestSyntheticDatasetStream:
    """The batched room builder gives the step loop's records exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 29, 4021])
    def test_matches_step_loop(self, seed):
        anchors, steps = make_synthetic_dataset(seed=seed, num_steps=150)
        positions, records = _stepwise_dataset(seed, 150)
        assert np.array_equal(anchors.positions, positions)
        assert len(steps) == len(records)
        for record, (index, truth, ranges) in zip(steps, records):
            assert record.step_index == index
            assert np.array_equal(record.truth, truth)
            assert record.ranges == ranges
            assert all(r is None or type(r) is float for r in record.ranges)


class TestRunLocalization:
    def test_empty_dataset(self):
        anchors, _ = _toy_dataset()
        result = run_localization(anchors, [])
        assert len(result.estimates) == 0
        assert result.estimates.shape == (0, 2)

    @pytest.mark.parametrize("variant", ["ukf", "sor", "msor"])
    def test_empty_dataset_shapes(self, variant):
        # a RuntimeWarning (mean of an empty slice) would fail this test
        anchors, _ = _toy_dataset()
        result = run_localization(anchors, [], variant=variant)
        assert result.omegas.shape == (0, len(anchors))
        assert result.iterations.shape == (0,)
        assert result.iterations.dtype.kind == "i"
        assert result.rmse_m == 0.0

    def test_rejects_unknown_variant(self):
        anchors, steps = _toy_dataset()
        # run_filter, the one owner of the filter names, refuses it
        with pytest.raises(ValueError, match="unknown filter 'fast'"):
            run_localization(anchors, steps, variant="fast")

    def test_deterministic_replay(self):
        anchors, steps = make_synthetic_dataset(seed=7, num_steps=40)
        r1 = run_localization(anchors, steps, variant="msor", seed=9)
        r2 = run_localization(anchors, steps, variant="msor", seed=9)
        assert np.array_equal(r1.estimates, r2.estimates)
        assert np.array_equal(r1.omegas, r2.omegas)

    def test_seed_changes_initialization(self):
        anchors, steps = make_synthetic_dataset(seed=7, num_steps=10)
        r1 = run_localization(anchors, steps, variant="msor", seed=1)
        r2 = run_localization(anchors, steps, variant="msor", seed=2)
        assert not np.array_equal(r1.estimates[0], r2.estimates[0])

    def test_plain_filter_reports_unit_omegas(self):
        anchors, steps = make_synthetic_dataset(seed=8, num_steps=15)
        result = run_localization(anchors, steps, variant="ukf", seed=0)
        assert np.all(result.omegas == 1.0)
        assert np.all(result.iterations == 0)

    def test_robust_variants_localize_despite_sentinels(self):
        anchors, steps = make_synthetic_dataset(seed=9, num_steps=60)
        for variant in ("sor", "msor"):
            result = run_localization(anchors, steps, variant=variant, seed=0)
            assert result.rmse_m < 1.0
            absent_omega = result.omegas[:, -1]
            assert np.mean(absent_omega < 0.01) >= 0.8
