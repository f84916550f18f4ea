"""Coordinated-turn world: dynamics, sensors, corruption."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from sorfilt import (
    TRACKING_X0,
    CorruptionConfig,
    SensorField,
    TurnModelConfig,
    chol_lower,
    make_tracking_model,
    process_noise_cov,
    simulate_trajectory,
    turn_transition,
    validate_model,
)
from sorfilt.tracking import (
    _corrupt_draws,
    clean_measurement,
    nominal_sigmas,
    sample_gamma,
)


# omega at and around the constant-velocity limit |omega| < 1e-9
_EDGE_OMEGAS = [
    sign * w
    for w in (0.0, 5e-324, math.nextafter(1e-9, 0.0), 1e-9, 2e-9)
    for sign in (1.0, -1.0)
]


class TestTurnTransition:
    def test_constant_velocity_limit(self):
        out = turn_transition(np.array([0.0, 1.0, 0.0, 1.0, 0.0]), TurnModelConfig())
        assert np.allclose(out, [1.0, 1.0, 1.0, 1.0, 0.0])

    def test_half_turn_negates_velocity(self):
        state = np.array([5.0, 2.0, -3.0, 1.0, np.pi])
        out = turn_transition(state, TurnModelConfig())
        assert out[1] == pytest.approx(-2.0, abs=1e-12)
        assert out[3] == pytest.approx(-1.0, abs=1e-12)
        assert out[4] == pytest.approx(np.pi)

    def test_reference_start_state_by_scalar_formulas(self):
        a, adot, b, bdot, w = TRACKING_X0
        dt = 1.0
        out = turn_transition(TRACKING_X0, TurnModelConfig(dt=dt))
        sin_w, cos_w = math.sin(w * dt), math.cos(w * dt)
        assert out[0] == pytest.approx(a + sin_w / w * adot - (1 - cos_w) / w * bdot)
        assert out[1] == pytest.approx(cos_w * adot - sin_w * bdot)
        assert out[2] == pytest.approx(b + (1 - cos_w) / w * adot + sin_w / w * bdot)
        assert out[3] == pytest.approx(sin_w * adot + cos_w * bdot)
        assert out[4] == w

    def test_chord_rotation_identity(self):
        # position displacement equals the chord 2 sin(w dt/2)/w rotated by w dt/2
        rng = np.random.default_rng(0)
        for _ in range(50):
            state = rng.standard_normal(5) * np.array([100, 5, 100, 5, 0.3])
            if abs(state[4]) < 1e-6:
                state[4] = 0.1
            dt = float(rng.uniform(0.1, 3.0))
            out = turn_transition(state, TurnModelConfig(dt=dt))
            w = state[4]
            half = 0.5 * w * dt
            rot = np.array(
                [[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]]
            )
            chord = (2.0 * np.sin(half) / w) * (rot @ state[[1, 3]])
            assert np.allclose(out[[0, 2]] - state[[0, 2]], chord, atol=1e-9)

    def test_speed_preserved_under_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            state = rng.standard_normal(5)
            state[4] = rng.uniform(-2.0, 2.0)
            out = turn_transition(state, TurnModelConfig())
            assert np.hypot(out[1], out[3]) == pytest.approx(
                np.hypot(state[1], state[3]), abs=1e-10
            )

    def test_continuity_at_cv_branch(self):
        state = np.array([10.0, 3.0, -4.0, 2.0, 0.0])
        tiny = state.copy()
        tiny[4] = 1e-10  # below the CV threshold
        near = state.copy()
        near[4] = 1e-8  # just above it
        cfg = TurnModelConfig()
        a = turn_transition(tiny, cfg)
        b = turn_transition(near, cfg)
        assert np.allclose(a[:4], b[:4], atol=1e-7)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(2)
        states = rng.standard_normal((10, 5))
        cfg = TurnModelConfig(dt=0.5)
        batch = turn_transition(states, cfg)
        rows = np.stack([turn_transition(s, cfg) for s in states])
        assert np.array_equal(batch, rows)

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-2e4, 2e4),
                st.floats(-50.0, 50.0),
                st.floats(-2e4, 2e4),
                st.floats(-50.0, 50.0),
                st.one_of(
                    st.sampled_from(_EDGE_OMEGAS),
                    st.floats(-3.0, 3.0),
                    # every scale from below the limit up to 3
                    st.builds(
                        lambda sign, exponent: sign * 10.0**exponent,
                        st.sampled_from([1.0, -1.0]),
                        st.floats(-12.0, 0.5),
                    ),
                ),
            ),
            min_size=1,
            max_size=8,
        ),
        dt=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_one_state_equals_its_batch_row_bit_for_bit(self, rows, dt):
        # a single state takes the Python-float path, a batch the array path
        states = np.array(rows)
        cfg = TurnModelConfig(dt=dt)
        batch = turn_transition(states, cfg)
        for state, row in zip(states, batch):
            assert turn_transition(state, cfg).tobytes() == row.tobytes()

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-2e4, 2e4),
                st.floats(-50.0, 50.0),
                st.floats(-2e4, 2e4),
                st.floats(-50.0, 50.0),
                st.one_of(st.sampled_from(_EDGE_OMEGAS), st.floats(-3.0, 3.0)),
            ),
            min_size=1,
            max_size=12,
        ),
        dt=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_batch_equals_a_row_by_row_move_bit_for_bit(self, rows, dt):
        # the batch runs on the transposed (5, N) layout; each row moved as a
        # batch of one, and the batch as a (1, N, 5) stack, give the same bits
        states = np.array(rows)
        cfg = TurnModelConfig(dt=dt)
        batch = turn_transition(states, cfg)
        assert batch.shape == states.shape and batch.flags.c_contiguous
        rows_moved = np.concatenate([turn_transition(s[None, :], cfg) for s in states])
        assert batch.tobytes() == rows_moved.tobytes()
        assert turn_transition(states[None], cfg).tobytes() == batch.tobytes()

    @pytest.mark.parametrize(
        "state,warning",
        [
            ([1.0, 2.0, 3.0, 4.0, np.inf], "invalid value encountered"),
            ([1.0, 2.0, 3.0, 4.0, -np.inf], "invalid value encountered"),
            # finite, but a + coef_a * a_dot overflows
            ([1e308, 1e308, 0.0, 0.0, 0.1], "overflow encountered"),
        ],
    )
    def test_non_finite_result_warns_as_the_batch_does(self, state, warning):
        cfg = TurnModelConfig()
        with pytest.warns(RuntimeWarning, match=warning):
            out = turn_transition(np.array(state), cfg)
        with pytest.warns(RuntimeWarning, match=warning):
            batch = turn_transition(np.array([state, [0.0, 1.0, 0.0, 1.0, 0.1]]), cfg)
        assert not np.isfinite(out[:4]).all()
        assert np.array_equal(out, batch[0], equal_nan=True)
        if np.isinf(state[4]):
            assert np.isnan(out[:4]).all() and out[4] == state[4]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TurnModelConfig(dt=0.0)
        with pytest.raises(ValueError):
            TurnModelConfig(eta1=-1.0)


class TestProcessNoiseCov:
    def test_reference_values(self):
        q = process_noise_cov(TurnModelConfig())
        m_block = 0.1 * np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
        assert np.allclose(q[:2, :2], m_block)
        assert np.allclose(q[2:4, 2:4], m_block)
        assert q[4, 4] == pytest.approx(1.75e-4)
        off = q.copy()
        off[:2, :2] = 0.0
        off[2:4, 2:4] = 0.0
        off[4, 4] = 0.0
        assert np.allclose(off, 0.0)

    def test_dt2_polynomial_values(self):
        q = process_noise_cov(TurnModelConfig(dt=2.0, eta1=1.0, eta2=0.5))
        assert np.allclose(q[:2, :2], [[8.0 / 3.0, 2.0], [2.0, 2.0]])
        assert q[4, 4] == pytest.approx(0.5)

    def test_always_symmetric_psd(self):
        for dt in (0.1, 1.0, 3.0):
            for eta1 in (0.0, 0.1, 5.0):
                q = process_noise_cov(TurnModelConfig(dt=dt, eta1=eta1, eta2=1e-4))
                assert np.array_equal(q, q.T)
                assert np.all(np.linalg.eigvalsh(q) >= -1e-12)


class TestSensorField:
    def test_paper_lattice_m6(self):
        field = SensorField.lattice(3)
        assert np.array_equal(field.bearing_pos, [[0, 350], [350, 0], [700, 350]])
        assert np.array_equal(field.range_pos, [[0, 0], [350, 350], [700, 0]])
        assert field.meas_dim == 6

    def test_lattice_formula_general(self):
        field = SensorField.lattice(4)
        for j in range(1, 5):
            assert np.array_equal(
                field.bearing_pos[j - 1], [350 * (j - 1), 350 * (j % 2)]
            )
            assert np.array_equal(
                field.range_pos[j - 1], [350 * (j - 1), 350 * ((j - 1) % 2)]
            )

    def test_rejects_mismatched_positions(self):
        with pytest.raises(ValueError):
            SensorField(bearing_pos=np.zeros((2, 2)), range_pos=np.zeros((3, 2)))


class TestCleanMeasurement:
    def test_diagonal_bearing(self):
        field = SensorField(bearing_pos=np.zeros((1, 2)), range_pos=np.zeros((1, 2)))
        out = clean_measurement(np.array([100.0, 0.0, 100.0, 0.0, 0.0]), field)
        assert out[0] == pytest.approx(np.pi / 4.0)

    def test_345_range(self):
        field = SensorField(bearing_pos=np.array([[1.0, 1.0]]), range_pos=np.zeros((1, 2)))
        out = clean_measurement(np.array([3.0, 0.0, 4.0, 0.0, 0.0]), field)
        assert out[1] == pytest.approx(5.0)

    def test_reference_position_against_scalar_reimplementation(self):
        field = SensorField.lattice(3)
        state = TRACKING_X0
        out = clean_measurement(state, field)
        a, b = state[0], state[2]
        for j in range(3):
            sa, sb = field.bearing_pos[j]
            assert out[j] == pytest.approx(math.atan2(b - sb, a - sa), abs=1e-14)
            ra, rb = field.range_pos[j]
            assert out[3 + j] == pytest.approx(
                math.sqrt((a - ra) ** 2 + (b - rb) ** 2), rel=1e-14
            )

    def test_coincident_bearing_sensor_rejected(self):
        field = SensorField.lattice(1)
        state = np.array([0.0, 1.0, 350.0, 1.0, 0.0])  # exactly on bearing sensor 1
        with pytest.raises(ValueError, match="coincides"):
            clean_measurement(state, field)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(3)
        field = SensorField.lattice(3)
        states = rng.uniform(-1000, 1000, size=(8, 5))
        batch = clean_measurement(states, field)
        rows = np.stack([clean_measurement(s, field) for s in states])
        assert np.array_equal(batch, rows)


def _corrupted(clean, cfg, rng, gamma, rows=None):
    """(values, flags) of _corrupt_draws, the formula simulate_trajectory
    corrupts its readings with, on uniforms and standard normals drawn from
    rng: one corrupted copy of clean, or rows of them."""
    m = np.size(clean)
    shape = (m,) if rows is None else (rows, m)
    uniforms, normals = rng.random(shape), rng.standard_normal(shape)
    return _corrupt_draws(clean, uniforms, normals, nominal_sigmas(cfg, m), cfg, gamma)


class TestCorrupt:
    def test_lambda_zero_is_pure_nominal_noise(self):
        rng = np.random.default_rng(4)
        cfg = CorruptionConfig(mode="outliers", lam=0.0)
        clean = np.zeros(6)
        draws, _ = _corrupted(clean, cfg, rng, sample_gamma(cfg, rng), rows=4000)
        sigmas = nominal_sigmas(cfg, 6)
        assert np.allclose(draws.mean(axis=0), 0.0, atol=4.0 * sigmas / np.sqrt(4000))
        assert np.allclose(draws.std(axis=0), sigmas, rtol=0.1)

    def test_lambda_one_missing_is_all_zeros(self):
        rng = np.random.default_rng(5)
        cfg = CorruptionConfig(mode="missing", lam=1.0)
        values, flags = _corrupted(np.full(6, 7.0), cfg, rng, sample_gamma(cfg, rng))
        assert np.array_equal(values, np.zeros(6))
        assert flags.all()

    def test_missing_sentinel_exact_and_others_noisy(self):
        rng = np.random.default_rng(6)
        cfg = CorruptionConfig(mode="missing", lam=0.5)
        clean = np.full(6, 100.0)
        values, flags = _corrupted(clean, cfg, rng, sample_gamma(cfg, rng), rows=50)
        assert np.all(values[flags] == 0.0)
        assert np.all(values[~flags] != 100.0)  # noise is continuous

    def test_corruption_frequency_lambda_03(self):
        rng = np.random.default_rng(7)
        cfg = CorruptionConfig(mode="outliers", lam=0.3, gamma_law=100.0)
        trials = 100_000
        _, flags = _corrupted(np.zeros(6), cfg, rng, 100.0, rows=trials)
        hits = flags.sum(axis=0)
        assert np.all(np.abs(hits / trials - 0.3) <= 0.01)

    def test_gamma_one_indistinguishable_from_nominal(self):
        cfg = CorruptionConfig(mode="outliers", lam=0.5, gamma_law=1.0)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            values, _ = _corrupted(np.zeros(6), cfg, rng, 1.0, rows=17_000)
            samples = values[:, 3:].ravel()[:100_000]  # pool the range dims
            result = stats.kstest(samples, "norm", args=(0.0, cfg.sigma_rho))
            assert result.pvalue > 0.01

    def test_outlier_dims_scale_with_gamma(self):
        rng = np.random.default_rng(8)
        gamma = 400.0
        cfg = CorruptionConfig(mode="outliers", lam=0.5, gamma_law=gamma)
        values, flags = _corrupted(np.zeros(6), cfg, rng, gamma, rows=20_000)
        flagged = values[:, 3:][flags[:, 3:]]
        clean_hits = values[:, 3:][~flags[:, 3:]]
        assert np.std(flagged) == pytest.approx(np.sqrt(gamma) * cfg.sigma_rho, rel=0.05)
        assert np.std(clean_hits) == pytest.approx(cfg.sigma_rho, rel=0.05)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CorruptionConfig(mode="weird")
        with pytest.raises(ValueError):
            CorruptionConfig(lam=1.5)
        with pytest.raises(ValueError):
            CorruptionConfig(gamma_law=0.5)
        with pytest.raises(ValueError):
            CorruptionConfig(gamma_law=(200.0, 100.0))

    def test_sample_gamma_laws(self):
        rng = np.random.default_rng(9)
        fixed = CorruptionConfig(gamma_law=250.0)
        assert sample_gamma(fixed, rng) == 250.0
        interval = CorruptionConfig(gamma_law=(100.0, 1000.0))
        draws = [sample_gamma(interval, rng) for _ in range(100)]
        assert all(100.0 <= g <= 1000.0 for g in draws)
        assert np.std(draws) > 0.0


class TestSimulateTrajectory:
    def _run(self, seed, **kwargs):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        cfg = dict(
            turn_cfg=TurnModelConfig(),
            field=SensorField.lattice(3),
            corruption=CorruptionConfig(mode="outliers", lam=0.3, gamma_law=(100.0, 1000.0)),
            num_steps=40,
        )
        cfg.update(kwargs)
        return simulate_trajectory(rng=rng, **cfg)

    def test_shapes(self):
        traj = self._run(0)
        assert traj.states.shape == (40, 5)
        assert traj.clean.shape == (40, 6)
        assert traj.measurements.shape == (40, 6)
        assert traj.flags.shape == (40, 6)
        assert traj.positions.shape == (40, 2)

    def test_deterministic_replay(self):
        a, b = self._run(42), self._run(42)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.measurements, b.measurements)
        assert np.array_equal(a.flags, b.flags)
        assert a.gamma == b.gamma

    def test_different_seeds_differ(self):
        assert not np.array_equal(self._run(1).states, self._run(2).states)

    def test_clean_channel_consistent_with_states(self):
        traj = self._run(3)
        field = SensorField.lattice(3)
        rebuilt = np.stack([clean_measurement(s, field) for s in traj.states])
        assert np.array_equal(traj.clean, rebuilt)

    def test_gamma_fixed_within_run(self):
        # flagged range residuals must match this run's single gamma draw, not
        # the interval average, which a per-step redraw would produce
        traj = self._run(4, corruption=CorruptionConfig(
            mode="outliers", lam=0.9, gamma_law=(100.0, 1000.0)
        ), num_steps=600)
        resid = traj.measurements[:, 3:] - traj.clean[:, 3:]
        flagged = resid[traj.flags[:, 3:]]
        assert flagged.size > 1000
        measured = np.std(flagged) / 10.0  # sigma_rho = 10
        assert measured == pytest.approx(np.sqrt(traj.gamma), rel=0.1)

    def test_missing_mode_zeros(self):
        traj = self._run(5, corruption=CorruptionConfig(mode="missing", lam=0.4))
        assert np.all(traj.measurements[traj.flags] == 0.0)


def _stepwise_trajectory(turn_cfg, field, corruption, num_steps, rng):
    """Reference simulation, one step at a time: the state recursion, the
    clean reading and the corruption formula each run on one vector, with
    the draws of every step in the documented order."""
    m = field.meas_dim
    q_root = chol_lower(process_noise_cov(turn_cfg), "process cov")
    gamma = sample_gamma(corruption, rng)
    sigmas = nominal_sigmas(corruption, m)
    states, clean, values, flags = [], [], [], []
    x = np.asarray(TRACKING_X0, dtype=float)
    for _ in range(num_steps):
        x = turn_transition(x, turn_cfg) + q_root @ rng.standard_normal(5)
        y = clean_measurement(x, field)
        hit = rng.random(m) < corruption.lam
        noise = rng.standard_normal(m)
        if corruption.mode == "outliers":
            reading = y + np.where(hit, np.sqrt(gamma) * sigmas, sigmas) * noise
        else:
            reading = np.where(hit, 0.0, y + sigmas * noise)
        states.append(x)
        clean.append(y)
        values.append(reading)
        flags.append(hit)
    return np.array(states), np.array(clean), np.array(values), np.array(flags), gamma


class TestRandomStreams:
    """The batched simulator draws exactly what the step loop draws, so
    seeds keep their trajectories and the generator ends where it did."""

    @staticmethod
    def _rng(seed):
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    @pytest.mark.parametrize("mode", ["outliers", "missing"])
    @pytest.mark.parametrize("num_pairs", [3, 50])
    @pytest.mark.parametrize("gamma_law", [50.0, (100.0, 1000.0)])
    def test_simulate_trajectory_matches_step_loop(self, mode, num_pairs, gamma_law):
        turn_cfg = TurnModelConfig()
        field = SensorField.lattice(num_pairs)
        corruption = CorruptionConfig(mode=mode, lam=0.3, gamma_law=gamma_law)
        for seed in (0, 11):
            rng, ref_rng = self._rng(seed), self._rng(seed)
            traj = simulate_trajectory(turn_cfg, field, corruption, 120, rng)
            states, clean, values, flags, gamma = _stepwise_trajectory(
                turn_cfg, field, corruption, 120, ref_rng
            )
            assert np.array_equal(traj.states, states)
            assert np.array_equal(traj.clean, clean)
            assert np.array_equal(traj.measurements, values)
            assert traj.flags.dtype == bool
            assert np.array_equal(traj.flags, flags)
            assert traj.gamma == gamma
            assert np.array_equal(rng.random(4), ref_rng.random(4))

    def test_zero_steps_draws_only_gamma(self):
        corruption = CorruptionConfig(lam=0.3, gamma_law=(100.0, 1000.0))
        rng, ref_rng = self._rng(2), self._rng(2)
        traj = simulate_trajectory(
            TurnModelConfig(), SensorField.lattice(3), corruption, 0, rng
        )
        assert traj.states.shape == (0, 5)
        assert traj.measurements.shape == traj.flags.shape == (0, 6)
        assert traj.gamma == sample_gamma(corruption, ref_rng)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("mode", ["outliers", "missing"])
    @pytest.mark.parametrize("gamma", [None, 300.0])
    def test_corrupt_draw_order(self, mode, gamma):
        # gamma None: the interval law, whose gamma is drawn before any step
        law = (100.0, 1000.0) if gamma is None else gamma
        cfg = CorruptionConfig(mode=mode, lam=0.5, gamma_law=law)
        sigmas = nominal_sigmas(cfg, 6)
        rng, ref_rng = self._rng(8), self._rng(8)
        traj = simulate_trajectory(TurnModelConfig(), SensorField.lattice(3), cfg, 1, rng)
        g = sample_gamma(cfg, ref_rng)
        ref_rng.standard_normal(5)  # the process noise
        hit = ref_rng.random(6) < cfg.lam
        noise = ref_rng.standard_normal(6)
        clean = traj.clean[0]
        if mode == "outliers":
            expected = clean + np.where(hit, np.sqrt(g) * sigmas, sigmas) * noise
        else:
            expected = np.where(hit, 0.0, clean + sigmas * noise)
        assert np.array_equal(traj.flags[0], hit)
        assert np.array_equal(traj.measurements[0], expected)
        assert rng.random() == ref_rng.random()


class TestTrackingModel:
    def test_validates(self):
        model = make_tracking_model(SensorField.lattice(3))
        report = validate_model(model)
        assert report.ok, report.issues

    def test_noise_and_mask_layout(self):
        model = make_tracking_model(SensorField.lattice(3))
        assert np.allclose(model.meas_var_diag[:3], (3.5e-3) ** 2)
        assert np.allclose(model.meas_var_diag[3:], 100.0)
        assert np.array_equal(model.angular_mask, [True] * 3 + [False] * 3)
        assert model.vectorized

    def test_vectorized_maps_match_loop(self):
        rng = np.random.default_rng(10)
        model = make_tracking_model(SensorField.lattice(3))
        states = rng.uniform(-5000, 5000, size=(7, 5))
        assert np.array_equal(
            model.process_fn(states), np.stack([model.process_fn(s) for s in states])
        )
        assert np.array_equal(
            model.meas_fn(states), np.stack([model.meas_fn(s) for s in states])
        )
