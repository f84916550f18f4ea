"""Coordinated-turn target simulation with a bearing/range sensor field and
per-dimension outlier or missing-data corruption."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MISSING_SENTINEL, NonlinearSSM, _frozen_array, chol_lower

# state layout: [a, a_dot, b, b_dot, omega]
TRACKING_X0 = np.array([-10000.0, 10.0, 5000.0, -5.0, -0.0524])

OMEGA_CV_LIMIT = 1e-9


@dataclass(frozen=True)
class TurnModelConfig:
    dt: float = 1.0
    eta1: float = 0.1
    eta2: float = 1.75e-4

    def __post_init__(self) -> None:
        # each check is written so that a NaN fails it
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        if not (0.0 <= self.eta1 < math.inf and 0.0 <= self.eta2 < math.inf):
            raise ValueError("noise scales must be finite and >= 0")


def turn_transition(state, cfg: TurnModelConfig):
    """Apply the constant-turn-rate transition; batch shapes (..., 5) allowed.

    Below |omega| = 1e-9 the constant-velocity limit is used:
    sin(w dt)/w -> dt and (1 - cos(w dt))/w -> 0.

    One state of shape (5,) is moved in Python floats, with numpy's sin and
    cos of w dt: the same IEEE operations in the same order as a batch row,
    so the bits are identical.  Python floats never warn, so a state with a
    non-finite omega or result is moved by the batch arithmetic, which warns
    on overflow and invalid operations as numpy does.
    """
    x = np.asarray(state, dtype=float)
    if x.shape == (5,):
        a, a_dot, b, b_dot, omega = x.tolist()
        if math.isfinite(omega):
            wdt = omega * cfg.dt
            sin_w, cos_w = float(np.sin(wdt)), float(np.cos(wdt))
            if abs(omega) < OMEGA_CV_LIMIT:
                coef_a, coef_d = cfg.dt, 0.0
            else:
                coef_a, coef_d = sin_w / omega, (1.0 - cos_w) / omega
            moved = _turn_equations(a, a_dot, b, b_dot, sin_w, cos_w, coef_a, coef_d)
            if math.isfinite(sum(moved)):
                return np.array([*moved, omega])
    # on the transposed layout (5, ...) each component is one row
    a, a_dot, b, b_dot, omega = x.T
    wdt = omega * cfg.dt
    sin_w, cos_w = np.sin(wdt), np.cos(wdt)
    near_zero = np.abs(omega) < OMEGA_CV_LIMIT
    if np.logical_or.reduce(near_zero, None):
        safe = np.where(near_zero, 1.0, omega)
        coef_a = np.where(near_zero, cfg.dt, sin_w / safe)
        coef_d = np.where(near_zero, 0.0, (1.0 - cos_w) / safe)
    else:
        coef_a, coef_d = sin_w / omega, (1.0 - cos_w) / omega
    out = np.empty_like(x.T)  # keeps x.T's layout, so out.T is laid out as x
    out[:4] = _turn_equations(a, a_dot, b, b_dot, sin_w, cos_w, coef_a, coef_d)
    out[4] = omega
    return out.T


def _turn_equations(a, a_dot, b, b_dot, sin_w, cos_w, coef_a, coef_d):
    """The moved position-velocity pairs, on floats or on arrays alike."""
    return (
        a + coef_a * a_dot - coef_d * b_dot,
        cos_w * a_dot - sin_w * b_dot,
        coef_d * a_dot + b + coef_a * b_dot,
        sin_w * a_dot + cos_w * b_dot,
    )


def process_noise_cov(cfg: TurnModelConfig) -> np.ndarray:
    """Block-diagonal Q: eta1*M per position-velocity pair, eta2 for omega,
    with M = [[dt^3/3, dt^2/2], [dt^2/2, dt]]."""
    dt = cfg.dt
    m_block = np.array([[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]])
    q = np.zeros((5, 5))
    q[0:2, 0:2] = cfg.eta1 * m_block
    q[2:4, 2:4] = cfg.eta1 * m_block
    q[4, 4] = cfg.eta2
    return q


@dataclass(frozen=True, eq=False)
class SensorField:
    """m/2 bearing sensors and m/2 range sensors at fixed 2D positions, kept
    as read-only copies, plus one x row and one y row over all m sensors,
    bearings first, for clean_measurement."""

    bearing_pos: np.ndarray
    range_pos: np.ndarray

    def __post_init__(self) -> None:
        bearing = _frozen_array(np.atleast_2d(self.bearing_pos))
        rng_pos = _frozen_array(np.atleast_2d(self.range_pos))
        if bearing.shape != rng_pos.shape or bearing.shape[1] != 2:
            raise ValueError("bearing and range positions must both be (p, 2)")
        object.__setattr__(self, "bearing_pos", bearing)
        object.__setattr__(self, "range_pos", rng_pos)
        # not fields, so equality and repr ignore them
        for name, col in (("_x", 0), ("_y", 1)):
            row = np.concatenate([bearing[:, col], rng_pos[:, col]])
            object.__setattr__(self, name, _frozen_array(row))

    @property
    def num_pairs(self) -> int:
        return self.bearing_pos.shape[0]

    @property
    def meas_dim(self) -> int:
        return 2 * self.num_pairs

    @classmethod
    def lattice(cls, num_pairs: int) -> "SensorField":
        """Default layout: bearing j at (350(j-1), 350(j mod 2)) and range j
        at (350(j-1), 350((j-1) mod 2)), for j = 1..num_pairs."""
        j = np.arange(1, num_pairs + 1)
        bearing = np.column_stack([350.0 * (j - 1), 350.0 * (j % 2)])
        rng_pos = np.column_stack([350.0 * (j - 1), 350.0 * ((j - 1) % 2)])
        return cls(bearing_pos=bearing, range_pos=rng_pos)


def clean_measurement(state, field: SensorField):
    """Noise-free readings: bearings (radians) first, ranges (meters) last.

    Bearing j is atan2(b - b_j, a - a_j); a target exactly on a bearing
    sensor makes atan2(0, 0) meaningless and is a hard error.

    One subtraction per coordinate covers every sensor, and one hypot gives
    the ranges and the on-sensor test alike, since hypot is 0 only when both
    offsets are.  The bearings' arctan2 then overwrites their columns.
    """
    x = np.asarray(state, dtype=float)
    da = x[..., 0:1] - field._x
    db = x[..., 2:3] - field._y
    out = np.hypot(da, db)
    p = field.num_pairs
    if np.logical_or.reduce(out[..., :p] == 0.0, None):
        raise ValueError("target position coincides with a bearing sensor")
    np.arctan2(db[..., :p], da[..., :p], out=out[..., :p])
    return out


@dataclass(frozen=True)
class CorruptionConfig:
    """Per-dimension corruption: heavy-tailed mixture noise or dropped readings.

    mode "outliers": with probability lam the additive noise variance is
    inflated by gamma; otherwise nominal.  mode "missing": with probability
    lam the reading is replaced by MISSING_SENTINEL (0.0), no noise added.
    gamma_law is either a fixed value >= 1 or a (low, high) uniform interval.
    """

    mode: str = "outliers"
    lam: float = 0.0
    gamma_law: float | tuple[float, float] = 1.0
    sigma_theta: float = 3.5e-3
    sigma_rho: float = 10.0

    def __post_init__(self) -> None:
        # each check is written so that a NaN fails it
        if self.mode not in ("outliers", "missing"):
            raise ValueError("mode must be 'outliers' or 'missing'")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if not (0.0 < self.sigma_theta < math.inf and 0.0 < self.sigma_rho < math.inf):
            raise ValueError("nominal noise sigmas must be finite and > 0")
        law = self.gamma_law
        if isinstance(law, (tuple, list)):
            low, high = float(law[0]), float(law[1])
            if not 1.0 <= low <= high < math.inf:
                raise ValueError("gamma interval must satisfy 1 <= low <= high < inf")
            object.__setattr__(self, "gamma_law", (low, high))
        elif not 1.0 <= float(law) < math.inf:
            raise ValueError("fixed gamma must be finite and >= 1")


def nominal_sigmas(cfg: CorruptionConfig, meas_dim: int) -> np.ndarray:
    """Per-dimension nominal noise stds: sigma_theta then sigma_rho halves."""
    if meas_dim % 2 != 0:
        raise ValueError("meas_dim must be even (bearing/range pairs)")
    half = meas_dim // 2
    return np.concatenate(
        [np.full(half, cfg.sigma_theta), np.full(half, cfg.sigma_rho)]
    )


def sample_gamma(cfg: CorruptionConfig, rng: np.random.Generator) -> float:
    """Draw the variance-inflation factor; fixed laws return their value."""
    if isinstance(cfg.gamma_law, tuple):
        return float(rng.uniform(*cfg.gamma_law))
    return float(cfg.gamma_law)


def _corrupt_draws(clean, uniforms, normals, sigmas, cfg: CorruptionConfig, gamma):
    """The corruption formula on drawn uniforms and standard normals; any
    batch shape (..., m) with sigmas of shape (m,)."""
    flags = uniforms < cfg.lam
    if cfg.mode == "outliers":
        stds = np.where(flags, np.sqrt(gamma) * sigmas, sigmas)
        values = clean + stds * normals
    else:
        values = np.where(flags, MISSING_SENTINEL, clean + sigmas * normals)
    return values, flags


@dataclass(frozen=True, eq=False)
class TrajectoryData:
    states: np.ndarray  # (K, 5)
    clean: np.ndarray  # (K, m)
    measurements: np.ndarray  # (K, m)
    flags: np.ndarray  # (K, m) bool
    gamma: float

    @property
    def positions(self) -> np.ndarray:
        return self.states[:, [0, 2]]


def simulate_trajectory(
    turn_cfg: TurnModelConfig,
    field: SensorField,
    corruption: CorruptionConfig,
    num_steps: int,
    rng: np.random.Generator,
) -> TrajectoryData:
    """Propagate the true state from TRACKING_X0 with process noise and emit
    corrupted readings.

    The random stream is part of the contract: one sample_gamma draw first,
    then per step k, in this order, rng.standard_normal(5) for the process
    noise, rng.random(m) for the corruption flags and rng.standard_normal(m)
    for the measurement noise.  Identical seeds give identical trajectories,
    and the generator is left where that sequence ends.  Only the state
    recursion and the draws run step by step; the readings and their
    corruption are computed for all steps at once.
    """
    m = field.meas_dim
    sigmas = nominal_sigmas(corruption, m)
    q_root = chol_lower(process_noise_cov(turn_cfg), "process cov")
    gamma = sample_gamma(corruption, rng)
    states = np.empty((num_steps, 5))
    uniforms = np.empty((num_steps, m))
    normals = np.empty((num_steps, m))
    x = TRACKING_X0
    for k in range(num_steps):
        x = turn_transition(x, turn_cfg) + q_root @ rng.standard_normal(5)
        states[k] = x
        rng.random(out=uniforms[k])
        rng.standard_normal(out=normals[k])
    clean = clean_measurement(states, field)
    values, flags = _corrupt_draws(clean, uniforms, normals, sigmas, corruption, gamma)
    return TrajectoryData(
        states=states, clean=clean, measurements=values, flags=flags, gamma=gamma
    )


def make_tracking_model(
    field: SensorField,
    turn_cfg: TurnModelConfig | None = None,
    sigma_theta: float = 3.5e-3,
    sigma_rho: float = 10.0,
) -> NonlinearSSM:
    """Filter-side model for the tracking world: coordinated-turn dynamics,
    bearing/range measurements, bearings flagged as angular."""
    turn_cfg = turn_cfg or TurnModelConfig()
    half = field.num_pairs
    meas_var = np.concatenate(
        [np.full(half, sigma_theta**2), np.full(half, sigma_rho**2)]
    )
    mask = np.concatenate([np.ones(half, dtype=bool), np.zeros(half, dtype=bool)])
    return NonlinearSSM(
        state_dim=5,
        meas_dim=field.meas_dim,
        process_fn=lambda x: turn_transition(x, turn_cfg),
        meas_fn=lambda x: clean_measurement(x, field),
        process_cov=process_noise_cov(turn_cfg),
        meas_var_diag=meas_var,
        angular_mask=mask,
        vectorized=True,
    )
