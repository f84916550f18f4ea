"""model._cholesky and model._solve, the filter's small-matrix LAPACK calls.

They are scipy's dpotrf and dgesv with an info check, so they must give the
bytes of a direct call and raise numpy's LinAlgError exactly when LAPACK
reports a failure.  On well-conditioned input they agree with np.linalg to
rounding.
"""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from reference_outputs import reference_worlds
from scipy.linalg import lapack

from sorfilt import FILTER_NAMES, FilterNumericsError, gaussian, model, run_filter
from sorfilt.gaussian import PredictedMeasurement

_ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf])


def _outcome(fn, *args):
    """("ok", dtype, shape, bytes) of fn's result, or ("raised", type, message),
    with every floating-point warning an error and numpy's error state unchanged."""
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = fn(*args)
        except np.linalg.LinAlgError as exc:
            result = ("raised", type(exc), str(exc))
        else:
            result = ("ok", out.dtype, out.shape, out.tobytes())
    assert np.geterr() == before
    return result


def _lapack_outcome(result, info, message):
    """The outcome a direct LAPACK call stands for: its result when info is
    0, else numpy's LinAlgError with numpy's message."""
    if info != 0:
        return ("raised", np.linalg.LinAlgError, message)
    return ("ok", result.dtype, result.shape, result.tobytes())


def _assert_cholesky_is_dpotrf(a):
    chol, info = lapack.dpotrf(a, 1, 1)
    want = _lapack_outcome(chol, info, "Matrix is not positive definite")
    assert _outcome(model._cholesky, a) == want


def _assert_solve_is_dgesv(a, b):
    _, _, x, info = lapack.dgesv(a, b)
    assert _outcome(model._solve, a, b) == _lapack_outcome(x, info, "Singular matrix")


@st.composite
def _square_factors(draw, elements=_ENTRIES):
    n = draw(st.integers(1, 8))
    return draw(arrays(np.float64, (n, n), elements=elements))


@st.composite
def _systems(draw, elements=_ENTRIES):
    a = draw(_square_factors(elements))
    k = draw(st.integers(1, 6))
    b = draw(arrays(np.float64, (a.shape[0], k), elements=elements))
    return a, b


class TestHelpersEqualScipyLapack:
    @given(_square_factors())
    def test_cholesky_of_spd(self, base):
        _assert_cholesky_is_dpotrf(base @ base.T + np.eye(len(base)))

    @given(_square_factors(), st.floats(0.0, 1e-12))
    def test_cholesky_of_near_singular(self, base, shift):
        # rank deficient by one, so a tiny or zero shift leaves the matrix at
        # the edge of positive definiteness, where LAPACK may factor or fail
        base[:, 0] = 0.0
        _assert_cholesky_is_dpotrf(base @ base.T + shift * np.eye(len(base)))

    @given(_square_factors())
    def test_cholesky_of_any_symmetric_matrix(self, base):
        _assert_cholesky_is_dpotrf(base + base.T)

    @given(_systems())
    def test_solve(self, system):
        a, b = system
        _assert_solve_is_dgesv(a @ a.T + np.eye(len(a)), b)
        _assert_solve_is_dgesv(a, b)

    @given(_systems())
    def test_solve_of_near_singular(self, system):
        a, b = system
        a[:, 0] = a[:, -1]  # rank deficient for n > 1; a multiple of itself for n = 1
        _assert_solve_is_dgesv(a, b)

    @given(_systems(), st.data())
    def test_non_finite_entries(self, system, data):
        a, b = system
        n = len(a)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        spd = a @ a.T + np.eye(n)
        for mat in (a, spd.copy()):
            mat[i, j] = mat[j, i] = data.draw(_SPECIAL)
            _assert_cholesky_is_dpotrf(mat)
            _assert_solve_is_dgesv(mat, b)
        b[data.draw(st.integers(0, n - 1)), 0] = data.draw(_SPECIAL)
        _assert_solve_is_dgesv(spd, b)

    def test_non_spd_raises_the_same_error(self):
        mat = np.array([[1.0, 2.0], [2.0, 1.0]])
        outcome = _outcome(model._cholesky, mat)
        assert outcome == ("raised", np.linalg.LinAlgError, "Matrix is not positive definite")
        assert outcome == _outcome(np.linalg.cholesky, mat)

    def test_singular_system_raises_the_same_error(self):
        a, b = np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones((2, 3))
        outcome = _outcome(model._solve, a, b)
        assert outcome == ("raised", np.linalg.LinAlgError, "Singular matrix")
        assert outcome == _outcome(np.linalg.solve, a, b)

    @given(_systems(st.floats(-1.0, 1.0)))
    def test_well_conditioned_spd_agrees_with_np_linalg(self, system):
        a, b = system
        n = len(a)
        spd = a @ a.T / n + np.eye(n)  # eigenvalues in [1, 1 + n]
        chol = model._cholesky(spd)
        # the layout np.linalg.cholesky returns, so products take its BLAS paths
        assert chol.flags.c_contiguous and not np.triu(chol, 1).any()
        pairs = (
            (chol, np.linalg.cholesky(spd)),
            (model._solve(spd, b), np.linalg.solve(spd, b)),
        )
        for got, want in pairs:
            # entries that cancel to near zero are compared on the result's scale
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestCallSites:
    def test_spd_factor_repairs_once_by_jitter(self, monkeypatch):
        calls = []
        helper = model._cholesky
        monkeypatch.setattr(model, "_cholesky", lambda a: calls.append(a) or helper(a))
        # one eigenvalue of -1e-14: indefinite, but within one jitter shot
        vecs = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
        mat = vecs @ np.diag([1.0, 1e-16, -1e-14]) @ vecs.T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(mat)
        repaired, root = model._spd_factor(mat, "cov")
        assert len(calls) == 2
        assert np.array_equal(repaired, calls[1])
        assert root.tobytes() == lapack.dpotrf(repaired, 1, 1)[0].tobytes()

    def test_singular_innovation_system_is_a_numerics_error(self):
        belief = model.GaussianBelief(np.zeros(2), np.eye(2))
        predmeas = PredictedMeasurement(mu=np.zeros(1), U=[[-1.0]], C=np.ones((2, 1)))
        with pytest.raises(FilterNumericsError, match="singular innovation system"):
            gaussian._update_parallel(belief, predmeas, np.ones(1), np.ones(1))


def _bind_everywhere(monkeypatch, name, value):
    """Set name to value in every sorfilt module that binds the helper."""
    original = getattr(model, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "sorfilt" and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, value)


def _outputs(world):
    _, (ssm, init, measurements), cfg, params = world
    return {name: run_filter(name, ssm, init, measurements, cfg, params) for name in FILTER_NAMES}


def test_public_call_fallback_gives_identical_outputs(monkeypatch):
    """With each private-numpy helper bound to its public call, as on numpy
    1.x, a run gives the same bytes: on the first tracking world, whose msor
    takes the bearing sweep, and on the last room, whose msor takes the
    latent block; each calls the einsum and count helpers."""
    worlds = [reference_worlds()[index] for index in (0, -1)]
    routed = [_outputs(world) for world in worlds]
    _bind_everywhere(monkeypatch, "_einsum", np.einsum)
    _bind_everywhere(monkeypatch, "_count_nonzero", np.count_nonzero)
    assert gaussian._einsum is np.einsum and gaussian._count_nonzero is np.count_nonzero
    for world, want_outputs in zip(worlds, routed):
        fallback = _outputs(world)
        for name in FILTER_NAMES:
            for got, want in zip(fallback[name], want_outputs[name]):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_helpers_call_scipy_lapack_and_never_np_linalg(monkeypatch):
    """The helpers, and a whole sor run through them, call scipy's dpotrf
    and dgesv and never np.linalg.cholesky or solve."""
    calls = []

    def counted(name):
        routine = getattr(lapack, name)
        return lambda *args: calls.append(name) or routine(*args)

    for name in ("dpotrf", "dgesv"):
        monkeypatch.setattr(model, name, counted(name))
    for public in ("cholesky", "solve"):
        monkeypatch.setattr(np.linalg, public, pytest.fail)
    model._cholesky(np.eye(3))
    model._solve(np.eye(3), np.ones((3, 2)))
    assert calls == ["dpotrf", "dgesv"]
    _, (ssm, init, measurements), cfg, params = reference_worlds()[0]
    run_filter("sor", ssm, init, measurements, cfg, params)
    assert {"dpotrf", "dgesv"} == set(calls)


def test_helper_calls_per_step_on_the_reference_worlds(monkeypatch):
    """Summed over a run's steps.  ukf: one Cholesky for the predicted and
    one for the updated belief, one solve for the update.  sor: the same
    plus one update (a solve and a Cholesky) per VB iteration.  msor: one
    Cholesky each for the predicted belief and the posterior; its serial
    conditioning calls neither helper."""
    worlds = reference_worlds()
    counts = {}

    def counted(name):
        helper = getattr(model, name)

        def call(*args):
            counts[name] += 1
            return helper(*args)

        return call

    for name in ("_cholesky", "_solve"):
        _bind_everywhere(monkeypatch, name, counted(name))
    # (Cholesky calls per step, solves per step, both per VB iteration)
    per_step = {"ukf": (2, 1, 0), "sor": (2, 1, 1), "msor": (2, 0, 0)}
    for world, (ssm, init, measurements), cfg, params in worlds:
        for name in FILTER_NAMES:
            counts.update(_cholesky=0, _solve=0)
            _, _, iterations = run_filter(name, ssm, init, measurements, cfg, params)
            cholesky, solve, per_iteration = per_step[name]
            steps, loops = len(measurements), int(iterations.sum()) * per_iteration
            want = {"_cholesky": cholesky * steps + loops, "_solve": solve * steps + loops}
            assert counts == want, (world, name)
