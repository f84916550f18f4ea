"""model._cholesky and model._solve, the filter's small-matrix LAPACK calls.

On numpy >= 2 they call the gufuncs that np.linalg.cholesky and solve wrap,
under the same error state, so they must agree with the public calls bit
for bit and raise the same LinAlgError.  Without numpy's private names
they are the public calls themselves.
"""

import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from reference_outputs import reference_worlds

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


def _assert_same(helper, public, *args):
    assert _outcome(helper, *args) == _outcome(public, *args)


@st.composite
def _square_factors(draw):
    n = draw(st.integers(1, 8))
    return draw(arrays(np.float64, (n, n), elements=_ENTRIES))


@st.composite
def _systems(draw):
    a = draw(_square_factors())
    k = draw(st.integers(1, 6))
    b = draw(arrays(np.float64, (a.shape[0], k), elements=_ENTRIES))
    return a, b


class TestHelpersEqualThePublicCalls:
    @given(_square_factors())
    def test_cholesky_of_spd(self, base):
        spd = base @ base.T + np.eye(len(base))
        _assert_same(model._cholesky, np.linalg.cholesky, spd)

    @given(_square_factors(), st.floats(0.0, 1e-12))
    def test_cholesky_of_near_singular(self, base, shift):
        # rank deficient by one, so a tiny or zero shift leaves the matrix at
        # the edge of positive definiteness: both sides factor or both raise
        base[:, 0] = 0.0
        mat = base @ base.T + shift * np.eye(len(base))
        _assert_same(model._cholesky, np.linalg.cholesky, mat)

    @given(_square_factors())
    def test_cholesky_of_any_symmetric_matrix(self, base):
        _assert_same(model._cholesky, np.linalg.cholesky, base + base.T)

    @given(_systems())
    def test_solve(self, system):
        a, b = system
        _assert_same(model._solve, np.linalg.solve, a @ a.T + np.eye(len(a)), b)
        _assert_same(model._solve, np.linalg.solve, a, b)

    @given(_systems())
    def test_solve_of_near_singular(self, system):
        a, b = system
        a[:, 0] = a[:, -1]  # rank deficient for n > 1; a multiple of itself for n = 1
        _assert_same(model._solve, np.linalg.solve, a, b)

    @given(_systems(), st.data())
    def test_non_finite_entries(self, system, data):
        a, b = system
        n = len(a)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        spd = a @ a.T + np.eye(n)
        for mat in (a, spd.copy()):
            mat[i, j] = mat[j, i] = data.draw(_SPECIAL)
            _assert_same(model._cholesky, np.linalg.cholesky, mat)
            _assert_same(model._solve, np.linalg.solve, mat, b)
        b[data.draw(st.integers(0, n - 1)), 0] = data.draw(_SPECIAL)
        _assert_same(model._solve, np.linalg.solve, spd, b)

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
        assert root.tobytes() == np.linalg.cholesky(repaired).tobytes()

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
    """With every private-numpy helper bound to its public call, as on numpy
    1.x, a run gives the same bytes: on the first tracking world, whose msor
    takes the bearing sweep, and on the last room, whose msor takes the
    latent block; each calls the einsum and count helpers."""
    worlds = [reference_worlds()[index] for index in (0, -1)]
    routed = [_outputs(world) for world in worlds]
    _bind_everywhere(monkeypatch, "_cholesky", np.linalg.cholesky)
    _bind_everywhere(monkeypatch, "_solve", np.linalg.solve)
    _bind_everywhere(monkeypatch, "_einsum", np.einsum)
    _bind_everywhere(monkeypatch, "_count_nonzero", np.count_nonzero)
    assert gaussian._solve is np.linalg.solve and gaussian._einsum is np.einsum
    assert gaussian._count_nonzero is np.count_nonzero
    for world, want_outputs in zip(worlds, routed):
        fallback = _outputs(world)
        for name in FILTER_NAMES:
            for got, want in zip(fallback[name], want_outputs[name]):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="the gufunc route needs numpy >= 2"
)
def test_numpy_2_takes_the_gufunc_route(monkeypatch):
    assert model._cholesky is not np.linalg.cholesky and model._solve is not np.linalg.solve
    calls = []

    def counted(gufunc):
        return lambda *args, **kwargs: calls.append(gufunc.__name__) or gufunc(*args, **kwargs)

    gufuncs = model._umath_linalg
    spy = types.SimpleNamespace(
        cholesky_lo=counted(gufuncs.cholesky_lo), solve=counted(gufuncs.solve)
    )
    monkeypatch.setattr(model, "_umath_linalg", spy)
    for public in ("cholesky", "solve"):
        monkeypatch.setattr(np.linalg, public, pytest.fail)
    model._cholesky(np.eye(3))
    model._solve(np.eye(3), np.ones((3, 2)))
    assert calls == ["cholesky_lo", "solve"]


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
