"""Shared state-space model types, beliefs, covariance hygiene helpers, and
the Cholesky factorization, linear solve, einsum and count that every filter
step calls.  The factorization and the solve call scipy's LAPACK wrappers,
as the latent block of gaussian.py does."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgesv, dpotrf

Vector = np.ndarray
Matrix = np.ndarray

SYMMETRY_RTOL = 1e-12
JITTER_SCALE = 1e-9
MISSING_SENTINEL = 0.0  # the reading a missing measurement carries


class FilterNumericsError(RuntimeError):
    """A covariance lost positive definiteness beyond what jitter can repair,
    or a map produced non-finite output.

    time_index is the measurement time step when a filter run raised it,
    None otherwise.
    """

    def __init__(self, message: str, time_index: int | None = None) -> None:
        super().__init__(message)
        self.time_index = time_index


def symmetrize(mat: Matrix) -> Matrix:
    """Return the symmetric part (mat + mat.T) / 2."""
    return 0.5 * (mat + mat.T)


def _is_symmetric(mat: Matrix, rtol: float = SYMMETRY_RTOL) -> bool:
    """max |mat - mat.T| within rtol * max(1, max |mat|); NaN fails."""
    skew = np.abs(mat - mat.T).max(initial=0.0)
    return bool(skew <= rtol * max(1.0, np.abs(mat).max(initial=0.0)))


try:  # numpy >= 2: the C entry points of np.einsum and np.count_nonzero
    # what np.einsum calls when it does not optimize, so the results are np.einsum's
    from numpy._core.multiarray import c_einsum as _einsum
    # what np.count_nonzero calls for a whole array, without its Python dispatcher
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:  # the names are private numpy API: fall back to the public calls
    _einsum = np.einsum
    _count_nonzero = np.count_nonzero


def _cholesky(a: Matrix) -> Matrix:
    """Lower Cholesky factor of a float (n, n) array, C-ordered with a zero
    upper triangle as np.linalg.cholesky returns it; only the lower triangle
    of a is read.  LAPACK's failure raises numpy's LinAlgError."""
    # (a, lower, clean): clean zeroes the upper triangle
    chol, info = dpotrf(a, 1, 1)
    if info != 0:
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return np.ascontiguousarray(chol)


def _solve(a: Matrix, b: Matrix) -> Matrix:
    """a^-1 b for float arrays a (m, m) and b (m, k) by LU with partial
    pivoting; a singular a raises numpy's LinAlgError."""
    if not b.size:  # dgesv refuses an empty system (m = 0)
        return np.empty(b.shape)
    _, _, x, info = dgesv(a, b)
    if info != 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


def _jitter_for(mat: Matrix) -> float:
    n = mat.shape[0]
    jitter = JITTER_SCALE * float(np.trace(mat)) / n
    # trace can be ~0 for near-singular covariances; fall back to a tiny absolute floor
    if not np.isfinite(jitter) or jitter <= 0.0:
        jitter = 1e-12
    return jitter


def _spd_factor(mat: Matrix, name: str) -> tuple[Matrix, Matrix]:
    """(symmetrized matrix, its lower Cholesky factor).

    On a failed Cholesky the matrix gets one jitter shot of
    1e-9 * trace / n on the diagonal; a second failure is a hard error.
    """
    sym = symmetrize(np.asarray(mat, dtype=float))
    try:
        return sym, _cholesky(sym)
    except np.linalg.LinAlgError:
        pass
    repaired = sym + _jitter_for(sym) * np.eye(sym.shape[0])
    try:
        return repaired, _cholesky(repaired)
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError(
            f"{name} is not positive definite even after diagonal jitter"
        ) from exc


def ensure_spd(mat: Matrix, name: str = "cov") -> Matrix:
    """Symmetrize and verify positive definiteness, repairing with one jitter shot."""
    return _spd_factor(mat, name)[0]


def chol_lower(mat: Matrix, name: str = "cov") -> Matrix:
    """Lower Cholesky factor under the same one-shot jitter policy as ensure_spd."""
    return _spd_factor(mat, name)[1]


def _real(name: str, value):
    """A config number: value, or the item of a 0-d array.  A bool or a
    value of any other type is a TypeError naming the field name; the
    caller's range check follows."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value.item()
    # bool is a Real (an Integral), but True is no number of this kind
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, not {type(value).__name__}")
    return value


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GaussianBelief:
    """State mean and covariance (m, P) at one time step.

    The covariance must be symmetric to 1e-12 relative tolerance and
    positive definite; both are checked on construction.  The lower
    Cholesky factor that the positive-definiteness check computes is kept
    as ``root``, so sigma points need no second factorization.
    """

    mean: Vector
    cov: Matrix

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        n = mean.size
        if cov.shape != (n, n):
            raise ValueError(f"cov shape {cov.shape} does not match state dim {n}")
        if (
            _count_nonzero(np.isfinite(mean)) != n
            or _count_nonzero(np.isfinite(cov)) != cov.size
        ):
            raise ValueError("belief contains non-finite entries")
        if not _is_symmetric(cov):
            raise ValueError("cov is not symmetric within tolerance")
        sym = symmetrize(cov)
        try:
            root = _cholesky(sym)
        except np.linalg.LinAlgError as exc:
            raise ValueError("cov is not positive definite") from exc
        self._freeze(mean, sym, root)

    @classmethod
    def _from_filter(cls, mean: Vector, cov: Matrix, name: str) -> "GaussianBelief":
        """Belief from a mean vector and covariance that the filter built.

        Shapes and symmetry hold by construction, so one Cholesky under the
        jitter policy of ensure_spd is the only factorization; a covariance
        beyond repair raises FilterNumericsError naming it.  The finite check
        stays: Cholesky of a matrix holding inf or NaN can return a
        non-finite factor instead of raising.
        """
        sym, root = _spd_factor(cov, name)
        if (
            _count_nonzero(np.isfinite(mean)) != mean.size
            or _count_nonzero(np.isfinite(sym)) != sym.size
        ):
            raise ValueError("belief contains non-finite entries")
        belief = object.__new__(cls)
        belief._freeze(mean, sym, root)
        return belief

    def _freeze(self, mean: Vector, sym: Matrix, root: Matrix) -> None:
        # sym and root are fresh arrays; mean may alias the caller's
        sym.setflags(write=False)
        root.setflags(write=False)
        object.__setattr__(self, "mean", _frozen_array(mean))
        object.__setattr__(self, "cov", sym)
        object.__setattr__(self, "_root", root)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def root(self) -> Matrix:
        """Lower Cholesky factor L of cov, with L @ L.T = cov."""
        return self._root


@dataclass(frozen=True, eq=False)
class NonlinearSSM:
    """Nonlinear state-space model with diagonal measurement noise.

    process_fn and meas_fn are opaque point-evaluation maps.  With
    vectorized=True they must also accept a (batch, dim) array and return
    the mapped batch; this only affects speed, never results.
    angular_mask flags measurement dimensions that live on the circle, so
    downstream residuals are wrapped to (-pi, pi].  Construction refuses a
    process_cov that is not (n, n), a meas_var_diag or angular_mask that is
    not (m,), and a meas_var_diag entry that is not > 0 or whose reciprocal
    overflows; validate_model checks process_cov's values and the maps.
    It keeps what every filter step reads, read-only: _rinv = 1 / R,
    _two_r = 2 R and _angular, the index of the angular dimensions.
    """

    state_dim: int
    meas_dim: int
    process_fn: Callable[[Vector], Vector]
    meas_fn: Callable[[Vector], Vector]
    process_cov: Matrix
    meas_var_diag: Vector
    angular_mask: np.ndarray | None = None
    vectorized: bool = False

    def __post_init__(self) -> None:
        n, m = self.state_dim, self.meas_dim
        arrays = {
            "process_cov": (_frozen_array(np.atleast_2d(self.process_cov)), (n, n)),
            "meas_var_diag": (_frozen_array(np.atleast_1d(self.meas_var_diag)), (m,)),
        }
        if self.angular_mask is not None:
            arrays["angular_mask"] = (_frozen_array(self.angular_mask, dtype=bool), (m,))
        for name, (arr, shape) in arrays.items():
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape} does not match {shape}")
            object.__setattr__(self, name, arr)
        # NaN fails the first test; a finite 1 / R bounds every precision a step builds
        if not self.meas_var_diag.min(initial=1.0) > 0.0:
            raise ValueError("meas_var_diag entries must be > 0")
        with np.errstate(over="ignore"):
            rinv, two_r = 1.0 / self.meas_var_diag, 2.0 * self.meas_var_diag
        if not rinv.max(initial=0.0) < np.inf:
            raise ValueError("meas_var_diag entries must have a finite reciprocal")
        mask = self.angular_mask
        angular = np.flatnonzero(mask) if mask is not None else np.empty(0, dtype=int)
        # not fields, so equality and repr ignore them
        for name, arr in (("_rinv", rinv), ("_two_r", two_r), ("_angular", angular)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class Measurement:
    """One measurement vector y_k at time index k >= 1."""

    time_index: int
    values: Vector

    def __post_init__(self) -> None:
        try:
            bad_index = int(self.time_index) != self.time_index or self.time_index < 1
        # int() of an infinity, a NaN, None or a complex number
        except (OverflowError, TypeError, ValueError):
            bad_index = True
        if bad_index:
            raise ValueError("time_index must be an integer >= 1")
        values = np.asarray(self.values, dtype=float)
        if values.ndim < 1:
            values = np.atleast_1d(values)
        if values.ndim != 1:
            raise ValueError("values must be a vector")
        if _count_nonzero(np.isfinite(values)) != values.size:
            raise ValueError("measurement values must be finite")
        object.__setattr__(self, "time_index", int(self.time_index))
        object.__setattr__(self, "values", _frozen_array(values))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_model(model: NonlinearSSM) -> ValidationReport:
    """Check what construction leaves open (the dimensions, process_cov's
    values, the maps at the zero vector); report every violation by name."""
    issues: list[str] = []
    n, m = model.state_dim, model.meas_dim
    if n < 1:
        issues.append("state_dim must be >= 1")
    if m < 1:
        issues.append("meas_dim must be >= 1")

    # shapes and meas_var_diag are checked on construction
    q = model.process_cov
    if not _is_symmetric(q):
        issues.append("process_cov must be symmetric")
    elif np.linalg.eigvalsh(symmetrize(q)).min(initial=0.0) < -1e-10 * max(
        1.0, np.abs(q).max(initial=0.0)
    ):
        issues.append("process_cov must be positive semidefinite")

    if n >= 1 and not issues[:1]:
        for name, fn, out_dim in (
            ("process_fn", model.process_fn, n),
            ("meas_fn", model.meas_fn, m),
        ):
            try:
                probe = np.asarray(fn(np.zeros(n)), dtype=float)
            except Exception as exc:  # surfaced as a report, not a crash
                issues.append(f"{name} raised at the zero vector: {exc}")
                continue
            if probe.shape != (out_dim,):
                issues.append(
                    f"{name} output shape {probe.shape} does not match ({out_dim},)"
                )
            elif not np.all(np.isfinite(probe)):
                issues.append(f"{name} produced non-finite output at the zero vector")

    return ValidationReport(ok=not issues, issues=tuple(issues))
