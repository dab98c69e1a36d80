"""Shared signal-processing substrate.

Fourier series in phase (the storage format for learned constraint values),
principal component analysis and a PCA-plane phase estimator, which takes
one sample or a block of samples. Both evaluate with ``np.einsum``, which
reduces every row the same way (``@`` would not), so one sample gives the
bits of its row in a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
MIN_RADIUS_FRACTION = 1e-6  # phase-estimator dead zone, relative to mean radius


@dataclass(frozen=True)
class FourierSeries:
    """Real trigonometric polynomial a0 + sum_k a[k-1] cos(k*p) + b[k-1] sin(k*p).

    The argument is a phase in radians; evaluation is 2*pi-periodic.
    ``fit_residual_rms`` records the least-squares residual of the fit that
    produced the series (0 for hand-constructed series).
    """

    order: int
    a0: float
    a: np.ndarray
    b: np.ndarray
    fit_residual_rms: float = 0.0

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.a.shape != (self.order,) or self.b.shape != (self.order,):
            raise ValueError(
                f"coefficient arrays must have length order={self.order}, "
                f"got a:{self.a.shape} b:{self.b.shape}"
            )

    def __call__(self, phase):
        return eval_fourier(self, phase)

    def derivative(self) -> "FourierSeries":
        """Series of d/dp: cos(kp) -> -k sin(kp), sin(kp) -> k cos(kp)."""
        k = np.arange(1, self.order + 1, dtype=float)
        return FourierSeries(order=self.order, a0=0.0, a=k * self.b, b=-k * self.a)


def _trig_design(phases: np.ndarray, order: int) -> np.ndarray:
    """Design matrix with columns [1, cos p .. cos Kp, sin p .. sin Kp]."""
    phases = np.asarray(phases, dtype=float)
    k = np.arange(1, order + 1)
    arg = np.outer(phases, k)
    return np.hstack([np.ones((len(phases), 1)), np.cos(arg), np.sin(arg)])


def fit_fourier(phases, values, order: int) -> FourierSeries:
    """Least-squares Fourier fit of ``values`` sampled at ``phases``.

    Requires at least 2*order+1 samples (one per coefficient) and a
    non-degenerate phase distribution; raises ValueError otherwise.
    """
    phases = np.asarray(phases, dtype=float)
    values = np.asarray(values, dtype=float)
    if phases.ndim != 1 or phases.shape != values.shape:
        raise ValueError("phases and values must be 1-d arrays of equal length")
    ncoef = 2 * order + 1
    if len(phases) < ncoef:
        raise ValueError(
            f"need at least {ncoef} samples for order {order}, got {len(phases)}")
    design = _trig_design(phases, order)
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < ncoef:
        raise ValueError(
            f"degenerate phase sampling: design matrix rank {rank} < {ncoef}")
    resid = values - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return FourierSeries(order=order, a0=float(coef[0]),
                         a=coef[1:order + 1], b=coef[order + 1:],
                         fit_residual_rms=rms)


def eval_fourier(fs: FourierSeries, phase):
    phase = np.asarray(phase, dtype=float)
    k = np.arange(1, fs.order + 1)
    arg = np.multiply.outer(phase, k)
    out = (fs.a0 + np.einsum("...k,k->...", np.cos(arg), fs.a)
           + np.einsum("...k,k->...", np.sin(arg), fs.b))
    return float(out) if out.ndim == 0 else out


def pca_fit(data):
    """Mean-centered SVD of an N x d sample matrix.

    Returns (basis, center, singular_values) with components as rows of
    ``basis`` ordered by decreasing singular value.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need an N x d array with N >= 2")
    center = data.mean(axis=0)
    _, svals, vt = np.linalg.svd(data - center, full_matrices=False)
    return vt, center, svals


@dataclass(frozen=True)
class PhaseEstimator:
    """Phase from the angle in the plane of the first two principal components.

    ``direction_sign`` and ``offset`` normalize the raw atan2 angle so that the
    training cycle starts at phase 0 and runs increasing toward 2*pi.
    ``min_radius`` rejects queries that project too close to the center, where
    the angle is undefined.
    """

    pca_basis: np.ndarray      # (2, d)
    center: np.ndarray         # (d,)
    direction_sign: float
    offset: float
    min_radius: float = 0.0

    @classmethod
    def fit(cls, data) -> "PhaseEstimator":
        """Train on one or more cycles of d-dimensional samples.

        The training data must wind around its centroid in the PCA plane;
        a net angular travel below pi radians is rejected as degenerate.
        """
        data = np.asarray(data, dtype=float)
        basis, center, _ = pca_fit(data)
        if basis.shape[0] < 2:
            raise ValueError("phase estimation needs at least 2-dimensional data")
        plane = (data - center) @ basis[:2].T
        radius = np.hypot(plane[:, 0], plane[:, 1])
        raw = np.unwrap(np.arctan2(plane[:, 1], plane[:, 0]))
        travel = raw[-1] - raw[0]
        if abs(travel) < np.pi:
            raise ValueError(
                f"training data does not wind around its center "
                f"(net angular travel {travel:.3f} rad)")
        sign = 1.0 if travel > 0 else -1.0
        offset = sign * raw[0]
        return cls(pca_basis=basis[:2].copy(), center=center,
                   direction_sign=sign, offset=offset,
                   min_radius=MIN_RADIUS_FRACTION * float(radius.mean()))


def estimate_phases(est: PhaseEstimator, X) -> np.ndarray:
    """Phase in [0, 2*pi) of one sample (d,), a 0-d value, or of each sample
    of a (..., d) block. Raises near the estimator center."""
    c = np.einsum("...d,kd->...k", np.asarray(X, dtype=float) - est.center,
                  est.pca_basis)
    if np.any(np.hypot(c[..., 0], c[..., 1]) <= est.min_radius):
        raise ValueError("phase undefined: projection at the estimator center")
    phase = est.direction_sign * np.arctan2(c[..., 1], c[..., 0]) - est.offset
    return np.mod(phase, TWO_PI)
