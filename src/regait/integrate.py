"""Fixed-step integration with Newton projection onto holonomic manifolds.

The integration loop alternates one classical RK4 step with a Newton
projection that restores the holonomic constraints before the sample is
stored, so constraint error cannot compound with integration time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .trajectory import Trajectory


MAX_NEWTON_ITERS = 50   # Newton iterations one projection may take


@dataclass(frozen=True)
class ProjectedIntegratorConfig:
    dt: float = 1e-3
    projection_tol: float = 1e-10

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not (0.0 < self.dt < math.inf
                and 0.0 < self.projection_tol < math.inf):
            raise ValueError("dt and projection_tol must be finite and "
                             "positive")


class IntegrationError(RuntimeError):
    """Non-finite state or failed projection; message carries t and state."""


def step(f: Callable[[float, np.ndarray], np.ndarray], t: float, x, k1,
         cfg: ProjectedIntegratorConfig) -> np.ndarray:
    """One RK4 step from (t, x) whose first stage k1 = f(t, x) is given."""
    x = np.asarray(x, dtype=float)
    h = cfg.dt
    k2 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(f(t + h, x + h * k3), dtype=float)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationError(f"non-finite state after step at t={t}: {out}")
    return out


def project(c: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], x,
            cfg: ProjectedIntegratorConfig) -> np.ndarray:
    """Newton iteration x <- x - J+(x) c(x) until ||c|| < projection_tol.

    ``c`` returns (residual, jacobian). The pseudoinverse update is the
    minimum-norm correction; a Jacobian without full row rank is an error.
    """
    x = np.asarray(x, dtype=float).copy()
    for _ in range(MAX_NEWTON_ITERS):
        res, jac = c(x)
        res = np.asarray(res, dtype=float)
        if np.linalg.norm(res, ord=np.inf) < cfg.projection_tol:
            return x
        jac = np.atleast_2d(np.asarray(jac, dtype=float))
        svals = np.linalg.svd(jac, compute_uv=False)
        if svals[-1] <= 1e-12 * svals[0] or svals[0] == 0.0:
            raise IntegrationError(
                f"rank-deficient constraint Jacobian during projection at x={x}")
        x = x - np.linalg.pinv(jac, rcond=1e-12) @ res
        if not np.all(np.isfinite(x)):
            raise IntegrationError(f"projection diverged: x={x}")
    res, _ = c(x)
    raise IntegrationError(
        f"projection did not converge in {MAX_NEWTON_ITERS} iterations; "
        f"residual {np.linalg.norm(res, ord=np.inf):.3e} at x={x}")


def integrate_projected(f, c, t0: float, x0, t1: float,
                        cfg: ProjectedIntegratorConfig,
                        ) -> tuple[Trajectory, np.ndarray]:
    """Alternate step/project from a feasible x0; every sample is feasible.

    Returns the trajectory and the field velocity f(t_k, x_k) at every sample:
    the RK4 first stage of the step leaving it (one extra evaluation at the
    last sample). ``c`` may be None for plain unconstrained integration.
    """
    if not (math.isfinite(t0) and t0 <= t1 < math.inf):
        raise ValueError(f"span [{t0}, {t1}] is negative or not finite")
    x = np.asarray(x0, dtype=float)
    if c is not None:
        res0, _ = c(x)
        if np.linalg.norm(np.asarray(res0), ord=np.inf) >= cfg.projection_tol:
            raise IntegrationError(
                f"initial state violates constraints: {res0}")
    nsteps = int(round((t1 - t0) / cfg.dt))
    if abs(t0 + nsteps * cfg.dt - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValueError("span must be an integer number of steps")
    ts = [t0]
    xs = np.empty((nsteps + 1,) + x.shape)
    vs = np.empty_like(xs)
    xs[0] = x
    t = t0
    for k in range(nsteps):
        try:
            vs[k] = f(t, x)
            x = step(f, t, x, vs[k], cfg)
            if c is not None:
                x = project(c, x, cfg)
        except IntegrationError as exc:
            raise IntegrationError(f"t={t + cfg.dt}: {exc}") from exc
        t = t0 + (k + 1) * cfg.dt
        ts.append(t)
        xs[k + 1] = x
    vs[nsteps] = f(t, x)
    return Trajectory(t=np.array(ts), x=xs), vs
