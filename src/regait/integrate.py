"""Fixed-step integration with Newton projection onto holonomic manifolds.

The integration loop alternates one classical RK4 step with a Newton
projection that restores the holonomic constraints before the sample is
stored, so constraint error cannot compound with integration time.

States are lists of Python floats, which cost less than numpy's per-call
overhead on a few entries: fields and callbacks receive one (and call
``np.asarray`` for matrix work), and ``step`` and ``project`` return one.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .trajectory import Trajectory


MAX_NEWTON_ITERS = 50   # Newton iterations one projection may take


class IntegrationError(RuntimeError):
    """Non-finite state or failed projection; message carries t and state."""


def step(f: Callable, t: float, x: list, k1, h: float) -> list:
    """One RK4 step of width h from (t, x) whose first stage k1 = f(t, x) is
    given. The operations and their order are those of the vector form
    x + h/6 (k1 + 2 k2 + 2 k3 + k4), element by element."""
    half = 0.5 * h
    k2 = f(t + half, [a + half * b for a, b in zip(x, k1)])
    k3 = f(t + half, [a + half * b for a, b in zip(x, k2)])
    k4 = f(t + h, [a + h * b for a, b in zip(x, k3)])
    sixth = h / 6.0
    out = [a + sixth * (((b + 2.0 * c) + 2.0 * d) + e)
           for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise IntegrationError(f"non-finite state after step at t={t}: {out}")
    return out


def project(c: Callable, jac: Callable, x, tol: float) -> list:
    """Newton iteration x <- x - J+(x) c(x) until every |c_i| < tol.

    ``c`` returns the residual and ``jac`` its Jacobian, which is evaluated
    only before a Newton step: a feasible x never calls it. The minimum-norm
    step J+ c takes one SVD and has the bits of pinv(J, rcond=1e-12) @ c; a
    Jacobian with a non-finite entry or without full row rank is an error.
    A NaN residual entry is never below tol.
    """
    x = list(x)
    for _ in range(MAX_NEWTON_ITERS):
        res = c(x)
        if all(abs(r) < tol for r in res):     # written so that NaN fails
            return x
        J = np.atleast_2d(np.asarray(jac(x), dtype=float))
        if not np.isfinite(J).all():
            raise IntegrationError(f"non-finite constraint Jacobian at x={x}")
        u, s, vt = np.linalg.svd(J, full_matrices=False)
        # also rejects J = 0; every s that passes is one pinv would keep
        if not s[-1] > 1e-12 * s[0]:
            raise IntegrationError(
                f"rank-deficient constraint Jacobian during projection at x={x}")
        x = (np.asarray(x, dtype=float)
             - (vt.T @ ((1.0 / s)[:, None] * u.T)) @ np.asarray(res)).tolist()
        if not all(map(math.isfinite, x)):
            raise IntegrationError(f"projection diverged: x={x}")
    res = c(x)
    raise IntegrationError(
        f"projection did not converge in {MAX_NEWTON_ITERS} iterations; "
        f"residual {np.linalg.norm(res, ord=np.inf):.3e} at x={x}")


def span_steps(t0: float, t1: float, dt: float) -> int:
    """The whole number of steps of a finite, positive dt in the finite,
    ordered span [t0, t1], to 1e-9 relative."""
    if not (math.isfinite(t0) and t0 <= t1 < math.inf):
        raise ValueError(f"span [{t0}, {t1}] is negative or not finite")
    if not 0.0 < dt < math.inf:   # written so that NaN fails
        raise ValueError(f"dt must be finite and positive, got {dt}")
    nsteps = int(round((t1 - t0) / dt))
    if abs(t0 + nsteps * dt - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValueError("span must be an integer number of steps")
    return nsteps


def integrate_projected(f, c, t0: float, x0, t1: float, dt: float,
                        tol: float) -> tuple[Trajectory, np.ndarray]:
    """Alternate RK4 steps of width dt with projections to residual norm
    below tol, from a feasible x0; every sample is feasible.

    Returns the trajectory and the field velocity f(t_k, x_k) at every sample:
    the RK4 first stage of the step leaving it (one extra evaluation at the
    last sample). ``c`` is the pair (residual, Jacobian) of callbacks that
    ``project`` takes, or None for plain unconstrained integration.
    """
    nsteps = span_steps(t0, t1, dt)
    if not 0.0 < tol < math.inf:   # written so that NaN fails
        raise ValueError(f"tol must be finite and positive, got {tol}")
    x = np.asarray(x0, dtype=float).tolist()
    res0 = [] if c is None else c[0](x)
    if not (all(map(math.isfinite, x)) and all(abs(r) < tol for r in res0)):
        raise IntegrationError(
            f"initial state violates constraints: x0={x}, residual {res0}")
    xs = np.empty((nsteps + 1, len(x)))
    vs = np.empty_like(xs)
    xs[0] = x
    t = t0
    for k in range(nsteps):
        try:
            vs[k] = k1 = f(t, x)
            x = step(f, t, x, k1, dt)
            if c is not None:
                x = project(*c, x, tol)
        except IntegrationError as exc:
            raise IntegrationError(f"t={t + dt}: {exc}") from exc
        t = t0 + (k + 1) * dt
        xs[k + 1] = x
    vs[nsteps] = f(t, x)
    return Trajectory(t=t0 + np.arange(nsteps + 1) * dt, x=xs), vs
