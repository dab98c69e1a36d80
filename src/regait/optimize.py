"""Derivative-free Nelder-Mead search and the constraint-violation cost.

The cost builder turns a constraint stack plus a params->trajectory provider
into the scalar objective: the integral of the squared Designed/Learned
residuals along the produced trajectory. Both recovery paths that lack a
model of the damage minimize it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .constraints import ConstraintStack, Priority, residual
from .trajectory import write_csv

log = logging.getLogger(__name__)

_trapz = getattr(np, "trapezoid", None) or np.trapz

# standard Nelder-Mead coefficients
REFLECTION = 1.0
EXPANSION = 2.0
CONTRACTION = 0.5
SHRINK = 0.5


@dataclass(frozen=True)
class NMConfig:
    initial_step: float | np.ndarray = 0.1
    max_iters: int = 200
    f_tol: float = 1e-10
    x_tol: float = 1e-10
    bounds: Sequence[tuple[float, float]] | None = None


@dataclass
class CostTrace:
    """Every cost evaluation in order, plus the running best."""

    candidates: list[np.ndarray] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    best_so_far: list[float] = field(default_factory=list)
    iterations: int = 0

    def record(self, x: np.ndarray, fx: float) -> None:
        self.candidates.append(np.array(x))
        self.costs.append(float(fx))
        prev = self.best_so_far[-1] if self.best_so_far else np.inf
        self.best_so_far.append(min(prev, float(fx)))

    def to_csv(self, path) -> None:
        n = len(self.candidates[0]) if self.candidates else 0
        write_csv(path, "iter,cost,best" + "".join(f",x{j}" for j in range(n)),
                  [np.arange(len(self.costs)), self.costs, self.best_so_far,
                   np.reshape(self.candidates, (len(self.costs), n))])


def _clip(x: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return x
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return np.clip(x, lo, hi)


def nelder_mead(f: Callable[[np.ndarray], float], x0,
                cfg: NMConfig = NMConfig()) -> tuple[np.ndarray, CostTrace]:
    """Standard simplex minimization with bounds enforced by clipping.

    Returns the best point found and the full evaluation trace. Terminates on
    simplex cost spread < f_tol, simplex diameter < x_tol, or max_iters.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    trace = CostTrace()

    def eval_at(x):
        x = _clip(np.asarray(x, dtype=float), cfg.bounds)
        fx = float(f(x))
        trace.record(x, fx)
        return x, fx

    x0c, f0 = eval_at(x0)
    if not np.isfinite(f0):
        raise ValueError(f"cost is not finite at the start point: {f0}")

    steps = np.broadcast_to(np.asarray(cfg.initial_step, dtype=float), (n,))
    simplex = [x0c]
    fvals = [f0]
    for i in range(n):
        xi = x0c.copy()
        xi[i] += steps[i]
        xi, fi = eval_at(xi)
        simplex.append(xi)
        fvals.append(fi)
    simplex = np.array(simplex)
    fvals = np.array(fvals)

    for it in range(cfg.max_iters):
        trace.iterations = it + 1
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        if (fvals[-1] - fvals[0] < cfg.f_tol
                and np.max(np.abs(simplex[1:] - simplex[0])) < cfg.x_tol):
            break
        centroid = simplex[:-1].mean(axis=0)
        xr, fr = eval_at(centroid + REFLECTION * (centroid - simplex[-1]))
        if fr < fvals[0]:
            xe, fe = eval_at(centroid + EXPANSION * (xr - centroid))
            simplex[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc, fc = eval_at(centroid + CONTRACTION * (xr - centroid))
                better = fc <= fr
            else:
                xc, fc = eval_at(
                    centroid + CONTRACTION * (simplex[-1] - centroid))
                better = fc < fvals[-1]
            if better:
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    xi, fi = eval_at(
                        simplex[0] + SHRINK * (simplex[i] - simplex[0]))
                    simplex[i], fvals[i] = xi, fi

    best = int(np.argmin(fvals))
    return simplex[best], trace


def constraint_violation_cost(stack: ConstraintStack,
                              trajectory_provider: Callable,
                              classes=(Priority.DESIGNED, Priority.LEARNED),
                              failure_penalty: float = 1e6,
                              ) -> Callable[[np.ndarray], float]:
    """Objective: integral of ||residual_{D,L}||^2 dt along the trajectory.

    The residual of the requested classes is evaluated at every sample of the
    provider's trajectory in one call over all samples (velocities by central
    differences) and its squared row norms are integrated with the trapezoid
    rule. Provider failures return ``failure_penalty`` so derivative-free
    search stays total.
    """

    def cost(params) -> float:
        try:
            traj = trajectory_provider(params)
        except Exception as exc:  # provider failure is data, not a crash
            log.warning("trajectory provider failed at %s: %s", params, exc)
            return failure_penalty
        r = residual(stack, traj.t, traj.x, traj.velocities(), classes=classes)
        return float(_trapz(np.einsum("ij,ij->i", r, r), traj.t))

    return cost
