"""Force-signal matching on a constrained mechanical system.

The plant is M(q) qdd + C(q, qd) = B u + A(q)^T lam with Pfaffian constraint
A(q) qd = 0. Along a desired motion the total applied force
eta(u, lam) = B u + A^T lam is recorded; after a rank-preserving change of the
constraint rows, the input is redesigned so the perturbed plant reproduces the
same force signal, and therefore (by uniqueness of solutions) the same motion.
Includes a 2-DOF point-mass toy small enough for hand-checked oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .integrate import integrate_projected
from .trajectory import Trajectory

# largest difference between the gauged and the plain redesigned input that
# gauge_invariance_check accepts
GAUGE_TOL = 1e-9


@dataclass(frozen=True)
class ManipulatorModel:
    """Plant description; all pieces are functions of configuration.

    ``constraint(q)`` returns the Pfaffian rows A (m, n) together with their
    configuration derivative dA (m, n, n), dA[j, k, i] = dA_jk/dq_i, so that
    dA/dt = dA @ qd. Perturbed constraints follow the same contract.
    """

    inertia: Callable[[np.ndarray], np.ndarray]
    bias: Callable[[np.ndarray, np.ndarray], np.ndarray]
    input_map: np.ndarray
    constraint: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    @property
    def dof(self) -> int:
        return self.input_map.shape[0]

    def constraint_at(self, q) -> tuple[np.ndarray, np.ndarray]:
        return _pfaffian(self.constraint, q, self.dof)


def _pfaffian(constraint: Callable, q, n: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """(A, dA) of a constraint callable, shaped (m, n) and (m, n, n)."""
    A, dA = constraint(np.asarray(q, dtype=float))
    A = np.asarray(A, dtype=float).reshape(-1, n)
    return A, np.asarray(dA, dtype=float).reshape(A.shape[0], n, n)


def constrained_accel(model: ManipulatorModel, q, qd, u,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Solve the saddle system for (qdd, lam) at one state.

    [M  -A^T] [qdd]   [B u - C  ]
    [A    0 ] [lam] = [-Adot qd ]
    """
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    u = np.asarray(u, dtype=float)
    M = np.asarray(model.inertia(q), dtype=float)
    C = np.asarray(model.bias(q, qd), dtype=float)
    B = model.input_map
    A, dA = model.constraint_at(q)
    Adot = dA @ qd
    m, n = A.shape
    if m == 0:
        return np.linalg.solve(M, B @ u - C), np.zeros(0)
    saddle = np.block([[M, -A.T], [A, np.zeros((m, m))]])
    rhs = np.concatenate([B @ u - C, -Adot @ qd])
    try:
        sol = np.linalg.solve(saddle, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular saddle matrix at q={q}") from exc
    return sol[:n], sol[n:]


def record_force_signal(model: ManipulatorModel, x, u) -> np.ndarray:
    """(N, n) total force eta = B u + A^T lam, one row per state row
    (q, qd) of ``x`` under its input row of ``u``."""
    n = model.dof
    eta = np.empty((len(x), n))
    for k, (state, u_k) in enumerate(zip(x, u, strict=True)):
        q, qd = state[:n], state[n:]
        A, _ = model.constraint_at(q)
        _, lam = constrained_accel(model, q, qd, u_k)
        eta[k] = model.input_map @ u_k + A.T @ lam
    return eta


@dataclass
class RedesignResult:
    u: np.ndarray
    residual: float


def redesign_input(model: ManipulatorModel, perturbed_A: Callable, eta_d,
                   q, qd, gauge: np.ndarray | None = None) -> RedesignResult:
    """Input u* whose total force on the perturbed plant matches eta_d.

    The multipliers the perturbed plant produces are affine in u,
    lam(u) = lam0 + S u, so the matching condition
    B u + A~^T lam(u) = eta_d is linear in u and solved by least squares.
    An invertible ``gauge`` matrix Q reweights the match to Q eta = Q eta_d;
    for solvable matches the minimizer is unchanged.
    """
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    eta_d = np.asarray(eta_d, dtype=float)
    M = np.asarray(model.inertia(q), dtype=float)
    C = np.asarray(model.bias(q, qd), dtype=float)
    B = model.input_map
    A, dA = _pfaffian(perturbed_A, q, model.dof)
    Adot = dA @ qd
    Minv = np.linalg.inv(M)
    W = A @ Minv @ A.T
    Winv = np.linalg.inv(W)
    lam0 = Winv @ (-Adot @ qd + A @ Minv @ C)
    S = -Winv @ A @ Minv @ B
    T = B + A.T @ S
    rhs = eta_d - A.T @ lam0
    lhs, target = (T, rhs) if gauge is None else (gauge @ T, gauge @ rhs)
    u, *_ = np.linalg.lstsq(lhs, target, rcond=None)
    return RedesignResult(u=u, residual=float(np.linalg.norm(T @ u - rhs)))


def gauge_invariance_check(model: ManipulatorModel, Q: np.ndarray, x,
                           eta, perturbed_A: Callable) -> bool:
    """True when redesigning against Q.eta equals plain redesign everywhere.

    Compares the redesigned input on the ``perturbed_A`` rows with and
    without the gauge transformation Q at every state row (q, qd) of ``x``
    against its recorded force row of ``eta``; the inputs may differ by at
    most ``GAUGE_TOL``.
    """
    Q = np.asarray(Q, dtype=float)
    n = model.dof
    if Q.shape != (n, n) or np.linalg.matrix_rank(Q) < n:
        raise ValueError("gauge matrix must be an invertible (dof, dof) "
                         "matrix")
    for state, eta_k in zip(x, eta, strict=True):
        q, qd = state[:n], state[n:]
        plain = redesign_input(model, perturbed_A, eta_k, q, qd)
        gauged = redesign_input(model, perturbed_A, eta_k, q, qd, gauge=Q)
        if np.linalg.norm(plain.u - gauged.u) > GAUGE_TOL:
            return False
    return True


def point_mass_toy() -> ManipulatorModel:
    """2-DOF planar point mass with one configuration-dependent Pfaffian row.

    Constraint sin(q0) qd0 + qd1 = 0; multipliers are generically nonzero and
    dA/dt is nontrivial, which is all the structure the demos need.
    """
    return ManipulatorModel(
        inertia=lambda q: np.eye(2),
        bias=lambda q, qd: np.zeros(2),
        input_map=np.eye(2),
        constraint=lambda q: (np.array([[np.sin(q[0]), 1.0]]),
                              np.array([[[np.cos(q[0]), 0.0], [0.0, 0.0]]])),
    )


def rescaled_constraint(model: ManipulatorModel, factor: Callable) -> Callable:
    """Row-rescaled constraint A~(q) = c(q) A(q); rank- and kernel-preserving
    for positive c, so the original motion stays feasible.

    ``factor(q)`` returns c and its gradient; dA~ follows by the product rule.
    """

    def perturbed(q):
        c, grad = factor(np.asarray(q, dtype=float))
        A, dA = model.constraint_at(q)
        return c * A, c * dA + A[:, :, None] * np.asarray(grad, dtype=float)

    return perturbed


def _constrained_field(model: ManipulatorModel, u_of_t: Callable):
    n = model.dof

    def field(t, state):
        q, qd = state[:n], state[n:]
        qdd, _ = constrained_accel(model, q, qd, u_of_t(t, state))
        return np.concatenate([qd, qdd])

    return field


def _velocity_constraint(model: ManipulatorModel):
    """Pfaffian residual A(q) qd and its Jacobian on (q, qd), the callback
    pair ``integrate_projected`` takes."""
    n = model.dof

    def residual(state):
        return model.constraint_at(state[:n])[0] @ state[n:]

    def jacobian(state):
        q, qd = state[:n], state[n:]
        A, dA = model.constraint_at(q)
        return np.hstack([np.einsum("jki,k->ji", dA, qd), A])

    return residual, jacobian


def _integrate(model: ManipulatorModel, u_of_t: Callable, q0, qd0,
               t1: float, dt: float) -> Trajectory:
    """Integrate the constrained plant under u(t, state).

    The Pfaffian constraint is enforced at acceleration level by the saddle
    solve and corrected at velocity level by Newton projection each step.
    """
    x0 = np.concatenate([np.asarray(q0, dtype=float),
                         np.asarray(qd0, dtype=float)])
    # the Pfaffian residual's tolerance; the crawler's tighter 1e-11 adds
    # Newton steps here and moves the redesigned samples
    traj, _ = integrate_projected(_constrained_field(model, u_of_t),
                                  _velocity_constraint(model), 0.0, x0, t1,
                                  dt, 1e-10)
    return traj


@dataclass
class ForceMatchingOutcome:
    """End-to-end results for one perturbation scenario."""

    desired: Trajectory           # nominal motion at half the step
    redesigned: Trajectory        # closed-loop motion on the perturbed plant
    tracking_error: float
    worst_match_residual: float
    gauge_ok: bool


def run_force_matching(model: ManipulatorModel, perturbed_A: Callable,
                       u_desired: Callable, q0, qd0, T: float, dt: float,
                       gauge: np.ndarray) -> ForceMatchingOutcome:
    """Record eta on the nominal plant, redesign on the perturbed one, close
    the loop, and compare trajectories.

    The desired motion is generated at half resolution so the recorded force
    signal covers the Runge-Kutta stage times of the closed-loop integration
    exactly (no interpolation enters the comparison).
    """
    n = model.dof
    fine = _integrate(model, lambda t, s: u_desired(t), q0, qd0, T, 0.5 * dt)
    eta = record_force_signal(model, fine.x, [u_desired(t) for t in fine.t])

    def eta_at(t):
        idx = int(round(t / (0.5 * dt)))
        if abs(t - fine.t[idx]) > 1e-9:
            raise ValueError(f"force signal not sampled at t={t}")
        return eta[idx]

    def u_star(t, state):
        return redesign_input(model, perturbed_A, eta_at(t), state[:n],
                              state[n:], gauge=gauge).u

    redone = _integrate(model, u_star, q0, qd0, T, dt)
    desired_q = fine.x[::2, :n]
    err = float(np.max(np.linalg.norm(redone.x[:, :n] - desired_q, axis=1)))

    worst = 0.0
    for k in range(0, len(fine), 20):
        q, qd = fine.x[k, :n], fine.x[k, n:]
        worst = max(worst, redesign_input(model, perturbed_A, eta[k],
                                          q, qd).residual)
    gauge_ok = gauge_invariance_check(model, gauge, fine.x[::20], eta[::20],
                                      perturbed_A)
    return ForceMatchingOutcome(desired=fine, redesigned=redone,
                                tracking_error=err,
                                worst_match_residual=worst, gauge_ok=gauge_ok)
