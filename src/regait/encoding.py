"""Encoding templates: pullback of template constraint forms, and learning
constraint value functions from an example trajectory.

An encoding map is given by its Jacobian: a function ``dphi`` taking one
state (n,) to the (p, n) Jacobian of a full-rank output map phi, and a block
of states (..., n) to (..., p, n). Template forms are the rows of a (k, p)
matrix; a form ``omega`` pulls back to the constraint row
``omega . Dphi(x)`` on the ambient space. Recording
``eta_j(t) = omega_j . Dphi(x0(t)) . x0dot(t)`` along an example and fitting
it as a Fourier series in phase yields the learned block (Omega_L, gamma_L).
Each function takes one state or a block of states in one call.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .constraints import DEFAULT_RANK_TOL, ConstraintBlock, Priority
from .signals import FourierSeries, PhaseEstimator, estimate_phases, fit_fourier
from .trajectory import Trajectory


def pullback(dphi: Callable, forms, x) -> np.ndarray:
    """Rows ``forms @ Dphi(x)`` of the (k, p) form matrix: (k, n) at one
    state, (..., k, n) at a block. Raises where Dphi loses rank."""
    forms = np.asarray(forms, dtype=float)
    jac = np.asarray(dphi(np.asarray(x, dtype=float)), dtype=float)
    p = jac.shape[-2]
    if forms.ndim != 2 or forms.shape[1] != p:
        raise ValueError(f"forms have shape {forms.shape}, expected (k, {p})")
    svals = np.linalg.svd(jac, compute_uv=False)
    lost = svals[..., p - 1] <= DEFAULT_RANK_TOL * svals[..., 0]
    if np.count_nonzero(lost):
        raise ValueError("output map loses rank at x (singular values "
                         f"{svals[lost][0]})")
    return forms @ jac


def record_eta(dphi: Callable, forms, traj: Trajectory,
               velocities=None) -> np.ndarray:
    """(k, N) array: eta_j(t_i) = omega_j . Dphi(x_i) . xdot_i for every form
    and sample, from one Jacobian call over the trajectory.

    Velocities default to second-order finite differences of the trajectory;
    pass exact ones when the generator provides them.
    """
    if velocities is None:
        vel = traj.velocities()
    else:
        vel = np.asarray(velocities, dtype=float)
        if vel.shape != traj.x.shape:
            raise ValueError(f"velocities have shape {vel.shape} but the "
                             f"trajectory's states have shape {traj.x.shape}")
    ydot = (dphi(traj.x) @ vel[..., None])[..., 0]
    return np.asarray(forms, dtype=float) @ ydot.T


@dataclass(frozen=True)
class LearnedConstraints:
    """Template forms (k, p) plus fitted Fourier-in-phase value models."""

    forms: np.ndarray
    eta_models: tuple[FourierSeries, ...]
    phase_model: PhaseEstimator

    def __post_init__(self):
        if len(self.forms) != len(self.eta_models):
            raise ValueError("one eta model per form required")


def learn_constraints(dphi: Callable, forms, traj: Trajectory,
                      phase: PhaseEstimator, order: int = 4,
                      velocities=None,
                      phase_features: Callable | None = None,
                      ) -> LearnedConstraints:
    """Fit each recorded eta_j as a Fourier series of estimated phase.

    ``phase_features`` maps states to the coordinates the estimator was
    trained on (identity by default). Each sample is fitted at the phase
    ``estimate_phases`` gives it, the one ``learned_block`` queries; that
    phase, unwrapped, must be strictly monotone along the trajectory.
    """
    feats = traj.x if phase_features is None else phase_features(traj.x)
    phases = estimate_phases(phase, feats)
    if np.any(np.diff(np.unwrap(phases)) <= 0):
        raise ValueError("estimated phase is not strictly monotone along "
                         "the trajectory")
    series = record_eta(dphi, forms, traj, velocities=velocities)
    models = tuple(fit_fourier(phases, s, order) for s in series)
    return LearnedConstraints(forms=np.asarray(forms, dtype=float),
                              eta_models=models, phase_model=phase)


def learned_gamma(lc: LearnedConstraints, phase) -> np.ndarray:
    """Value vector gamma_L (k,) at a phase in [0, 2*pi), (..., k) at an
    array of phases."""
    return np.stack([m(phase) for m in lc.eta_models], axis=-1)


def learned_block(dphi: Callable, lc: LearnedConstraints,
                  phase_features: Callable | None = None,
                  label: str = "learned") -> ConstraintBlock:
    """Constraint block of the learned rows at one state or a block of
    states: one phase estimate, one pullback and one value lookup."""

    def rows(t, x):
        x = np.asarray(x, dtype=float)
        feats = x if phase_features is None else phase_features(x)
        phase = estimate_phases(lc.phase_model, feats)
        return pullback(dphi, lc.forms, x), learned_gamma(lc, phase)

    return ConstraintBlock(priority=Priority.LEARNED, rows=rows, label=label)


def learned_to_json(lc: LearnedConstraints) -> str:
    """``learned.json``: every field of ``lc`` and of its series and phase
    estimator, under the dataclasses' own names and order."""
    return json.dumps({"kind": "learned", **asdict(lc)},
                      default=lambda v: v.tolist(), indent=2)


def learned_from_json(text: str) -> LearnedConstraints:
    """The learned rows that ``learned_to_json`` wrote, field for field."""
    data = json.loads(text)
    pm = {k: np.asarray(v, dtype=float) if isinstance(v, list) else v
          for k, v in data["phase_model"].items()}
    return LearnedConstraints(
        forms=np.asarray(data["forms"], dtype=float),
        eta_models=tuple(FourierSeries(**m) for m in data["eta_models"]),
        phase_model=PhaseEstimator(**pm))
