"""Encoding templates: output maps, pullback of template constraint forms,
and learning constraint value functions from an example trajectory.

A template form ``omega`` lives on the output space of a full-rank map
``phi``; its pullback ``omega . Dphi(x)`` is a constraint row on the ambient
space. Recording ``eta_j(t) = omega_j . Dphi(x0(t)) . x0dot(t)`` along an
example and fitting it as a Fourier series in phase yields the learned block
(Omega_L, gamma_L).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constraints import DEFAULT_RANK_TOL, ConstraintBlock, Priority
from .signals import FourierSeries, PhaseEstimator, estimate_phase, fit_fourier
from .trajectory import Trajectory


@dataclass(frozen=True)
class EncodingMap:
    """Full-rank output map with Jacobian access.

    ``jacobian`` may be omitted, in which case central finite differences
    with step 1e-6 * max(1, ||x||) are used.
    """

    outputs: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.outputs(np.asarray(x, dtype=float)), dtype=float)

    def jacobian_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            return np.atleast_2d(np.asarray(self.jacobian(x), dtype=float))
        h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
        y0 = self(x)
        jac = np.empty((len(y0), len(x)))
        for i in range(len(x)):
            dx = np.zeros_like(x)
            dx[i] = h
            jac[:, i] = (self(x + dx) - self(x - dx)) / (2.0 * h)
        return jac


def _form_vector(omega, y) -> np.ndarray:
    """A template form is either a constant vector or a function of phi(x)."""
    vec = omega(y) if callable(omega) else omega
    return np.asarray(vec, dtype=float)


def pullback(emap: EncodingMap, omega, x,
             tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Row coefficients omega(phi(x)) . Dphi(x) on the ambient space."""
    x = np.asarray(x, dtype=float)
    jac = emap.jacobian_at(x)
    p = jac.shape[0]
    svals = np.linalg.svd(jac, compute_uv=False)
    if svals[p - 1] <= tol * svals[0]:
        raise ValueError(
            f"output map loses rank at x (singular values {svals})")
    vec = _form_vector(omega, emap(x))
    if vec.shape != (p,):
        raise ValueError(f"form has length {vec.shape}, expected ({p},)")
    return vec @ jac


def record_eta(emap: EncodingMap, forms: Sequence, traj: Trajectory,
               velocities=None) -> list[np.ndarray]:
    """eta_j(t_k) = omega_j . Dphi(x_k) . xdot_k for every form and sample.

    Velocities default to second-order finite differences of the trajectory;
    pass exact ones when the generator provides them.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 samples to differentiate")
    vel = traj.velocities() if velocities is None else np.asarray(velocities)
    series = [np.empty(len(traj)) for _ in forms]
    for k in range(len(traj)):
        jac = emap.jacobian_at(traj.x[k])
        ydot = jac @ vel[k]
        y = emap(traj.x[k])
        for j, omega in enumerate(forms):
            series[j][k] = _form_vector(omega, y) @ ydot
    return series


@dataclass(frozen=True)
class LearnedConstraints:
    """Template forms plus fitted Fourier-in-phase value models."""

    forms: tuple
    eta_models: tuple[FourierSeries, ...]
    phase_model: PhaseEstimator

    def __post_init__(self):
        if len(self.forms) != len(self.eta_models):
            raise ValueError("one eta model per form required")


def learn_constraints(emap: EncodingMap, forms: Sequence, traj: Trajectory,
                      phase: PhaseEstimator, order: int = 4,
                      velocities=None,
                      phase_features: Callable | None = None,
                      ) -> LearnedConstraints:
    """Fit each recorded eta_j as a Fourier series of estimated phase.

    ``phase_features`` maps a state to the coordinates the estimator was
    trained on (identity by default). The estimated phase must be strictly
    monotone along the trajectory.
    """
    feats = np.asarray([_phase_input(phase_features, xk) for xk in traj.x])
    unwrapped = phase.training_phases(feats)
    if np.any(np.diff(unwrapped) <= 0):
        raise ValueError("estimated phase is not strictly monotone along "
                         "the trajectory")
    phases = np.mod(unwrapped, 2.0 * np.pi)
    series = record_eta(emap, forms, traj, velocities=velocities)
    models = tuple(fit_fourier(phases, s, order) for s in series)
    return LearnedConstraints(forms=tuple(forms), eta_models=models,
                              phase_model=phase)


def _phase_input(phase_features, x):
    return np.asarray(x, dtype=float) if phase_features is None \
        else np.asarray(phase_features(x), dtype=float)


def learned_gamma(lc: LearnedConstraints, phase: float) -> np.ndarray:
    """Value vector gamma_L at a phase in [0, 2*pi)."""
    return np.array([m(phase) for m in lc.eta_models])


def learned_block(emap: EncodingMap, lc: LearnedConstraints,
                  phase_features: Callable | None = None,
                  label: str = "learned") -> ConstraintBlock:
    """Constraint block evaluating the learned rows at one state or at each
    of an (N, n) block of states (one encoding-map call per state)."""

    def rows(t, x):
        x = np.asarray(x, dtype=float)
        omega = np.empty(x.shape[:-1] + (len(lc.forms), x.shape[-1]))
        gamma = np.empty(x.shape[:-1] + (len(lc.forms),))
        for k in np.ndindex(x.shape[:-1]):
            ph = estimate_phase(lc.phase_model,
                                _phase_input(phase_features, x[k]))
            for j, form in enumerate(lc.forms):
                omega[k + (j,)] = pullback(emap, form, x[k])
            gamma[k] = learned_gamma(lc, ph)
        return omega, gamma

    return ConstraintBlock(priority=Priority.LEARNED, rows=rows, label=label)


def learned_to_json_dict(lc: LearnedConstraints) -> dict:
    forms = []
    for omega in lc.forms:
        if callable(omega):
            raise ValueError("state-dependent forms are not serializable")
        forms.append(np.asarray(omega, dtype=float).tolist())
    pm = lc.phase_model
    return {
        "kind": "learned",
        "forms": forms,
        "eta_models": [{"order": m.order, "a0": m.a0, "a": m.a.tolist(),
                        "b": m.b.tolist()} for m in lc.eta_models],
        "phase_model": {
            "pca_basis": pm.pca_basis.tolist(),
            "center": pm.center.tolist(),
            "direction_sign": pm.direction_sign,
            "offset": pm.offset,
            "min_radius": pm.min_radius,
        },
    }


def learned_from_json_dict(data: dict) -> LearnedConstraints:
    pm = data["phase_model"]
    phase = PhaseEstimator(
        pca_basis=np.asarray(pm["pca_basis"], dtype=float),
        center=np.asarray(pm["center"], dtype=float),
        direction_sign=float(pm["direction_sign"]),
        offset=float(pm["offset"]),
        min_radius=float(pm["min_radius"]))
    models = tuple(
        FourierSeries(order=int(m["order"]), a0=float(m["a0"]),
                      a=np.asarray(m["a"], dtype=float),
                      b=np.asarray(m["b"], dtype=float))
        for m in data["eta_models"])
    forms = tuple(np.asarray(f, dtype=float) for f in data["forms"])
    return LearnedConstraints(forms=forms, eta_models=models, phase_model=phase)


def learned_to_json(lc: LearnedConstraints) -> str:
    return json.dumps(learned_to_json_dict(lc), indent=2)


def learned_from_json(text: str) -> LearnedConstraints:
    return learned_from_json_dict(json.loads(text))
