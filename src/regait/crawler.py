"""Planar two-armed crawler: kinematics, constraint stack, reference gait,
jam damage, closed-form recovery, and playback with a closed-form pose fit.

State layout is x = (x, y, theta0, theta1..theta6): an SE(2) pose followed by
six joint angles, three per arm. Each arm is a chain of unit links hanging off
a hip offset h1/h2 in the body frame; both feet are pinned to ground anchors
l1/l2, giving four real Pfaffian rows (real and imaginary parts of the two
complex foot velocities).

The encoding template is the polar form (r, alpha) of the body-frame midpoint
of the two feet; ``template_encoding_map`` gives it to the learning pipeline
as its Jacobian, and ``template_traces`` gives its values. Both, the
designed rows and the recovery field read one record, ``_template``, at one
state or a block of states. Designed rows keep that midpoint stationary in
the world (rows 1-2, implied by the pinned feet), drive (r, alpha) along
recorded gait rates (rows 3-4), and lock x to theta0 (row 5). Jamming a joint
adds one physical row (that joint's velocity is zero); recovery re-solves the
joint rates so the template still tracks the recorded gait.

Sign conventions: with beta = theta0 + alpha, the world midpoint of the feet
is x + iy + r e^{i beta}, so pinned feet give
    d/dt [x + r cos beta] = 0  and  d/dt [y + r sin beta] = 0,
which are rows 1-2 below. The recovery pose rate is the unique solution of
those rows plus row 5 given (rdot_d, alphadot_d); all other signs follow.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constraints import ConstraintBlock, ConstraintStack, Priority, residual
from .integrate import (IntegrationError, ProjectedIntegratorConfig,
                        integrate_projected)
from .trajectory import Trajectory

G_DIM = 3
N_JOINTS = 6
STATE_DIM = 9

# dr and dalpha as template 1-forms (rows), used by the learning pipeline
TEMPLATE_FORMS = np.eye(2)


@dataclass(frozen=True)
class CrawlerParams:
    l1: complex = 2.5 + 2.0j
    l2: complex = -2.5 + 2.0j
    h1: complex = 1.0 + 0.0j
    h2: complex = -1.0 + 0.0j

    def __post_init__(self):
        for name in ("l1", "l2", "h1", "h2"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)}")
        if self.l1 == self.l2:
            raise ValueError("foot anchors must be distinct")


def _arms(params: CrawlerParams, joints: np.ndarray,
          ) -> tuple[np.ndarray, np.ndarray]:
    """Body-frame endpoints (..., 2) of both three-link unit chains and their
    tail sums s_j (..., 2, 3), from joint angles (..., 6).

    d endpoint / d angle_j = i * s_j where s_j sums the links from j outward.
    """
    angles = joints.reshape(joints.shape[:-1] + (2, 3))
    links = np.exp(1j * np.cumsum(angles, axis=-1))
    tails = np.cumsum(links[..., ::-1], axis=-1)[..., ::-1]
    return np.array([params.h1, params.h2]) + links.sum(axis=-1), tails


def _kinematics(params: CrawlerParams, state: np.ndarray) -> tuple:
    """(rot, p1, s1, p2, s2): body rotation e^{i theta0}, both arm endpoints
    in the body frame and their tail sums, from one pass over the arms.
    ``state`` is one state or an (N, 9) block of them; for one state the
    endpoints are scalars (``[()]`` unwraps a 0-d array)."""
    rot = np.exp(1j * state[..., 2])
    ends, tails = _arms(params, state[..., 3:])
    return (rot, ends[..., 0][()], tails[..., 0, :], ends[..., 1][()],
            tails[..., 1, :])


def limb_endpoints(params: CrawlerParams, state) -> tuple[complex, complex]:
    """World positions of both feet, for one state or an (N, 9) block."""
    state = np.asarray(state, dtype=float)
    rot, p1, _, p2, _ = _kinematics(params, state)
    z = state[..., 0] + 1j * state[..., 1]
    return z + rot * p1, z + rot * p2


_UNIT = np.array([1.0, 1j])   # d f / d(x, y) of either foot


def _feet(params: CrawlerParams, state, kin=None,
          ) -> tuple[np.ndarray, np.ndarray]:
    """Residual (..., 4) and velocity rows (..., 4, 9) of (Re f1, Im f1,
    Re f2, Im f2) at one state or an (N, 9) block, from one kinematics
    record (computed from the state unless given)."""
    if kin is None:
        kin = _kinematics(params, state)
    rot, p1, s1, p2, s2 = kin
    lead = rot.shape
    z = state[..., 0] + 1j * state[..., 1]
    d = np.empty(lead + (2,), dtype=complex)
    d[..., 0] = z + rot * p1 - params.l1
    d[..., 1] = z + rot * p2 - params.l2
    turn = 1j * rot
    J = np.zeros(lead + (2, STATE_DIM), dtype=complex)   # rows f1, f2
    J[..., :2] = _UNIT
    J[..., 0, 2] = turn * p1
    J[..., 1, 2] = turn * p2
    np.multiply(turn[..., None], s1, out=J[..., 0, 3:6])
    np.multiply(turn[..., None], s2, out=J[..., 1, 6:9])
    # complex (re, im) pairs -> rows Re f1, Im f1, Re f2, Im f2
    rows = J.view(float).reshape(lead + (2, STATE_DIM, 2)).swapaxes(-1, -2)
    return d.view(float), rows.reshape(lead + (4, STATE_DIM))


def foot_matrix(params: CrawlerParams, state) -> np.ndarray:
    """(4, 9) velocity rows of (Re f1, Im f1, Re f2, Im f2)."""
    return _feet(params, np.asarray(state, dtype=float))[1]


def foot_residual(params: CrawlerParams, state) -> np.ndarray:
    return _feet(params, np.asarray(state, dtype=float))[0]


def _template(kin, tol: float = 1e-12) -> tuple:
    """The encoding template over the kinematics' leading dims: the
    body-frame foot midpoint w, its radius r (the template's r) and the
    (..., 2, 6) joint-angle Jacobian of (r, alpha).

    ``np.hypot`` gives one state and a block the same bits; ``abs`` of a
    complex scalar and ``np.abs`` over an array do not always agree."""
    _, p1, s1, p2, s2 = kin
    w = 0.5 * (p1 + p2)
    r = np.hypot(w.real, w.imag)
    if np.count_nonzero(r < tol):   # cheaper than .any() on one state
        raise ValueError("template undefined: limb midpoint at the body origin")
    prod = np.conj(w)[..., None] * (0.5j * np.concatenate([s1, s2], axis=-1))
    jac = np.empty(prod.shape[:-1] + (2, N_JOINTS))
    jac[..., 0, :] = prod.real / r[..., None]
    jac[..., 1, :] = prod.imag / (r**2)[..., None]
    return w, r, jac


def template_encoding_map(params: CrawlerParams) -> Callable:
    """The template (r, alpha) as an encoding map: its (2, 9) Jacobian at one
    state, (..., 2, 9) at a block of states."""

    def dphi(state):
        jac = _template(_kinematics(params, np.asarray(state, dtype=float)))[2]
        out = np.zeros(jac.shape[:-1] + (STATE_DIM,))
        out[..., G_DIM:] = jac
        return out

    return dphi


def shape_features(x) -> np.ndarray:
    """Joint-angle part of states; the phase estimator's feature space."""
    return np.asarray(x, dtype=float)[..., 3:]


# the state-independent entries of the template rows; rows 1-2, columns
# theta0d, rd and alphad depend on the state
_TEMPLATE_FIXED = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, -1.0, 0.0, 0.0],
])


def _template_rows(state, w, r) -> np.ndarray:
    """(..., 5, 5) designed rows in template coordinates at states whose
    body-frame foot midpoint is w, of radius r."""
    beta = state[..., 2] + np.angle(w)
    cb, sb = np.cos(beta), np.sin(beta)
    out = np.empty(beta.shape + (5, 5))
    out[...] = _TEMPLATE_FIXED
    out[..., 0, 2] = out[..., 0, 4] = -r * sb
    out[..., 1, 2] = out[..., 1, 4] = r * cb
    out[..., 0, 3] = cb
    out[..., 1, 3] = sb
    return out


def design_constraints(params: CrawlerParams, state,
                       rates: Sequence = (0.0, 0.0),
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The five designed rows (..., 5, 9) and their values (..., 5) at one
    state or an (N, 9) block of states: the rows in template coordinates
    (xd, yd, theta0d, rd, alphad) pulled back to the nine-dimensional state.

    ``rates`` is (rdot, alphadot), each a float or one value per state, as
    ``ReferenceGait.rates_at`` returns them for a time or an array of times.
    """
    state = np.asarray(state, dtype=float)
    w, r, jac = _template(_kinematics(params, state))
    tmpl = _template_rows(state, w, r)
    omega = np.empty(tmpl.shape[:-1] + (STATE_DIM,))
    omega[..., :G_DIM] = tmpl[..., :G_DIM]
    omega[..., G_DIM:] = tmpl[..., G_DIM:] @ jac
    gamma = np.zeros(state.shape[:-1] + (5,))
    gamma[..., 2], gamma[..., 3] = rates[1], rates[0]
    return omega, gamma


_IK_GUESSES = (
    (np.pi / 2,) * 6,
    (0.9, 0.6, 0.3, 2.2, -0.6, -0.3),
    (1.2, 0.4, 0.2, 1.9, -0.4, -0.2),
    (0.7, 0.8, 0.5, 2.4, -0.8, -0.5),
    (1.1, -0.5, 0.4, 2.0, 0.5, -0.4),
)
_IK_TOL = 1e-12        # foot residual (max norm) that counts as solved
_IK_MAX_ITERS = 200    # Newton steps per guess


def initial_configuration(params: CrawlerParams) -> np.ndarray:
    """Feasible zero-pose state via damped Newton on the foot residual.

    The 4-equation, 6-unknown system is solved with pseudoinverse steps from
    each of ``_IK_GUESSES`` in turn; the first guess that converges wins (the
    elbow branch is a free choice).
    """
    for guess in _IK_GUESSES:
        theta = np.array(guess, dtype=float)
        for _ in range(_IK_MAX_ITERS):
            state = np.concatenate([np.zeros(G_DIM), theta])
            res, J = _feet(params, state)
            err = np.linalg.norm(res, ord=np.inf)
            if err < _IK_TOL:
                return state
            full = np.linalg.pinv(J[:, G_DIM:], rcond=1e-10) @ res
            scale, base = 1.0, np.linalg.norm(res)
            while scale > 1e-4:
                cand = theta - scale * full
                cres = foot_residual(params,
                                     np.concatenate([np.zeros(G_DIM), cand]))
                if np.linalg.norm(cres) < base:
                    theta = cand
                    break
                scale *= 0.5
            else:
                break  # no descent step found; try the next guess
    raise ValueError("inverse kinematics failed for every initial guess")


# The reference gait moves along sinusoidal weights over the feet-pinned
# null-space directions. The null space of [foot rows; x-theta0 row] is
# four-dimensional; its SVD basis at each state is aligned to the basis at
# the start (orthogonal Procrustes) so the field is a continuous pure
# function of (t, state). A frame whose alignment cosine drops below
# GAIT_MIN_ALIGNMENT has drifted too far.
GAIT_AMPLITUDES = np.array([0.55, 0.45, 0.40, 0.35])
GAIT_PHASES = np.array([0.0, 1.7, 3.4, 5.1])
GAIT_MIN_ALIGNMENT = 0.2


# designed row 5 (x locked to theta0) pulled back to the state: constant
_X_THETA0_ROW = np.array([1.0, 0.0, -1.0] + [0.0] * N_JOINTS)


def _null_basis(params: CrawlerParams, state) -> np.ndarray:
    M = np.vstack([foot_matrix(params, state), _X_THETA0_ROW])
    _, svals, vt = np.linalg.svd(M)
    if svals[-1] < 1e-10 * svals[0]:
        raise IntegrationError("gait constraint rows lost rank")
    return vt[M.shape[0]:].T


def _gait_field(params: CrawlerParams, period: float,
                basis0: np.ndarray) -> Callable:
    def field(t, state):
        N = _null_basis(params, state)
        U, sv, Vt = np.linalg.svd(N.T @ basis0)
        if sv.min() < GAIT_MIN_ALIGNMENT:
            raise IntegrationError(
                f"null-space frame drifted too far from the start (cos {sv.min():.3f})")
        weights = GAIT_AMPLITUDES * np.sin(2.0 * np.pi * t / period
                                           + GAIT_PHASES)
        return N @ ((U @ Vt) @ weights)

    return field


@dataclass(frozen=True)
class ReferenceGait:
    """Recorded gait on a half-resolution grid.

    ``t``/``x``/``v`` are sampled at dt/2 so that Runge-Kutta stage times of
    any dt-grid integration over the same span land exactly on stored samples;
    ``rates_at`` then never interpolates. ``v`` holds the exact field velocity
    at each stored state (the integrator's RK4 first stage there); (r, alpha)
    and their rates are evaluated from it.
    """

    params: CrawlerParams
    period: float
    dt: float
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    r: np.ndarray
    alpha: np.ndarray
    rdot: np.ndarray
    alphadot: np.ndarray

    def _index(self, t) -> np.ndarray:
        """Grid index of a time or of each of an array of times."""
        half = 0.5 * self.dt
        k = np.rint(t / half)
        # written so that a NaN time counts as off the grid
        off = (k < 0) | (k >= len(self.t)) | ~(abs(t - k * half) <= 1e-9)
        if np.count_nonzero(off):
            raise ValueError(f"time {np.asarray(t)[off][0]} is not on the "
                             "recorded gait grid")
        return k.astype(np.intp)

    def rates_at(self, t) -> tuple:
        """(rdot, alphadot) at a time on the grid, or two arrays at an array
        of times; an off-grid time raises a ``ValueError`` naming it."""
        idx = self._index(t)
        return self.rdot[idx], self.alphadot[idx]

    def full_grid(self) -> Trajectory:
        return Trajectory(t=self.t[::2].copy(), x=self.x[::2].copy())

    @property
    def initial_state(self) -> np.ndarray:
        return self.x[0].copy()


def reference_gait(params: CrawlerParams, period: float = 1.0,
                   dt: float = 1e-3) -> ReferenceGait:
    """Generate and record the nominal gait by projected integration from
    ``initial_configuration``."""
    x0 = initial_configuration(params)
    field = _gait_field(params, period, _null_basis(params, x0))
    cfg = ProjectedIntegratorConfig(dt=0.5 * dt, projection_tol=1e-11)
    traj, v = integrate_projected(field, lambda s: _feet(params, s), 0.0, x0,
                                  period, cfg)
    n = len(traj)
    r, alpha, rates = np.empty(n), np.empty(n), np.empty((n, 2))
    for k in range(n):
        w, r[k], jac = _template(_kinematics(params, traj.x[k]))
        alpha[k] = np.angle(w)
        rates[k] = jac @ v[k, G_DIM:]
    return ReferenceGait(params=params, period=period, dt=dt, t=traj.t,
                         x=traj.x, v=v, r=r, alpha=alpha, rdot=rates[:, 0],
                         alphadot=rates[:, 1])


def _jam_index(jam, none_allowed: bool = True) -> int:
    """``jam`` as a joint index in 1..N_JOINTS, or 0 (no jam) if allowed;
    a non-integer such as 2.9 or True is rejected, not truncated."""
    try:
        index = -1 if isinstance(jam, bool) else operator.index(jam)
    except TypeError:
        index = -1
    if not (1 <= index <= N_JOINTS or (none_allowed and index == 0)):
        raise ValueError(f"jam joint index must be an integer in 1..{N_JOINTS}"
                         + (" or 0 for no jam" if none_allowed else "")
                         + f", got {jam!r}")
    return index


def apply_jam(joint_index: int) -> np.ndarray:
    """Physical row freezing one joint: e_j on the joint column (gamma 0)."""
    joint_index = _jam_index(joint_index, none_allowed=False)
    coeffs = np.zeros(STATE_DIM)
    coeffs[G_DIM - 1 + joint_index] = 1.0
    return coeffs


def physical_block(params: CrawlerParams, jam: int | None = None,
                   ) -> ConstraintBlock:
    jam_rows = apply_jam(jam)[None] if jam else np.zeros((0, STATE_DIM))

    def rows(t, state):
        feet = _feet(params, state)[1]      # four foot rows, then the jam
        lead = feet.shape[:-2]
        omega = np.concatenate(
            [feet, np.broadcast_to(jam_rows, lead + jam_rows.shape)], axis=-2)
        return omega, np.zeros(omega.shape[:-1])

    label = "pinned feet" + (f" + jammed joint {jam}" if jam else "")
    return ConstraintBlock(priority=Priority.PHYSICAL, rows=rows, label=label)


def designed_block(params: CrawlerParams, reference: ReferenceGait,
                   ) -> ConstraintBlock:
    def rows(t, state):
        return design_constraints(params, state, rates=reference.rates_at(t))

    return ConstraintBlock(priority=Priority.DESIGNED, rows=rows,
                           label="template gait")


def crawler_stack(params: CrawlerParams, reference: ReferenceGait,
                  jam: int | None = None) -> ConstraintStack:
    return ConstraintStack(ambient_dim=STATE_DIM,
                           blocks=[physical_block(params, jam),
                                   designed_block(params, reference)])


def recovery_field(params: CrawlerParams, reference: ReferenceGait,
                   jam: int) -> Callable:
    """Joint-rate law that tracks the recorded template under the jam.

    Pose rate comes from the invertible 3x3 pose block of template rows 1, 2,
    5; joint rates are the minimum-norm solution of the stacked foot rows,
    template-rate rows, and the jam row. The arms are evaluated once per call.
    """
    e_jam = apply_jam(jam)[G_DIM:]

    def field(t, state):
        rates = np.asarray(reference.rates_at(t))
        kin = _kinematics(params, state)
        w, r, jac = _template(kin)
        tmpl = _template_rows(state, w, r)[[0, 1, 4]]
        omega_g, omega_ra = tmpl[:, :G_DIM], tmpl[:, G_DIM:]
        svals = np.linalg.svd(omega_g, compute_uv=False)
        if svals[-1] < 1e-10 * svals[0]:
            raise IntegrationError(
                f"pose block of the template rows lost rank at t={t}")
        gd = np.linalg.solve(omega_g, -omega_ra @ rates)
        A = _feet(params, state, kin)[1]
        stacked = np.vstack([A[:, G_DIM:], jac, e_jam])
        rhs = np.concatenate([-A[:, :G_DIM] @ gd, rates, [0.0]])
        theta_dot = np.linalg.pinv(stacked, rcond=1e-10) @ rhs
        return np.concatenate([gd, theta_dot])

    return field


@dataclass(frozen=True)
class RecoveryResult:
    trajectory: Trajectory
    r: np.ndarray
    alpha: np.ndarray
    jam: int
    designed_residual: np.ndarray  # per-sample designed-row violation norm


def _designed_residuals(params, reference, t, x, v) -> np.ndarray:
    return np.linalg.norm(residual(crawler_stack(params, reference), t, x, v,
                                   classes=(Priority.DESIGNED,)), axis=-1)


def recover(params: CrawlerParams, reference: ReferenceGait,
            jam: int) -> RecoveryResult:
    """Integrate the recovery law from the reference initial condition, on
    the reference's step width.

    Designed residuals use the field velocity the integrator returns at each
    sample (its RK4 first stage). With jam=0 there is nothing to recover: the
    reference itself realizes the behavior and is returned unchanged.
    """
    jam = _jam_index(jam)
    if not jam:
        full = reference.full_grid()
        return RecoveryResult(trajectory=full, r=reference.r[::2].copy(),
                              alpha=reference.alpha[::2].copy(), jam=0,
                              designed_residual=_designed_residuals(
                                  params, reference, full.t, full.x,
                                  reference.v[::2]))
    cfg = ProjectedIntegratorConfig(dt=reference.dt, projection_tol=1e-11)
    x0 = reference.initial_state
    locked = x0[G_DIM - 1 + jam]
    jam_grad = apply_jam(jam)[None]

    def c(state):
        res, rows = _feet(params, state)
        return (np.concatenate([res, [state[G_DIM - 1 + jam] - locked]]),
                np.vstack([rows, jam_grad]))

    field = recovery_field(params, reference, jam)
    traj, v = integrate_projected(field, c, 0.0, x0, reference.period, cfg)
    rr, aa = template_traces(params, traj.x)
    return RecoveryResult(trajectory=traj, r=rr, alpha=aa, jam=jam,
                          designed_residual=_designed_residuals(
                              params, reference, traj.t, traj.x, v))


def _pose_refit_rollout(params: CrawlerParams, thetas: np.ndarray,
                        g0: np.ndarray) -> np.ndarray:
    """Least-squares pose of every sample of an (N, 6) block of joint angles.

    With the joints fixed, placing the body-frame feet p1, p2 on the anchors
    l1, l2 is a two-point rigid fit with a closed form (Umeyama, IEEE T-PAMI
    1991): theta0 turns p1 - p2 onto l1 - l2, and the translation matches the
    foot midpoints. theta0 is unwrapped to continue from the heading g0[2].
    """
    thetas = np.asarray(thetas, dtype=float)
    ends = _arms(params, thetas)[0]
    p1, p2 = ends[:, 0], ends[:, 1]
    heading = np.unwrap(np.concatenate(
        [[g0[2]], np.angle((params.l1 - params.l2) * np.conj(p1 - p2))]))[1:]
    z = 0.5 * (params.l1 + params.l2) - np.exp(1j * heading) * 0.5 * (p1 + p2)
    out = np.column_stack([z.real, z.imag, heading, thetas])
    ok = (np.abs(p1 - p2) >= 1e-12) & np.isfinite(out[:, :G_DIM]).all(axis=1)
    if not ok.all():
        raise ValueError(f"pose fit undefined at sample {np.argmin(ok)}: "
                         "coincident feet or a non-finite pose")
    return out


def playback_baseline(params: CrawlerParams, reference: ReferenceGait,
                      jam: int) -> Trajectory:
    """Replay the recorded joint curves with the jammed joint stuck.

    Each pose is the closed-form least-squares fit of the (generally
    infeasible) foot equations; the result is the no-recovery trajectory,
    the zero-amplitude rollout of ``gait_perturbation_provider``.
    """
    return gait_perturbation_provider(params, reference, jam, stride=1)(())


def gait_perturbation_provider(params: CrawlerParams,
                               reference: ReferenceGait, jam: int,
                               stride: int = 4) -> Callable:
    """params -> Trajectory factory for the damage-unaware recovery search.

    Each free joint gets one sine lobe of adjustable amplitude added to its
    recorded curve (zero at t = 0, so the start state is unchanged); the
    jammed joint ignores its command (jam=0: no joint is jammed). Each
    sample's pose is the closed-form rigid fit of the playback baseline.
    """
    jam = _jam_index(jam)
    t = reference.t[::2][::stride]
    base = reference.x[::2, G_DIM:][::stride].copy()
    g0 = reference.x[0, :G_DIM]
    free = [j for j in range(N_JOINTS) if j != jam - 1]
    lobe = np.sin(2.0 * np.pi * t / reference.period)

    def provider(mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if len(mu) > len(free):
            raise ValueError(f"{len(mu)} amplitudes for {len(free)} free "
                             "joints")
        thetas = base.copy()
        for j, amplitude in zip(free, mu):
            thetas[:, j] += amplitude * lobe
        if jam:
            thetas[:, jam - 1] = base[0, jam - 1]
        return Trajectory(t=t.copy(),
                          x=_pose_refit_rollout(params, thetas, g0))

    return provider


def template_traces(params: CrawlerParams, X) -> tuple[np.ndarray, np.ndarray]:
    """Batched (r, alpha) over an (N, 9) block of states."""
    w, r, _ = _template(_kinematics(params,
                                    np.atleast_2d(np.asarray(X, float))))
    return r, np.angle(w)


def foot_residual_series(params: CrawlerParams, X) -> np.ndarray:
    """Per-sample max foot distance from its anchor over (N, 9) states."""
    f1, f2 = limb_endpoints(params, np.atleast_2d(X))
    return np.maximum(np.abs(f1 - params.l1), np.abs(f2 - params.l2))


def angle_difference(a, b) -> np.ndarray:
    """Wrapped difference a - b in (-pi, pi]."""
    return (np.asarray(a) - np.asarray(b) + np.pi) % (2.0 * np.pi) - np.pi


def group_velocity(traj: Trajectory) -> np.ndarray:
    """(N, 3) pose velocity by central differences."""
    return traj.velocities()[:, :G_DIM]
