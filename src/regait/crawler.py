"""Planar two-armed crawler: kinematics, constraint stack, reference gait,
jam damage, closed-form recovery, and playback with a closed-form pose fit.

State layout is x = (x, y, theta0, theta1..theta6): an SE(2) pose followed by
six joint angles, three per arm. Each arm is a chain of unit links hanging off
a hip offset h1/h2 in the body frame; both feet are pinned to ground anchors
l1/l2, giving four real Pfaffian rows (real and imaginary parts of the two
complex foot velocities).

The encoding template is the polar form (r, alpha) of the body-frame midpoint
w of the two feet, one record (``_template``) at one state or a block. The
Designed rows hold the world midpoint z + e^{i theta0} w = z + r e^{i beta},
z = x + iy, beta = theta0 + alpha, in place (rows 1-2: the mean of the foot
rows), drive (r, alpha) along recorded gait rates (rows 3-4: the template's
Jacobian rows) and lock x to theta0 (row 5: ``X_THETA0``).

Jamming a joint adds one physical row (its velocity is zero). Recovery solves
Physical > Designed in closed form. Rows 1, 2 and 5 give the pose rate:
    theta0' = x' = (r sin(beta) alphadot - cos(beta) rdot) / (1 - r sin(beta))
    y' = -(sin(beta) rdot + r cos(beta) alphadot) - r cos(beta) theta0'
Given it, the foot rows impose rows 3-4, and the joint rates are the
minimum-norm solution of the foot rows and the jam row, one arm at a time
(the foot rows are block-diagonal): arm a, with endpoint p_a and tail sums
s_aj, solves sum_j s_aj theta_aj' = u_a = i z' e^{-i theta0} - p_a theta0'.

The reference gait is a closed curve in one fixed chart of the manifold
{feet pinned, x = theta0}, sampled by one block Newton solve, which names
the earliest unconverged time if it fails. The chart's frame N0 is the
orthonormal null basis of those five rows at the start, built from the
start's foot rows (``_gait_basis``): the two pose directions with
minimum-norm joint rates, orthonormalised, and each arm's unit normal n_a,
the cross product of its two foot rows.

The recovery loop runs on Python floats (states are lists; see
``integrate``): its field and projection residuals read the kinematics that
the numpy rows read (``_arms``), and the field reads the recorded rates by
grid index, since numpy calls on a handful of numbers cost more than the
arithmetic. The projection builds its Jacobian, the Physical rows, only for
a Newton step.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constraints import ConstraintBlock, ConstraintStack, Priority, residual
from .integrate import (MAX_NEWTON_ITERS, IntegrationError,
                        integrate_projected, span_steps)
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


def _arms(params: CrawlerParams, joints) -> tuple:
    """(p1, s1, p2, s2): both arm endpoints in the body frame and, as
    3-tuples, their tail sums s_j of the links from joint j outward (d
    endpoint / d angle_j = i * s_j). ``joints`` is one state's six angles as
    Python floats (``cmath.exp``) or a numpy (..., 6) block (``np.exp`` on
    its columns); both sum the same links in the same order."""
    exp = cmath.exp
    if isinstance(joints, np.ndarray):
        exp, joints = np.exp, np.moveaxis(joints, -1, 0)
    out = []
    for h, (a, b, c) in ((params.h1, joints[:3]), (params.h2, joints[3:])):
        ab = a + b
        l1, l2, l3 = exp(1j * a), exp(1j * ab), exp(1j * (ab + c))
        s2 = l3 + l2
        out += [h + ((l1 + l2) + l3), (s2 + l1, s2, l3)]
    return tuple(out)


def _kinematics(params: CrawlerParams, state) -> tuple:
    """(rot, p1, s1, p2, s2): body rotation e^{i theta0}, then ``_arms``, at
    one state given as a list of floats, one numpy state or an (N, 9)
    block."""
    if isinstance(state, np.ndarray):
        return (np.exp(1j * state[..., 2]),) + _arms(params, state[..., 3:])
    return (cmath.exp(1j * state[2]),) + _arms(params, state[3:])


_UNIT = np.array([1.0, 1j])   # d f / d(x, y) of either foot


def _feet(params: CrawlerParams, state) -> tuple[np.ndarray, np.ndarray]:
    """Residual (..., 4) and velocity rows (..., 4, 9) of (Re f1, Im f1,
    Re f2, Im f2) at one state or an (N, 9) block."""
    rot, p1, s1, p2, s2 = _kinematics(params, state)
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
    np.multiply(turn[..., None], np.stack(s1, axis=-1), out=J[..., 0, 3:6])
    np.multiply(turn[..., None], np.stack(s2, axis=-1), out=J[..., 1, 6:9])
    # complex (re, im) pairs -> rows Re f1, Im f1, Re f2, Im f2
    rows = J.view(float).reshape(lead + (2, STATE_DIM, 2)).swapaxes(-1, -2)
    return d.view(float), rows.reshape(lead + (4, STATE_DIM))


def _foot_residual_one(params: CrawlerParams, state: Sequence[float]) -> list:
    """``_feet``'s residual of one state on Python scalars."""
    rot, p1, _, p2, _ = _kinematics(params, state)
    z = complex(state[0], state[1])
    f1 = z + rot * p1 - params.l1
    f2 = z + rot * p2 - params.l2
    return [f1.real, f1.imag, f2.real, f2.imag]


_MIN_RADIUS = 1e-12   # template radius r below which alpha is undefined
_NO_TEMPLATE = "template undefined: limb midpoint at the body origin"


def _template(kin) -> tuple:
    """The encoding template over the kinematics' leading dims: the
    body-frame foot midpoint w, its radius r (the template's r) and the
    (..., 2, 6) joint-angle Jacobian of (r, alpha).

    ``np.hypot`` gives one state and a block the same bits; ``abs`` of a
    complex scalar and ``np.abs`` over an array do not always agree."""
    _, p1, s1, p2, s2 = kin
    w = 0.5 * (p1 + p2)
    r = np.hypot(w.real, w.imag)
    if np.count_nonzero(r < _MIN_RADIUS):   # cheaper than .any() on one state
        raise ValueError(_NO_TEMPLATE)
    prod = np.conj(w)[..., None] * (0.5j * np.stack(s1 + s2, axis=-1))
    jac = np.empty(prod.shape[:-1] + (2, N_JOINTS))
    jac[..., 0, :] = prod.real / r[..., None]
    jac[..., 1, :] = prod.imag / (r * r)[..., None]
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


# designed row 5 (x locked to theta0) pulled back to the state: constant
X_THETA0 = np.array([1.0, 0.0, -1.0] + [0.0] * N_JOINTS)


def design_constraints(params: CrawlerParams, state,
                       rates: Sequence = (0.0, 0.0),
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The five designed rows (..., 5, 9) and their values (..., 5) at one
    state or an (N, 9) block, in priority order: (1-2) Re and Im of d/dt of
    the world foot midpoint z + e^{i theta0} w = 0, the mean of the foot
    rows; (3-4) the template's alpha and r rows = alphadot, rdot; (5)
    ``X_THETA0`` = 0. The greedy scan keeps rows in this order, so it decides
    which goal yields: rows 1-2 are dropped whenever the feet are Physical,
    and row 5 yields first when jams leave too few joints for the template.
    ``rates`` is (rdot, alphadot), each a float or one value per state, as
    ``ReferenceGait.rates_at`` returns them for a time or an array of times.
    """
    state = np.asarray(state, dtype=float)
    rot, _, s1, _, s2 = kin = _kinematics(params, state)
    w, _, jac = _template(kin)
    # d (z + rot w) / d (theta0, joints): i rot w and i rot s_j / 2
    turn = 1j * rot[..., None] * np.concatenate(
        [w[..., None], 0.5 * np.stack(s1 + s2, axis=-1)], axis=-1)
    omega = np.zeros(state.shape[:-1] + (5, STATE_DIM))
    omega[..., :2, :2] = np.eye(2)
    omega[..., 0, 2:], omega[..., 1, 2:] = turn.real, turn.imag
    omega[..., 2:4, G_DIM:] = jac[..., ::-1, :]    # alpha row, then r row
    omega[..., 4, :] = X_THETA0
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
                cres = _feet(params,
                             np.concatenate([np.zeros(G_DIM), cand]))[0]
                if np.linalg.norm(cres) < base:
                    theta = cand
                    break
                scale *= 0.5
            else:
                break  # no descent step found; try the next guess
    raise ValueError("inverse kinematics failed for every initial guess")


# The gait's chart coordinates along N0, ``_gait_basis`` of the foot rows at
# x0, are the integrals c(t) of the weights A_i sin(2 pi t / period + phi_i),
# which return to zero after one period. Each sample is x0 + N0 c + G0^T lam,
# with G0 the same foot rows and the x-theta0 row, and lam from block Newton
# on their residuals; its velocity is the curve's exact rate on the manifold.
GAIT_AMPLITUDES = np.array([0.5655192174903454, 0.3241975707256865,
                            0.4958796693361258, 0.3415952331689739])
GAIT_PHASES = np.array([0.05786238329953794, -0.9299630175767266,
                        1.5725865130949745, 0.026882383523351615])
CHART_TOL = 1e-14   # gait residual (max norm) a chart point falls below
# foot and jam residual (max norm) below which a recovery projection stops
PROJECTION_TOL = 1e-11


def _gait_basis(feet: np.ndarray) -> np.ndarray:
    """Orthonormal basis (4, 9) of the null space of one state's four foot
    rows ``feet`` (4, 9, from ``_feet``) and the x-theta0 row.

    Rows 1-2 are Gram-Schmidt of the pose directions (theta0' = x' = 1,
    y' = 0) and (y' = 1), each with the minimum-norm joint rates of the 4x6
    joint block; rows 3-4 are each arm's unit normal n, the cross product
    of its two foot rows on its joint block (``recovery_field``'s n). An arm
    whose relative Gram determinant |n| / (sum of its rows' squares) is
    <= 1e-10 (its tails parallel) raises ``IntegrationError``.
    """
    arms = np.stack([feet[:2, 3:6], feet[2:, 6:]])   # each arm's joint block
    n = np.cross(arms[:, 0], arms[:, 1])
    nn = (n * n).sum(axis=1)
    if not (nn > (1e-10 * (arms * arms).sum(axis=(1, 2))) ** 2).all():
        raise IntegrationError("gait constraint rows lost rank")
    basis = np.zeros((4, STATE_DIM))
    basis[2, 3:6], basis[3, 6:] = n / np.sqrt(nn)[:, None]
    basis[:2, :G_DIM] = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    basis[:2, G_DIM:] = -basis[:2] @ feet.T @ np.linalg.pinv(feet[:, G_DIM:]).T
    basis[0] /= np.linalg.norm(basis[0])
    basis[1] -= (basis[1] @ basis[0]) * basis[0]
    basis[1] /= np.linalg.norm(basis[1])
    return basis


_GRID_TOL = 1e-9   # how far a time may sit from its recorded grid point
_OFF_GRID = "time {} is not on the recorded gait grid"


@dataclass(frozen=True)
class ReferenceGait:
    """Recorded gait on a half-resolution grid.

    ``t``/``x``/``v`` are sampled at dt/2 so that Runge-Kutta stage times of
    any dt-grid integration over the same span land exactly on stored samples;
    ``rates_at`` then never interpolates. ``v`` holds the chart curve's exact
    velocity at each stored state; (r, alpha) and their rates are evaluated
    from it.
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
        # written so that a NaN time counts as off the grid; an infinite one
        # makes t - k * half NaN, which is not an error here
        with np.errstate(invalid="ignore"):
            off = ((k < 0) | (k >= len(self.t))
                   | ~(abs(t - k * half) <= _GRID_TOL))
        if np.count_nonzero(off):
            raise ValueError(_OFF_GRID.format(np.asarray(t)[off][0]))
        return k.astype(np.intp)

    def _grid_index(self, t: float) -> int:
        """``_index`` of one time on Python scalars, as an int."""
        half = 0.5 * self.dt
        q = t / half                  # inf for a large enough finite t
        k = round(q) if math.isfinite(q) else -1
        if not (0 <= k < len(self.t) and abs(t - k * half) <= _GRID_TOL):
            raise ValueError(_OFF_GRID.format(t))
        return k

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
    """Sample the gait's chart curve from ``initial_configuration`` on a dt/2
    grid in one block Newton solve (see GAIT_AMPLITUDES); a solve that fails
    raises ``IntegrationError`` naming the earliest unconverged time."""
    x0 = initial_configuration(params)
    feet0 = _feet(params, x0)[1]
    N0 = _gait_basis(feet0).T
    G0t = np.vstack([feet0, X_THETA0]).T
    t = np.arange(span_steps(0.0, period, 0.5 * dt) + 1) * (0.5 * dt)
    phase = 2.0 * np.pi * t[:, None] / period + GAIT_PHASES
    x = x0 + (GAIT_AMPLITUDES * period / (2.0 * np.pi)
              * (np.cos(GAIT_PHASES) - np.cos(phase))) @ N0.T
    cdot = (GAIT_AMPLITUDES * np.sin(phase)) @ N0.T
    G = np.empty((len(t), 5, STATE_DIM))   # each sample's rows, as in G0
    G[:, 4] = X_THETA0
    for _ in range(MAX_NEWTON_ITERS):
        feet, G[:, :4] = _feet(params, x)
        res = np.column_stack([feet, x @ X_THETA0])
        done = (abs(res) < CHART_TOL).all(axis=1)   # written so NaN fails
        if done.all():
            break
        x -= np.linalg.solve(G @ G0t, res[..., None])[..., 0] @ G0t.T
    else:
        raise IntegrationError(f"gait chart point at t={t[done.argmin()]} "
                               f"did not converge in {MAX_NEWTON_ITERS} steps")
    # cdot moved along G0^T onto the manifold's tangent space
    v = cdot - np.linalg.solve(G @ G0t, G @ cdot[..., None])[..., 0] @ G0t.T
    w, r, jac = _template(_kinematics(params, x))
    rates = (jac @ v[:, G_DIM:, None])[..., 0]
    return ReferenceGait(params=params, period=period, dt=dt, t=t, x=x, v=v,
                         r=r, alpha=np.angle(w), rdot=rates[:, 0],
                         alphadot=rates[:, 1])


def _check_params(params: CrawlerParams, reference: ReferenceGait) -> None:
    """Entry points that take both need the gait's own parameters."""
    if params != reference.params:
        raise ValueError(f"params {params} differ from the reference gait's "
                         f"{reference.params}")


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
    _check_params(params, reference)

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
    """Joint-rate law that tracks the recorded template under the jam, as
    derived in the module docstring. Arm a's rows Re s, Im s have the normal
    n_j = Im(conj(s_j+1) s_j+2), with |n|^2 their Gram determinant, and the
    minimum-norm solution (Re u Im s - Im u Re s) x n / |n|^2; zeroing the
    jammed tail leaves Cramer's rule on the two free joints. A relative
    determinant <= 1e-10 raises ``IntegrationError``: |1 - r sin(beta)| /
    (1 + |r sin(beta)|) for the pose block, |n| / sum_j |s_j|^2 for an arm.
    A time off the recorded grid raises ``ValueError`` naming it.
    """
    _check_params(params, reference)
    jam_arm, jam_joint = divmod(_jam_index(jam, none_allowed=False) - 1, 3)
    rates = list(zip(reference.rdot.tolist(), reference.alphadot.tolist()))

    def field(t, state):
        rdot, adot = rates[reference._grid_index(t)]
        rot, p1, s1, p2, s2 = _kinematics(params, state)
        w = 0.5 * (p1 + p2)
        r = math.hypot(w.real, w.imag)
        if r < _MIN_RADIUS:
            raise ValueError(_NO_TEMPLATE)
        m = rot * w                                 # m = r e^{i beta}
        if not abs(1.0 - m.imag) > 1e-10 * (1.0 + abs(m.imag)):
            raise IntegrationError(f"template pose block lost rank at t={t}")
        th0 = (m.imag * adot - m.real * rdot / r) / (1.0 - m.imag)
        yd = -(m.imag * rdot / r + m.real * adot) - m.real * th0
        zi = 1j * complex(th0, yd) / rot            # i z' e^{-i theta0}
        out = [th0, yd, th0]
        for arm, (p, tails) in enumerate(((p1, s1), (p2, s2))):
            if arm == jam_arm:
                tails = tails[:jam_joint] + (0j,) + tails[jam_joint + 1:]
            a, b, c = tails
            u = (zi - p * th0).conjugate()
            n0, n1, n2 = ((b.conjugate() * c).imag, (c.conjugate() * a).imag,
                          (a.conjugate() * b).imag)
            det = n0 * n0 + n1 * n1 + n2 * n2
            if not det > (1e-10 * (abs(a) ** 2 + abs(b) ** 2
                                   + abs(c) ** 2)) ** 2:
                raise IntegrationError(f"arm {arm + 1} lost rank at t={t}")
            va, vb, vc = (u * a).imag, (u * b).imag, (u * c).imag
            out += [(vb * n2 - vc * n1) / det, (vc * n0 - va * n2) / det,
                    (va * n1 - vb * n0) / det]
        return out

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
    x0 = reference.initial_state
    col = G_DIM - 1 + jam
    locked = float(x0[col])
    rows = physical_block(params, jam).rows

    # the projection residual: both feet off their anchors, then the
    # jammed joint's drift; its Jacobian, the Physical rows, ignores time
    def c(state):
        return _foot_residual_one(params, state) + [state[col] - locked]

    def dc(state):
        return rows(None, np.asarray(state))[0]

    traj, v = integrate_projected(recovery_field(params, reference, jam),
                                  (c, dc), 0.0, x0, reference.period,
                                  reference.dt, PROJECTION_TOL)
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
    p1, _, p2, _ = _arms(params, thetas)
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
    _check_params(params, reference)
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
    d = _feet(params, np.atleast_2d(np.asarray(X, dtype=float)))[0]
    return np.abs(d.view(complex)).max(axis=-1)


def angle_difference(a, b) -> np.ndarray:
    """Wrapped difference a - b in (-pi, pi]."""
    return (np.asarray(a) - np.asarray(b) + np.pi) % (2.0 * np.pi) - np.pi


def group_velocity(traj: Trajectory) -> np.ndarray:
    """(N, 3) pose velocity by central differences."""
    return traj.velocities()[:, :G_DIM]
