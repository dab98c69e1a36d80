"""Clock-torqued SLIP hopper: hybrid simulation, energy readouts, the
data-driven recovery cost, and parameter recovery with a frozen hip gain.

A point-mass hip bounces on massless springy legs driven by a Hill-type force
law F = K(L - zeta)(1 + eta*zetadot) - mu*zetadot and a hip torque that PD
tracks a Buehler clock, scaled by the gain t_s. Two legs run the clock half a
cycle apart. A leg touches down where its commanded foot height
y - L*cos(psi_c) falls from > 0 to <= 0 while the leg is armed: its clock
descends, psi_c <= touchdown_angle + 1e-12 and ydot < 0, all judged at that
crossing. A foot that is below the ground when its leg becomes armed must
rise above it first. Flight is ballistic, so every flight guard is a
closed-form function of time; crossings are located between grid points
under a curvature bound, and a touchdown that grazes the ground inside one
step still fires.

Conventions: during stance the COM sits at foot + zeta*(-sin psi, cos psi),
psi measured from the downward vertical at the foot (positive = foot ahead of
the hip; psi decreases through stance). Gravity enters the stance Lagrangian
as the potential g*zeta*cos(psi).

Damage is modeled as a drop in t_s (weaker hip drive); recovery searches the
remaining parameters (K, L, mu, eta, clock frequency) for a hopping pattern
whose energy-vs-phase profile matches the nominal one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .optimize import CostTrace, NMConfig, nelder_mead
from .signals import (FourierSeries, PhaseEstimator, estimate_phases,
                      eval_fourier, fit_fourier)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BuehlerClock:
    """Piecewise-linear leg-angle reference depending only on time.

    The commanded angle descends from +sweep_angle to -sweep_angle over the
    duty fraction of the cycle (the stance sweep) and recirculates back up
    over the remainder. Angles are commanded about the downward vertical.
    """

    duty_factor: float = 0.5
    sweep_angle: float = 0.4
    touchdown_angle: float = 0.3
    frequency: float = 0.8

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not 0.0 < self.duty_factor < 1.0:
            raise ValueError("duty_factor must be in (0, 1)")
        for name in ("sweep_angle", "frequency"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)}")
        if not abs(self.touchdown_angle) <= self.sweep_angle:
            raise ValueError("touchdown_angle must lie inside the sweep")

    def signal(self, chi0: float, leg: int) -> Callable:
        """One leg's command at a fixed clock phase, as a function of time:
        t -> (commanded angle, its time derivative, descending flag), with
        the clock constants evaluated once."""
        duty, sweep, f = self.duty_factor, self.sweep_angle, self.frequency
        omega, offset = TWO_PI * f, (math.pi if leg else 0.0)
        down_rate = -2.0 * sweep / duty * f
        up_rate = 2.0 * sweep / (1.0 - duty) * f

        def at(t):
            s = ((chi0 + omega * t + offset) / TWO_PI) % 1.0
            if s < duty:
                return sweep * (1.0 - 2.0 * s / duty), down_rate, True
            q = (s - duty) / (1.0 - duty)
            return -sweep + 2.0 * sweep * q, up_rate, False

        return at


@dataclass(frozen=True)
class CTSlipParams:
    """Plant parameters. eta, mu, L, t_s defaults follow the hopper's
    published table; K is NOT a published value - it is a calibration of this
    implementation, chosen so the nominal parameter set hops stably (see the
    package docs). Gravity and the PD gains are likewise documented defaults.
    """

    eta: float = -0.03
    mu: float = 0.3
    L: float = 80.0
    t_s: float = 0.1
    K: float = 16.0
    gravity: float = 9.81
    kp: float = 3e5
    kd: float = 1e4
    clock: BuehlerClock = field(default_factory=BuehlerClock)

    def __post_init__(self):
        # written so that NaN fails every comparison
        for name in ("L", "K"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)}")
        for name in ("eta", "mu", "t_s", "gravity", "kp", "kd"):
            if not abs(getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)}")


class Mode(Enum):
    FLIGHT = 0
    STANCE_LEFT = 1
    STANCE_RIGHT = 2
    CRASHED = 3


@dataclass(frozen=True)
class HybridState:
    """One hybrid configuration: COM state plus mode bookkeeping."""

    mode: Mode
    com: tuple[float, float, float, float]  # x, y, xdot, ydot
    foot: tuple[float, float] | None = None
    clock_phase: float = 0.0


def apex_state(y: float, xdot: float,
               clock_phase: float = 0.0) -> HybridState:
    return HybridState(mode=Mode.FLIGHT, com=(0.0, y, xdot, 0.0),
                       clock_phase=clock_phase)


class CrashSignal(RuntimeError):
    """Raised by the stance field when the leg has fully collapsed."""


def _stance_law(params: CTSlipParams) -> Callable:
    """Radial/angular accelerations of the stance Lagrangian plus the Hill
    force and the clock-tracking hip torque, at the clock's commanded angle
    psi_c and rate psi_c_dot, which the caller evaluates (once per distinct
    stage time of a step)."""
    K, L, eta, mu = params.K, params.L, params.eta, params.mu
    t_s, kp, kd, g = params.t_s, params.kp, params.kd, params.gravity
    cos, sin = math.cos, math.sin

    def accel(zeta, psi, zeta_dot, psi_dot, psi_c, psi_c_dot):
        if zeta <= 0.0:
            raise CrashSignal(f"leg collapsed (zeta={zeta})")
        tau = t_s * (kp * (psi_c - psi) + kd * (psi_c_dot - psi_dot))
        zeta_dd = (zeta * psi_dot * psi_dot
                   + (K * (L - zeta) * (1.0 + eta * zeta_dot) - mu * zeta_dot)
                   - g * cos(psi))
        psi_dd = (tau + g * zeta * sin(psi)
                  - 2.0 * zeta * zeta_dot * psi_dot) / (zeta * zeta)
        return zeta_dd, psi_dd

    return accel


SIM_DT = 2e-3              # default grid step of every hopper run
BISECT_TOL = 1e-10         # width at which event bisection stops
MAX_EVENTS_PER_STEP = 8    # events one grid step may hold before it fails


@dataclass(frozen=True)
class Event:
    kind: str  # "touchdown" | "liftoff" | "crash"
    time: float
    leg: int | None = None


@dataclass
class SimResult:
    """Uniformly sampled hybrid run, truncated at the crash step if any.

    ``zeta`` equals the rest length L during flight so the elastic energy
    vanishes there without a mode test; ``psi`` is NaN in flight.
    """

    t: np.ndarray
    com: np.ndarray    # (N, 4): x, y, xdot, ydot
    zeta: np.ndarray
    psi: np.ndarray
    mode: np.ndarray   # Mode values as ints
    events: list[Event]
    crashed: bool

    @property
    def strides(self) -> int:
        return sum(1 for e in self.events if e.kind == "liftoff")


def _leg_state(com: Sequence[float], foot: tuple) -> tuple:
    """Stance state (zeta, psi, zeta_dot, psi_dot) of a COM state."""
    x, y, xd, yd = com
    dx, dy = x - foot[0], y - foot[1]
    zeta = math.hypot(dx, dy)
    psi = math.atan2(-dx, dy)
    sp, cp = math.sin(psi), math.cos(psi)
    return zeta, psi, -xd * sp + yd * cp, (-xd * cp - yd * sp) / zeta


def _touchdown_map(params: CTSlipParams, t: float, u: Sequence[float],
                   chi0: float, leg: int) -> tuple[tuple, tuple]:
    psi_c, _, _ = params.clock.signal(chi0, leg)(t)
    foot = (u[0] + params.L * math.sin(psi_c), 0.0)
    return _leg_state(u, foot), foot


def _liftoff_map(u: Sequence[float], foot: tuple) -> tuple:
    zeta, psi, zd, pd = u
    sp, cp = math.sin(psi), math.cos(psi)
    return (foot[0] - zeta * sp, zeta * cp, -zd * sp - zeta * pd * cp,
            zd * cp - zeta * pd * sp)


def _floor_time(y0: float, yd0: float, g: float) -> float:
    """Time at which the height y0 + yd0*s - g*s*s/2 first falls from > 0
    to <= 0, or inf: its root (yd0 + sqrt(disc))/g, where the slope is
    -sqrt(disc), if the height is > 0 somewhere before it."""
    disc = yd0 * yd0 + 2.0 * g * y0
    if g == 0.0 or disc < 0.0:
        return -y0 / yd0 if g == 0.0 and y0 > 0.0 > yd0 else math.inf
    s = (yd0 + math.sqrt(disc)) / g
    return s if s > 0.0 and (y0 > 0.0 or disc > 0.0) else math.inf


def _first_fall(guard: Callable, a: float, b: float, fa: float, fb: float,
                bound: float) -> float | None:
    """First time in (a, b] at which ``guard`` falls from > 0 to <= 0, or
    None, given |guard''| <= bound on [a, b].

    Between its end values such a function stays within bound*(b - a)**2/8
    of the chord, so an interval whose end values clear zero by that much
    on one side keeps one sign; any other is halved, left half first, down
    to BISECT_TOL.
    """
    slack = 0.125 * bound * (b - a) * (b - a)
    if min(fa, fb) - slack > 0.0 or max(fa, fb) + slack <= 0.0:
        return None
    if b - a <= BISECT_TOL:
        return b if fa > 0.0 >= fb else None
    m = 0.5 * (a + b)
    fm = guard(m)
    hit = _first_fall(guard, a, m, fa, fm, bound)
    return hit if hit is not None else _first_fall(guard, m, b, fm, fb, bound)


def _flight_advance(params: CTSlipParams, chi0: float, dt: float,
                    nsteps: int) -> Callable:
    """advance(k, t0, u) from COM state u at time t0 >= k*dt: the sample
    rows at grid points k+1 ... before the first event (up to nsteps if
    none) and the event, (time, kind, leg, COM state) or None.

    The floor crash is a root of the height's quadratic. Each clock cycle
    arms a leg on one interval of its descending piece, where psi_c is
    linear in t and |guard''| <= |gravity| + L*psi_c_dot**2. Each interval
    is sampled at spacing <= dt, and ``_first_fall`` searches only the
    pieces in which that bound allows a sign change.
    """
    clock, L, g = params.clock, params.L, params.gravity
    sweep, duty, f = clock.sweep_angle, clock.duty_factor, clock.frequency
    down = -2.0 * sweep / duty * f
    bound = abs(g) + L * down * down
    # the descending piece's fraction where psi_c <= touchdown angle + 1e-12
    s_arm = max(0.0, 0.5 * duty * (1.0 - (clock.touchdown_angle + 1e-12)
                                   / sweep))
    cycle0 = (chi0 / TWO_PI, chi0 / TWO_PI + 0.5)   # legs' cycles at t = 0
    t_end = nsteps * dt
    tail = (L, math.nan, Mode.FLIGHT.value)

    def touchdown(t0, y0, yd0, t_lo, t_hi):
        """(time, leg) of the first touchdown in [t_lo, t_hi] or (inf, _)"""
        def first(a, b, top):
            # top: the time at which the piece starts, at psi_c = sweep
            def guard(t, cos=math.cos):
                s = t - t0
                return (y0 + s * (yd0 - 0.5 * g * s)
                        - L * cos(sweep + down * (t - top)))

            n = math.ceil((b - a) / dt)
            ts = np.linspace(a, b, n + 1)
            gs = guard(ts, np.cos)
            lo, hi = np.minimum(gs[:-1], gs[1:]), np.maximum(gs[:-1], gs[1:])
            slack = 0.125 * bound * ((b - a) / n) ** 2
            ts, gs = ts.tolist(), gs.tolist()
            for i in np.flatnonzero((lo - slack <= 0.0)
                                    & (hi + slack > 0.0)).tolist():
                hit = _first_fall(guard, ts[i], ts[i + 1], gs[i], gs[i + 1],
                                  bound)
                if hit is not None:
                    return hit
            return math.inf

        best = (math.inf, None)
        for leg, c in enumerate(cycle0):   # each leg's windows in order
            for n in range(math.floor(c + f * t_lo),
                           math.floor(c + f * t_hi) + 1):
                a = max(t_lo, (n + s_arm - c) / f)
                b = min(t_hi, best[0], (n + duty - c) / f)
                if a < b and (hit := first(a, b, (n - c) / f)) < best[0]:
                    best = (hit, leg)
                    break
        return best

    def advance(k, t0, u):
        x0, y0, xd, yd0 = u
        t_ev = t0 + _floor_time(y0, yd0, g)
        # armed needs ydot < 0 as well
        t_lo, t_hi = t0, min(t_end, t_ev)
        if g > 0.0:
            t_lo = max(t_lo, t0 + yd0 / g)
        elif g < 0.0:
            t_hi = min(t_hi, t0 + yd0 / g)
        elif yd0 >= 0.0:
            t_hi = t_lo
        t_td, leg = touchdown(t0, y0, yd0, t_lo, t_hi)
        if t_ev - t_td > BISECT_TOL:   # else the crash wins ties
            t_ev, kind = t_td, "touchdown"
        else:
            kind, leg = "crash", None

        def at(s):   # the COM state s after t0
            return x0 + xd * s, y0 + s * (yd0 - 0.5 * g * s), xd, yd0 - g * s

        last = nsteps if t_ev > t_end else max(k, math.ceil(t_ev / dt) - 1)
        rows = np.empty((last - k, 7))
        rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = at(
            np.arange(k + 1, last + 1) * dt - t0)
        rows[:, 4:] = tail
        return rows, (None if t_ev > t_end
                      else (t_ev, kind, leg, at(t_ev - t0)))

    return advance


def _stance_advance(params: CTSlipParams, chi0: float, dt: float,
                    nsteps: int, leg: int) -> Callable:
    """advance(k, t0, u, foot) from leg state u at time t0 >= k*dt, as
    ``_flight_advance``'s, by one RK4 step per grid step (the first from
    t0). The guards zeta*cos(psi), zeta - 1e-3*L (crashes) and L - zeta
    (liftoff) are tested at step ends; one that falls from > 0 to <= 0 is
    bisected on RK4 substeps from the step's start. A stage that raises
    ``CrashSignal`` crashes at the step's start.
    """
    L, floor = params.L, 1e-3 * params.L
    accel = _stance_law(params)
    clock = params.clock.signal(chi0, leg)
    value = (Mode.STANCE_LEFT, Mode.STANCE_RIGHT)[leg].value
    cos, sin = math.cos, math.sin

    def guards(u):
        return u[0] * cos(u[1]), u[0] - floor, L - u[0]

    def step(t, u, h):
        # stages 2 and 3 share the time t + h/2 and its clock values
        z, p, zd, pd = u
        hh = 0.5 * h
        c, r, _ = clock(t)
        a1, b1 = accel(z, p, zd, pd, c, r)
        zd2, pd2 = zd + hh * a1, pd + hh * b1
        c, r, _ = clock(t + hh)
        a2, b2 = accel(z + hh * zd, p + hh * pd, zd2, pd2, c, r)
        zd3, pd3 = zd + hh * a2, pd + hh * b2
        a3, b3 = accel(z + hh * zd2, p + hh * pd2, zd3, pd3, c, r)
        zd4, pd4 = zd + h * a3, pd + h * b3
        c, r, _ = clock(t + h)
        a4, b4 = accel(z + h * zd3, p + h * pd3, zd4, pd4, c, r)
        s = h / 6.0
        return (z + s * (zd + 2.0 * zd2 + 2.0 * zd3 + zd4),
                p + s * (pd + 2.0 * pd2 + 2.0 * pd3 + pd4),
                zd + s * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                pd + s * (b1 + 2.0 * b2 + 2.0 * b3 + b4))

    def locate(ta, ua, tb, ub, va, vb):
        # the first time at which a guard that crossed is <= 0; a crash
        # there wins a tie with the liftoff
        crossed = [i for i in (0, 1, 2) if va[i] > 0.0 >= vb[i]]
        lo, hi = ta, tb
        while hi - lo > BISECT_TOL:
            mid = 0.5 * (lo + hi)
            um = step(ta, ua, mid - ta)
            vm = guards(um)
            if all(vm[i] > 0.0 for i in crossed):
                lo = mid
            else:
                hi, ub, vb = mid, um, vm
        lift = all(i == 2 or vb[i] > 0.0 for i in crossed)
        return hi, "liftoff" if lift else "crash", None, ub

    def advance(k, t, u, foot):
        x0, rows, hit = foot[0], [], None
        va0, va1, va2 = guards(u)
        try:
            for j in range(k + 1, nsteps + 1):
                tb = j * dt
                u_end = step(t, u, tb - t)
                z, p, zd, pd = u_end
                # cos(psi) gives both the guard z*cos(psi) and the COM y
                sp, cp = sin(p), cos(p)
                y, vb1, vb2 = z * cp, z - floor, L - z
                if va0 > 0.0 >= y or va1 > 0.0 >= vb1 or va2 > 0.0 >= vb2:
                    hit = locate(t, u, tb, u_end, (va0, va1, va2),
                                 (y, vb1, vb2))
                    break
                rows.append((x0 - z * sp, y, -zd * sp - z * pd * cp,
                             zd * cp - z * pd * sp, z, p, value))
                t, u, va0, va1, va2 = tb, u_end, y, vb1, vb2
        except CrashSignal:
            hit = (t, "crash", None, u)
        return np.fromiter(chain.from_iterable(rows), float,
                           7 * len(rows)).reshape(-1, 7), hit

    return advance


def simulate_hybrid(params: CTSlipParams, ic: HybridState, T: float,
                    dt: float = SIM_DT) -> SimResult:
    """Integrate the hybrid system on the fixed grid t_k = k*dt.

    One loop alternates a flight advance (closed form) and a stance advance
    (RK4). Each runs from its mode's start, a grid point or an event time,
    to the mode's first event and returns the grid samples before it; the
    transition map is applied there, and the next mode's advance takes the
    rest of the step. A crash wins a tie with another event. The run stops
    at the first crash and fails if more than MAX_EVENTS_PER_STEP events
    fall in one grid step.

    A leg touches down where its guard y - L*cos(psi_c) falls from > 0 to
    <= 0 at a time when the leg is armed: its clock descends, psi_c <=
    touchdown_angle + 1e-12 and ydot < 0, all judged at that crossing. A
    foot that is below the ground when its leg becomes armed must rise
    above it first.
    """
    # written so that NaN fails the comparison
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not 0.0 <= T < math.inf:
        raise ValueError(f"span T={T} is negative or not finite")
    nsteps = int(round(T / dt))
    if abs(nsteps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError("span must be an integer number of steps")
    chi0 = ic.clock_phase
    if ic.mode is Mode.FLIGHT:
        u, foot, leg = tuple(ic.com), None, None
    elif ic.mode in (Mode.STANCE_LEFT, Mode.STANCE_RIGHT):
        if ic.foot is None:
            raise ValueError("stance initial condition requires a foot anchor")
        foot = (float(ic.foot[0]), float(ic.foot[1]))
        u = _leg_state(ic.com, foot)
        leg = (Mode.STANCE_LEFT, Mode.STANCE_RIGHT).index(ic.mode)
        if u[0] > params.L * (1.0 + 1e-9):
            raise ValueError("stance initial condition: leg longer than L")
    else:
        raise ValueError("initial condition must be flight or stance")

    flight = _flight_advance(params, chi0, dt, nsteps)
    stance = [_stance_advance(params, chi0, dt, nsteps, i) for i in (0, 1)]
    blocks, events, crashed = [], [], False
    # the last sample (none before grid point 0), the mode's start and the
    # events since that sample
    k, t, in_step = -1, 0.0, 0
    while True:
        rows, hit = (flight(k, t, u) if foot is None
                     else stance[leg](k, t, u, foot))
        blocks.append(rows)
        if hit is None:
            break
        in_step = 1 if len(rows) else in_step + 1
        k += len(rows)
        t, kind, ev_leg, u = hit
        events.append(Event(kind=kind, time=t, leg=ev_leg))
        if in_step > MAX_EVENTS_PER_STEP:
            raise RuntimeError(
                f"event location failed: more than {MAX_EVENTS_PER_STEP} "
                f"events inside [{k * dt}, {(k + 1) * dt}]")
        if kind == "crash":
            crashed = True
            break
        if kind == "touchdown":
            u, foot = _touchdown_map(params, t, u, chi0, ev_leg)
            leg = ev_leg
        else:  # liftoff
            u, foot = _liftoff_map(u, foot), None

    arr = np.concatenate(blocks)
    return SimResult(t=np.arange(len(arr)) * dt,
                     com=arr[:, :4], zeta=arr[:, 4], psi=arr[:, 5],
                     mode=arr[:, 6].astype(int), events=events,
                     crashed=crashed)


def energy_outputs(params: CTSlipParams, result: SimResult,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Elastic leg energy and total COM energy at every sample."""
    E = 0.5 * params.K * (params.L - result.zeta) ** 2
    E_T = (0.5 * (result.com[:, 2] ** 2 + result.com[:, 3] ** 2)
           + params.gravity * result.com[:, 1])
    return E, E_T


def phase_features(result: SimResult) -> np.ndarray:
    """(y, ydot) rows: the vertical-hop phase plane, which winds once per hop
    and is insensitive to the forward-speed transient."""
    return result.com[:, [1, 3]].copy()


ALPHA = 1.0         # recovery-cost weight of the phase-rate variance
BETA = 0.1          # recovery-cost weight of the inverse mean phase rate
ENERGY_ORDER = 8    # Fourier order of the energy-vs-phase model


@dataclass(frozen=True)
class NominalReference:
    """Frozen nominal-gait data the recovery cost compares against."""

    params: CTSlipParams
    phase: PhaseEstimator
    e_model: FourierSeries    # normalized elastic energy vs phase
    self_cost: float          # nominal parameters scored against themselves
    crash_penalty: float      # per-crashed-member base penalty
    T: float                  # length of every scored run
    dt: float                 # grid step of every scored run


def _member_cost(params, reference, res):
    """Cost of one member's run; None signals a crash/degenerate run."""
    if res.crashed or res.strides < 2 or len(res.t) < 32:
        return None
    E, E_T = energy_outputs(params, res)
    mean_et = float(E_T.mean())
    if mean_et <= 0.0:
        return None
    e_hat = E / mean_et
    wrapped = estimate_phases(reference.phase, phase_features(res))
    mismatch = e_hat - eval_fourier(reference.e_model, wrapped)
    dt = float(res.t[1] - res.t[0])
    rate = np.diff(np.unwrap(wrapped)) / dt
    mean_rate = float(rate.mean())
    if abs(mean_rate) < 1e-9:
        return None
    term1 = float(np.mean((np.diff(mismatch) / dt) ** 2))
    term2 = ALPHA * float(rate.var())
    term3 = BETA / abs(mean_rate)
    return term1 + term2 + term3


def recovery_cost(params: CTSlipParams, ensemble: Sequence[HybridState],
                  reference: NominalReference) -> float:
    """Mean member cost; a crashed member contributes the base penalty times
    the ensemble size (so any crash dominates all smooth-mismatch terms)."""
    n = len(ensemble)
    total = 0.0
    for ic in ensemble:
        c = _member_cost(params, reference, simulate_hybrid(
            params, ic, reference.T, reference.dt))
        total += reference.crash_penalty * n if c is None else c
    return total / n


# Apex start that settles into steady alternating hopping for the default
# plant: 2 length units of clearance above the touchdown height, forward
# speed near the clock-implied body speed, clock phase so leg 1 catches the
# first fall. Calibrated together with the default gains.
APEX_MARGIN = 2.0
APEX_SPEED = 22.0
APEX_CLOCK_FRACTION = 0.55
APEX_MARGIN_SPREAD = 0.20  # relative spread of the ensemble's apex clearance
APEX_SPEED_SPREAD = 0.05   # relative spread of the ensemble's forward speed


def nominal_ic(params: CTSlipParams) -> HybridState:
    """Canonical apex start above the touchdown height."""
    y0 = params.L * math.cos(params.clock.touchdown_angle) + APEX_MARGIN
    return apex_state(y=y0, xdot=APEX_SPEED,
                      clock_phase=TWO_PI * APEX_CLOCK_FRACTION)


def make_ensemble(params: CTSlipParams, n: int = 10,
                  seed: int = 0) -> list[HybridState]:
    """Fixed randomized apex ensemble around the canonical start.

    The apex clearance above touchdown height is perturbed relatively (a
    relative perturbation of absolute height would swamp the few units of
    hop clearance) and the forward speed mildly.
    """
    td_y = params.L * math.cos(params.clock.touchdown_angle)
    base = nominal_ic(params)
    clearance = base.com[1] - td_y
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        fm = 1.0 + APEX_MARGIN_SPREAD * rng.uniform(-1.0, 1.0)
        fx = 1.0 + APEX_SPEED_SPREAD * rng.uniform(-1.0, 1.0)
        out.append(apex_state(y=td_y + clearance * fm, xdot=base.com[2] * fx,
                              clock_phase=base.clock_phase))
    return out


def build_reference(params: CTSlipParams, ensemble: Sequence[HybridState],
                    T: float = 12.0, dt: float = SIM_DT,
                    ) -> NominalReference:
    """Train the phase estimator and energy model on the nominal plant.

    Uses the first ensemble member's run as training data, then scores every
    member (that run included) against the fitted model to set the self-cost
    and crash penalty.
    """
    res = simulate_hybrid(params, ensemble[0], T, dt)
    if res.crashed:
        raise ValueError("nominal parameters crashed; cannot build reference")
    # skip the settling transient before fitting
    skip = max(1, len(res.t) // 8)
    feats = phase_features(res)[skip:]
    est = PhaseEstimator.fit(feats)
    E, E_T = energy_outputs(params, res)
    e_hat = (E / float(E_T.mean()))[skip:]
    wrapped = estimate_phases(est, feats)
    e_model = fit_fourier(wrapped, e_hat, ENERGY_ORDER)
    proto = NominalReference(params=params, phase=est, e_model=e_model,
                             self_cost=0.0, crash_penalty=1.0, T=T, dt=dt)
    # member 0's training run is scored as it is, not simulated again
    costs = [_member_cost(params, proto, res)]
    costs += [_member_cost(params, proto, simulate_hybrid(params, ic, T, dt))
              for ic in ensemble[1:]]
    if None in costs:
        raise ValueError("nominal parameters crashed on an ensemble member")
    worst = max(costs)
    return replace(proto, self_cost=float(np.mean(costs)),
                   crash_penalty=10.0 * worst)


def count_completing(params: CTSlipParams, ensemble: Sequence[HybridState],
                     strides: int = 10, T: float = 12.0,
                     dt: float = SIM_DT) -> int:
    return sum(1 for ic in ensemble
               if simulate_hybrid(params, ic, T, dt).strides >= strides)


FREE_PARAM_BOUNDS = ((4.0, 400.0), (40.0, 140.0), (0.0, 1.5), (-0.15, 0.15),
           (0.2, 4.0))
FREE_PARAM_STEPS = (3.0, 6.0, 0.06, 0.012, 0.08)
# the recovery search: a fixed iteration budget, no early stop
RECOVERY_SEARCH = NMConfig(initial_step=FREE_PARAM_STEPS, max_iters=40,
                           bounds=FREE_PARAM_BOUNDS, f_tol=0.0, x_tol=0.0)


def _apply_free(base: CTSlipParams, x: np.ndarray) -> CTSlipParams:
    return replace(base, K=float(x[0]), L=float(x[1]), mu=float(x[2]),
                   eta=float(x[3]),
                   clock=replace(base.clock, frequency=float(x[4])))


def recover_parameters(damaged: CTSlipParams,
                       reference: NominalReference,
                       ensemble: Sequence[HybridState],
                       nm_config: NMConfig = RECOVERY_SEARCH,
                       ) -> tuple[CTSlipParams, CostTrace]:
    """Minimize the recovery cost over (K, L, mu, eta, frequency) with the
    damaged hip gain t_s held fixed; starts from the damaged parameters."""
    x0 = np.array([damaged.K, damaged.L, damaged.mu, damaged.eta,
                   damaged.clock.frequency])

    def f(x):
        return recovery_cost(_apply_free(damaged, x), ensemble, reference)

    best, trace = nelder_mead(f, x0, nm_config)
    return _apply_free(damaged, best), trace
