"""Clock-torqued SLIP hopper: hybrid simulation, energy readouts, the
data-driven recovery cost, and parameter recovery with a frozen hip gain.

A point-mass hip bounces on massless springy legs driven by a Hill-type force
law F = K(L - zeta)(1 + eta*zetadot) - mu*zetadot and a hip torque that PD
tracks a Buehler clock, scaled by the gain t_s. Two legs run the clock half a
cycle apart; whichever leg's commanded foot point reaches the ground first
takes the next stance.

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
        if not 0.0 < self.duty_factor < 1.0:
            raise ValueError("duty_factor must be in (0, 1)")
        if self.sweep_angle <= 0.0 or self.frequency <= 0.0:
            raise ValueError("sweep_angle and frequency must be positive")
        if abs(self.touchdown_angle) > self.sweep_angle:
            raise ValueError("touchdown_angle must lie inside the sweep")

    def command(self, t: float, chi0: float, leg: int,
                ) -> tuple[float, float, bool]:
        """Commanded angle, its time derivative, and the descending flag."""
        return self.signal(chi0, leg)(t)

    def signal(self, chi0: float, leg: int) -> Callable:
        """``command`` of one leg at a fixed clock phase, as a function of
        time alone, with the clock constants evaluated once."""
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
        if self.L <= 0.0 or self.K <= 0.0:
            raise ValueError("L and K must be positive")


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


def apex_state(y: float, xdot: float, clock_phase: float = 0.0,
               x: float = 0.0) -> HybridState:
    return HybridState(mode=Mode.FLIGHT, com=(x, y, xdot, 0.0),
                       clock_phase=clock_phase)


class CrashSignal(RuntimeError):
    """Raised by the stance field when the leg has fully collapsed."""


def hill_force(params: CTSlipParams, zeta: float, zeta_dot: float) -> float:
    return (params.K * (params.L - zeta) * (1.0 + params.eta * zeta_dot)
            - params.mu * zeta_dot)


def _stance_law(params: CTSlipParams, chi0: float, leg: int) -> Callable:
    """``stance_dynamics`` of one leg at a fixed clock phase."""
    clock = params.clock.signal(chi0, leg)
    t_s, kp, kd, g = params.t_s, params.kp, params.kd, params.gravity
    cos, sin = math.cos, math.sin

    def accel(t, zeta, psi, zeta_dot, psi_dot):
        if zeta <= 0.0:
            raise CrashSignal(f"leg collapsed (zeta={zeta}) at t={t}")
        psi_c, psi_c_dot, _ = clock(t)
        tau = t_s * (kp * (psi_c - psi) + kd * (psi_c_dot - psi_dot))
        zeta_dd = (zeta * psi_dot * psi_dot
                   + hill_force(params, zeta, zeta_dot) - g * cos(psi))
        psi_dd = (tau + g * zeta * sin(psi)
                  - 2.0 * zeta * zeta_dot * psi_dot) / (zeta * zeta)
        return zeta_dd, psi_dd

    return accel


def stance_dynamics(params: CTSlipParams, zeta: float, psi: float,
                    zeta_dot: float, psi_dot: float, t: float,
                    chi0: float = 0.0, leg: int = 0) -> tuple[float, float]:
    """Radial/angular accelerations of the stance Lagrangian plus the
    non-conservative Hill terms and the clock-tracking hip torque."""
    return _stance_law(params, chi0, leg)(t, zeta, psi, zeta_dot, psi_dot)


@dataclass(frozen=True)
class SimConfig:
    dt: float = 2e-3
    bisect_tol: float = 1e-10
    max_events_per_step: int = 8

    def __post_init__(self):
        if self.dt <= 0.0 or self.bisect_tol <= 0.0:
            raise ValueError("dt and bisect_tol must be positive")


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

    params: CTSlipParams
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
    psi_c, _, _ = params.clock.command(t, chi0, leg)
    foot = (u[0] + params.L * math.sin(psi_c), 0.0)
    return _leg_state(u, foot), foot


def _liftoff_map(u: Sequence[float], foot: tuple) -> tuple:
    zeta, psi, zd, pd = u
    sp, cp = math.sin(psi), math.cos(psi)
    return (foot[0] - zeta * sp, zeta * cp, -zd * sp - zeta * pd * cp,
            zd * cp - zeta * pd * sp)


def _modes(params: CTSlipParams, chi0: float) -> dict:
    """Mode -> (RK4 step(t, u, h), guards, guard values), built once per run.

    A guard is (kind, leg, value, armed); an event fires when value crosses
    from > 0 to <= 0 inside a step (and the armed predicate holds, if any).
    """
    L, ng = params.L, -params.gravity
    ng_sum = ng + 2.0 * ng + 2.0 * ng + ng
    armed_below = params.clock.touchdown_angle + 1e-12
    floor = 1e-3 * L
    cos = math.cos

    def flight(t, u, h):
        # stage positions are dead; += 0.0 maps -0.0 to 0.0 as the stages do
        x, y, xd, yd = u
        xd += 0.0
        yd_mid, yd_end, s = yd + 0.5 * h * ng, yd + h * ng, h / 6.0
        return (x + s * (xd + 2.0 * xd + 2.0 * xd + xd),
                y + s * (yd + 2.0 * yd_mid + 2.0 * yd_mid + yd_end),
                xd, yd + s * ng_sum)

    def stance(leg):
        accel = _stance_law(params, chi0, leg)

        def step(t, u, h):
            z, p, zd, pd = u
            hh = 0.5 * h
            a1, b1 = accel(t, z, p, zd, pd)
            zd2, pd2 = zd + hh * a1, pd + hh * b1
            a2, b2 = accel(t + hh, z + hh * zd, p + hh * pd, zd2, pd2)
            zd3, pd3 = zd + hh * a2, pd + hh * b2
            a3, b3 = accel(t + hh, z + hh * zd2, p + hh * pd2, zd3, pd3)
            zd4, pd4 = zd + h * a3, pd + h * b3
            a4, b4 = accel(t + h, z + h * zd3, p + h * pd3, zd4, pd4)
            s = h / 6.0
            return (z + s * (zd + 2.0 * zd2 + 2.0 * zd3 + zd4),
                    p + s * (pd + 2.0 * pd2 + 2.0 * pd3 + pd4),
                    zd + s * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                    pd + s * (b1 + 2.0 * b2 + 2.0 * b3 + b4))

        return step

    def touchdown(leg):
        clock = params.clock.signal(chi0, leg)

        def armed(t, u):
            psi_c, _, desc = clock(t)
            return desc and psi_c <= armed_below and u[3] < 0.0

        return ("touchdown", leg, lambda t, u: u[1] - L * cos(clock(t)[0]),
                armed)

    airborne = (("crash", None, lambda t, u: u[1], None),
                touchdown(0), touchdown(1))
    landed = (("crash", None, lambda t, u: u[0] * cos(u[1]), None),
              ("crash", None, lambda t, u: u[0] - floor, None),
              ("liftoff", None, lambda t, u: L - u[0], None))
    values = [g[2] for g in landed]
    return {Mode.FLIGHT: (flight, airborne, [g[2] for g in airborne]),
            Mode.STANCE_LEFT: (stance(0), landed, values),
            Mode.STANCE_RIGHT: (stance(1), landed, values)}


def _first_event(step, guards, ta, ua, va, tb, ub, vb, tol):
    hits = []
    for (kind, leg, value, armed), a, b in zip(guards, va, vb):
        if not (a > 0.0 >= b) or (armed is not None and not armed(tb, ub)):
            continue
        lo, hi, u_hi = ta, tb, ub
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            um = step(ta, ua, mid - ta)
            if value(mid, um) > 0.0:
                lo = mid
            else:
                hi, u_hi = mid, um
        hits.append((hi, 0 if kind == "crash" else 1, kind, leg, u_hi))
    if not hits:
        return None
    hits.sort(key=lambda h: (h[0], h[1]))
    best_t = hits[0][0]
    for h in hits:
        if h[0] - best_t <= tol and h[2] == "crash":
            return h
    return hits[0]


def simulate_hybrid(params: CTSlipParams, ic: HybridState, T: float,
                    cfg: SimConfig | None = None) -> SimResult:
    """Integrate the hybrid system on the fixed grid t_k = k*dt.

    Events are located inside a step by bisection on fresh Runge-Kutta
    substeps from the pre-step state, the transition is applied, and the
    remainder of the step is integrated in the new mode, so samples stay on
    the uniform grid. The run stops at the first crash (absorbing mode).
    Guards are tested only at step ends, so a guard that crosses zero and
    back inside one step (a grazing touchdown) fires no event.
    """
    cfg = cfg if cfg is not None else SimConfig()
    dt, tol = cfg.dt, cfg.bisect_tol
    nsteps = int(round(T / dt))
    if abs(nsteps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError("span must be an integer number of steps")
    chi0 = ic.clock_phase
    mode = ic.mode
    if mode is Mode.FLIGHT:
        u, foot = tuple(ic.com), None
    elif mode in (Mode.STANCE_LEFT, Mode.STANCE_RIGHT):
        if ic.foot is None:
            raise ValueError("stance initial condition requires a foot anchor")
        foot = (float(ic.foot[0]), float(ic.foot[1]))
        u = _leg_state(ic.com, foot)
        if u[0] > params.L * (1.0 + 1e-9):
            raise ValueError("stance initial condition: leg longer than L")
    else:
        raise ValueError("initial condition must be flight or stance")

    modes = _modes(params, chi0)
    step, guards, (v0, v1, v2) = modes[mode]
    flight_tail = (params.L, math.nan, Mode.FLIGHT.value)
    stance_value = mode.value
    samples = [u + flight_tail if foot is None
               else _liftoff_map(u, foot) + (u[0], u[1], stance_value)]
    events, crashed = [], False
    va = None  # guard values at (ta, u), carried over from the last step end

    for k in range(nsteps):
        ta, tb = k * dt, (k + 1) * dt
        for _ in range(cfg.max_events_per_step):
            if crashed:
                break
            if va is None:
                va = (v0(ta, u), v1(ta, u), v2(ta, u))
            try:
                u_end = step(ta, u, tb - ta)
                vb = (v0(tb, u_end), v1(tb, u_end), v2(tb, u_end))
                hit = (_first_event(step, guards, ta, u, va, tb, u_end, vb,
                                    tol)
                       if (va[0] > 0.0 >= vb[0] or va[1] > 0.0 >= vb[1]
                           or va[2] > 0.0 >= vb[2]) else None)
            except CrashSignal:
                hit = (ta, 0, "crash", None, u)
            if hit is None:
                u, va = u_end, vb
                break
            t_ev, _, kind, ev_leg, u_ev = hit
            events.append(Event(kind=kind, time=t_ev, leg=ev_leg))
            if kind == "crash":
                crashed = True
            elif kind == "touchdown":
                u, foot = _touchdown_map(params, t_ev, u_ev, chi0, ev_leg)
                mode = Mode.STANCE_LEFT if ev_leg == 0 else Mode.STANCE_RIGHT
                stance_value = mode.value
            else:  # liftoff
                u, foot, mode = _liftoff_map(u_ev, foot), None, Mode.FLIGHT
            step, guards, (v0, v1, v2) = modes[mode]
            ta, va = t_ev, None
            if tb - ta <= tol:
                break
        else:
            raise RuntimeError(
                f"event location failed: more than {cfg.max_events_per_step} "
                f"events inside [{ta}, {tb}]")
        if crashed:
            break
        samples.append(u + flight_tail if foot is None
                       else _liftoff_map(u, foot) + (u[0], u[1], stance_value))

    arr = np.fromiter(chain.from_iterable(samples), float,
                      7 * len(samples)).reshape(-1, 7)
    return SimResult(params=params, t=np.arange(len(samples)) * dt,
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


@dataclass(frozen=True)
class NominalReference:
    """Frozen nominal-gait data the recovery cost compares against."""

    params: CTSlipParams
    phase: PhaseEstimator
    e_model: FourierSeries    # normalized elastic energy vs phase
    self_cost: float          # nominal parameters scored against themselves
    crash_penalty: float      # per-crashed-member base penalty


def _member_cost(params, reference, ic, T, cfg, alpha, beta):
    """Cost of one ensemble member; None signals a crash/degenerate run."""
    res = simulate_hybrid(params, ic, T, cfg)
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
    term2 = alpha * float(rate.var())
    term3 = beta / abs(mean_rate)
    return term1 + term2 + term3


def recovery_cost(params: CTSlipParams, ensemble: Sequence[HybridState],
                  reference: NominalReference, alpha: float = 1.0,
                  beta: float = 0.1, T: float = 12.0,
                  cfg: SimConfig | None = None) -> float:
    """Mean member cost; a crashed member contributes the base penalty times
    the ensemble size (so any crash dominates all smooth-mismatch terms)."""
    cfg = cfg if cfg is not None else SimConfig()
    n = len(ensemble)
    total = 0.0
    for ic in ensemble:
        c = _member_cost(params, reference, ic, T, cfg, alpha, beta)
        total += reference.crash_penalty * n if c is None else c
    return total / n


# Apex start that settles into steady alternating hopping for the default
# plant: 2 length units of clearance above the touchdown height, forward
# speed near the clock-implied body speed, clock phase so leg 1 catches the
# first fall. Calibrated together with the default gains.
APEX_MARGIN = 2.0
APEX_SPEED = 22.0
APEX_CLOCK_FRACTION = 0.55


def nominal_ic(params: CTSlipParams) -> HybridState:
    """Canonical apex start above the touchdown height."""
    y0 = params.L * math.cos(params.clock.touchdown_angle) + APEX_MARGIN
    return apex_state(y=y0, xdot=APEX_SPEED,
                      clock_phase=TWO_PI * APEX_CLOCK_FRACTION)


def make_ensemble(params: CTSlipParams, n: int = 10, seed: int = 0,
                  margin_spread: float = 0.20,
                  speed_spread: float = 0.05) -> list[HybridState]:
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
        fm = 1.0 + margin_spread * rng.uniform(-1.0, 1.0)
        fx = 1.0 + speed_spread * rng.uniform(-1.0, 1.0)
        out.append(apex_state(y=td_y + clearance * fm, xdot=base.com[2] * fx,
                              clock_phase=base.clock_phase))
    return out


def build_reference(params: CTSlipParams, ensemble: Sequence[HybridState],
                    T: float = 12.0, cfg: SimConfig | None = None,
                    order: int = 8, alpha: float = 1.0, beta: float = 0.1,
                    ) -> NominalReference:
    """Train the phase estimator and energy model on the nominal plant.

    Uses the first ensemble member's run as training data, then scores every
    member against the fitted model to set the self-cost and crash penalty.
    """
    cfg = cfg if cfg is not None else SimConfig()
    res = simulate_hybrid(params, ensemble[0], T, cfg)
    if res.crashed:
        raise ValueError("nominal parameters crashed; cannot build reference")
    # skip the settling transient before fitting
    skip = max(1, len(res.t) // 8)
    feats = phase_features(res)[skip:]
    est = PhaseEstimator.fit(feats)
    E, E_T = energy_outputs(params, res)
    e_hat = (E / float(E_T.mean()))[skip:]
    wrapped = estimate_phases(est, feats)
    e_model = fit_fourier(wrapped, e_hat, order)
    proto = NominalReference(params=params, phase=est, e_model=e_model,
                             self_cost=0.0, crash_penalty=1.0)
    costs = []
    for ic in ensemble:
        c = _member_cost(params, proto, ic, T, cfg, alpha, beta)
        if c is None:
            raise ValueError("nominal parameters crashed on an ensemble member")
        costs.append(c)
    worst = max(costs)
    return NominalReference(params=params, phase=est, e_model=e_model,
                            self_cost=float(np.mean(costs)),
                            crash_penalty=10.0 * worst)


def count_completing(params: CTSlipParams, ensemble: Sequence[HybridState],
                     strides: int = 10, T: float = 12.0,
                     cfg: SimConfig | None = None) -> int:
    cfg = cfg if cfg is not None else SimConfig()
    return sum(1 for ic in ensemble
               if simulate_hybrid(params, ic, T, cfg).strides >= strides)


_FREE_PARAMS = ("K", "L", "mu", "eta", "frequency")
FREE_PARAM_BOUNDS = ((4.0, 400.0), (40.0, 140.0), (0.0, 1.5), (-0.15, 0.15),
           (0.2, 4.0))
FREE_PARAM_STEPS = (3.0, 6.0, 0.06, 0.012, 0.08)


def _apply_free(base: CTSlipParams, x: np.ndarray) -> CTSlipParams:
    return replace(base, K=float(x[0]), L=float(x[1]), mu=float(x[2]),
                   eta=float(x[3]),
                   clock=replace(base.clock, frequency=float(x[4])))


def recover_parameters(damaged: CTSlipParams,
                       reference: NominalReference,
                       ensemble: Sequence[HybridState],
                       nm_config: NMConfig | None = None,
                       alpha: float = 1.0, beta: float = 0.1,
                       T: float = 12.0, cfg: SimConfig | None = None,
                       ) -> tuple[CTSlipParams, CostTrace]:
    """Minimize the recovery cost over (K, L, mu, eta, frequency) with the
    damaged hip gain t_s held fixed; starts from the damaged parameters."""
    cfg = cfg if cfg is not None else SimConfig()
    x0 = np.array([damaged.K, damaged.L, damaged.mu, damaged.eta,
                   damaged.clock.frequency])
    if nm_config is None:
        nm_config = NMConfig(initial_step=np.asarray(FREE_PARAM_STEPS),
                             max_iters=40, bounds=FREE_PARAM_BOUNDS,
                             f_tol=0.0, x_tol=0.0)

    def f(x):
        return recovery_cost(_apply_free(damaged, x), ensemble, reference,
                             alpha=alpha, beta=beta, T=T, cfg=cfg)

    best, trace = nelder_mead(f, x0, nm_config)
    return _apply_free(damaged, best), trace
