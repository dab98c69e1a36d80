"""Independent reference for the hybrid hopper simulator.

``oracle_simulate`` is a direct, unoptimised transcription of the hybrid
integration: a generic list-based RK4 (flight included), field closures and a
guard table built afresh on every step, and the clock and stance laws
evaluated straight from the parameters. A flight guard that may change sign
inside a step (by a Lipschitz bound) is sampled at FLIGHT_SUBSTEPS RK4
substeps; it fires at the first substep interval in which it falls from > 0
to <= 0 with its leg armed at the bisected crossing. A stance step ends on
the second grid point after its start, or earlier at a kink of the stance
leg's clock; the field reads the clock clamped KINK_NUDGE inside the step.
Grid points inside a stance step are read from the step's cubic Hermite
interpolant, at whose points and end each stance guard is tested and then
bisected on the interpolant. ``simulate_hybrid`` advances flight in closed
form and locates touchdowns between samples; it must match this reference
event for event, with times and samples within measured bounds.
"""
import math
from dataclasses import replace
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regait import ctslip
from regait.ctslip import (FREE_PARAM_BOUNDS, FREE_PARAM_STEPS, SIM_DT,
                           BuehlerClock, CrashSignal, CTSlipParams, Event,
                           HybridState, Mode, SimResult, _apply_free,
                           apex_state, build_reference, make_ensemble,
                           nominal_ic, recovery_cost, simulate_hybrid)

TWO_PI = 2.0 * math.pi


def _command(clock, t, chi0, leg):
    chi = chi0 + TWO_PI * clock.frequency * t + (math.pi if leg else 0.0)
    s = (chi / TWO_PI) % 1.0
    if s < clock.duty_factor:
        psi = clock.sweep_angle * (1.0 - 2.0 * s / clock.duty_factor)
        rate = -2.0 * clock.sweep_angle / clock.duty_factor * clock.frequency
        return psi, rate, True
    q = (s - clock.duty_factor) / (1.0 - clock.duty_factor)
    psi = -clock.sweep_angle + 2.0 * clock.sweep_angle * q
    rate = (2.0 * clock.sweep_angle / (1.0 - clock.duty_factor)
            * clock.frequency)
    return psi, rate, False


def _hill_force(params, zeta, zeta_dot):
    return (params.K * (params.L - zeta) * (1.0 + params.eta * zeta_dot)
            - params.mu * zeta_dot)


def _stance_dynamics(params, zeta, psi, zeta_dot, psi_dot, t, chi0=0.0,
                     leg=0):
    if zeta <= 0.0:
        raise CrashSignal(f"leg collapsed (zeta={zeta}) at t={t}")
    psi_c, psi_c_dot, _ = _command(params.clock, t, chi0, leg)
    tau = params.t_s * (params.kp * (psi_c - psi)
                        + params.kd * (psi_c_dot - psi_dot))
    force = _hill_force(params, zeta, zeta_dot)
    zeta_dd = (zeta * psi_dot * psi_dot + force
               - params.gravity * math.cos(psi))
    psi_dd = (tau + params.gravity * zeta * math.sin(psi)
              - 2.0 * zeta * zeta_dot * psi_dot) / (zeta * zeta)
    return zeta_dd, psi_dd


def _rk4(f: Callable, t: float, u: list[float], h: float) -> list[float]:
    k1 = f(t, u)
    u2 = [u[i] + 0.5 * h * k1[i] for i in range(4)]
    k2 = f(t + 0.5 * h, u2)
    u3 = [u[i] + 0.5 * h * k2[i] for i in range(4)]
    k3 = f(t + 0.5 * h, u3)
    u4 = [u[i] + h * k3[i] for i in range(4)]
    k4 = f(t + h, u4)
    s = h / 6.0
    return [u[i] + s * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in range(4)]


def _flight_field(params):
    g = params.gravity

    def f(t, u):
        return [u[2], u[3], 0.0, -g]

    return f


def _stance_field(params, chi0, leg, lo=-math.inf, hi=math.inf):
    """The stance field with the clock read at t clamped into [lo, hi]."""
    def f(t, u):
        zdd, pdd = _stance_dynamics(params, u[0], u[1], u[2], u[3],
                                    min(max(t, lo), hi), chi0=chi0, leg=leg)
        return [u[2], u[3], zdd, pdd]

    return f


def _touchdown_map(params, t, u, chi0, leg):
    x, y, xd, yd = u
    psi_c, _, _ = _command(params.clock, t, chi0, leg)
    foot_x = x + params.L * math.sin(psi_c)
    dx, dy = x - foot_x, y
    zeta = math.hypot(dx, dy)
    psi = math.atan2(-dx, dy)
    sp, cp = math.sin(psi), math.cos(psi)
    zd = -xd * sp + yd * cp
    pd = (-xd * cp - yd * sp) / zeta
    return [zeta, psi, zd, pd], (foot_x, 0.0)


def _liftoff_map(u, foot):
    zeta, psi, zd, pd = u
    sp, cp = math.sin(psi), math.cos(psi)
    x = foot[0] - zeta * sp
    y = zeta * cp
    xd = -zd * sp - zeta * pd * cp
    yd = zd * cp - zeta * pd * sp
    return [x, y, xd, yd]


def _guards(params, mode, chi0):
    if mode is Mode.FLIGHT:
        out = [("crash", None, lambda t, u: u[1], None)]
        for leg in (0, 1):
            def value(t, u, leg=leg):
                psi_c, _, _ = _command(params.clock, t, chi0, leg)
                return u[1] - params.L * math.cos(psi_c)

            def armed(t, u, leg=leg):
                psi_c, _, desc = _command(params.clock, t, chi0, leg)
                return (desc and psi_c <= params.clock.touchdown_angle + 1e-12
                        and u[3] < 0.0)

            out.append(("touchdown", leg, value, armed))
        return out
    return [
        ("crash", None, lambda t, u: u[0] * math.cos(u[1]), None),
        ("crash", None, lambda t, u: u[0] - 1e-3 * params.L, None),
        ("liftoff", None, lambda t, u: params.L - u[0], None),
    ]


FLIGHT_SUBSTEPS = 64   # sub-samples of a flight step scanned for crossings


def _bisect(state, value, lo, hi, u_hi):
    """Bisect [lo, hi] for the time at which ``value`` of ``state(t)``
    turns <= 0; returns it with its state."""
    while hi - lo > ctslip.BISECT_TOL:
        mid = 0.5 * (lo + hi)
        um = state(mid)
        if value(mid, um) > 0.0:
            lo = mid
        else:
            hi, u_hi = mid, um
    return hi, u_hi


def _first_event(params, field, guards, ta, ua, tb, ub):
    # a flight guard changes at most lip per unit time, so one that stays
    # lip*(tb - ta) away from zero at both ends of the step keeps its sign
    clk = params.clock
    lip = (abs(ua[3]) + abs(params.gravity) * (tb - ta) + params.L * 2.0
           * clk.sweep_angle * clk.frequency
           / min(clk.duty_factor, 1.0 - clk.duty_factor))
    hits, sub = [], []   # sub: the step's substeps, made when first needed
    for kind, leg, value, armed in guards:
        pts = [(ta, ua), (tb, ub)]
        if min(abs(value(*p)) for p in pts) <= lip * (tb - ta):
            if not sub:
                times = [ta + (tb - ta) * i / FLIGHT_SUBSTEPS
                         for i in range(1, FLIGHT_SUBSTEPS)]
                sub = ([(ta, ua)] + [(t, _rk4(field, ta, ua, t - ta))
                                     for t in times] + [(tb, ub)])
            pts = sub
        vals = [value(t, u) for t, u in pts]
        for i in range(len(pts) - 1):
            if not vals[i] > 0.0 >= vals[i + 1]:
                continue
            hi, u_hi = _bisect(lambda s: _rk4(field, ta, ua, s - ta), value,
                               pts[i][0], pts[i + 1][0], pts[i + 1][1])
            if armed is None or armed(hi, u_hi):
                hits.append((hi, kind, leg, u_hi))
                break
    return _earliest(hits)


def _earliest(hits):
    """The earliest hit; a crash within BISECT_TOL of it wins the tie."""
    if not hits:
        return None
    hits.sort(key=lambda h: (h[0], h[1] != "crash"))
    for h in hits:
        if h[0] - hits[0][0] <= ctslip.BISECT_TOL and h[1] == "crash":
            return h
    return hits[0]


def _hermite(ta, ua, fa, tb, ub, fb, t):
    """The cubic Hermite interpolant through (ua, fa) at ta and (ub, fb)
    at tb, at t."""
    h = tb - ta
    s = (t - ta) / h
    h00 = 2.0 * s ** 3 - 3.0 * s ** 2 + 1.0
    h10 = s ** 3 - 2.0 * s ** 2 + s
    h01 = -2.0 * s ** 3 + 3.0 * s ** 2
    h11 = s ** 3 - s ** 2
    return [h00 * ua[i] + h10 * h * fa[i] + h01 * ub[i] + h11 * h * fb[i]
            for i in range(4)]


def _kinks(clock, chi0, leg, T):
    """The times, from a clock cycle before 0 to one after T, at which the
    leg's command kinks: its cycle (chi0 + 2 pi f t + leg pi) / 2 pi is an
    integer (the top of the sweep) or an integer plus the duty factor (the
    bottom)."""
    c0 = (chi0 + (math.pi if leg else 0.0)) / TWO_PI
    f = clock.frequency
    return sorted((n + d - c0) / f
                  for n in range(math.floor(c0) - 1, math.ceil(c0 + f * T) + 2)
                  for d in (0.0, clock.duty_factor))


def _stance_substep(params, chi0, leg, kinks, ta, ua, t_end):
    """One stance substep from (ta, ua) towards t_end: (tb, ub, dense),
    with tb the first kink more than KINK_NUDGE inside (ta, t_end) or
    t_end. The field reads the clock clamped KINK_NUDGE inside [ta, tb];
    the interpolant's end slope reads it at tb - KINK_NUDGE if tb is within
    KINK_NUDGE of a kink, and at tb + KINK_NUDGE (the next substep's first
    stage) if not."""
    nudge = ctslip.KINK_NUDGE
    inside = [tk for tk in kinks if ta + nudge < tk < t_end - nudge]
    tb = inside[0] if inside else t_end
    field = _stance_field(params, chi0, leg, ta + nudge, tb - nudge)
    ub = _rk4(field, ta, ua, tb - ta)
    fa = field(ta, ua)
    if any(abs(tk - tb) <= nudge for tk in kinks):
        fb = field(tb, ub)
    else:
        fb = _stance_field(params, chi0, leg)(tb + nudge, ub)
    return tb, ub, lambda t: _hermite(ta, ua, fa, tb, ub, fb, t)


def _stance_event(guards, dense, pts):
    """The first stance guard to fall from > 0 to <= 0 between consecutive
    test points, bisected on the interpolant, or None."""
    hits = []
    for kind, leg, value, _ in guards:
        vals = [value(t, u) for t, u in pts]
        for i in range(len(pts) - 1):
            if vals[i] > 0.0 >= vals[i + 1]:
                hi, u_hi = _bisect(dense, value, pts[i][0], pts[i + 1][0],
                                   pts[i + 1][1])
                hits.append((hi, kind, leg, u_hi))
                break
    return _earliest(hits)


def _sample(params, mode, u, foot):
    if mode is Mode.FLIGHT:
        return [u[0], u[1], u[2], u[3], params.L, math.nan, mode.value]
    com = _liftoff_map(u, foot)
    return [com[0], com[1], com[2], com[3], u[0], u[1], mode.value]


def oracle_simulate(params, ic, T, dt=SIM_DT):
    nsteps = int(round(T / dt))
    if abs(nsteps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError("span must be an integer number of steps")
    chi0 = ic.clock_phase
    mode = ic.mode
    if mode is Mode.FLIGHT:
        u, foot = list(ic.com), None
    elif mode in (Mode.STANCE_LEFT, Mode.STANCE_RIGHT):
        if ic.foot is None:
            raise ValueError("stance initial condition requires a foot anchor")
        x, y, xd, yd = ic.com
        foot = (float(ic.foot[0]), float(ic.foot[1]))
        dx, dy = x - foot[0], y - foot[1]
        zeta = math.hypot(dx, dy)
        if zeta > params.L * (1.0 + 1e-9):
            raise ValueError("stance initial condition: leg longer than L")
        psi = math.atan2(-dx, dy)
        sp, cp = math.sin(psi), math.cos(psi)
        u = [zeta, psi, -xd * sp + yd * cp, (-xd * cp - yd * sp) / zeta]
    else:
        raise ValueError("initial condition must be flight or stance")

    times, samples, events = [], [], []
    crashed, strides = False, 0
    legs = {Mode.STANCE_LEFT: 0, Mode.STANCE_RIGHT: 1}
    kinks = [_kinks(params.clock, chi0, leg, T) for leg in (0, 1)]
    t, j = 0.0, 0      # the current time and the next grid point to sample
    in_step = held = 0  # events since the last sample, samples in stance

    def emit(tj, uj):
        nonlocal j, in_step, held
        times.append(tj)
        samples.append(_sample(params, mode, uj, foot))
        j, in_step, held = j + 1, 0, held + 1

    while j <= nsteps:
        if mode is Mode.FLIGHT:
            tb = j * dt
            fld = _flight_field(params)
            u_end = _rk4(fld, t, u, tb - t)
            hit = _first_event(params, fld, _guards(params, mode, chi0),
                               t, u, tb, u_end)
            if hit is None:
                emit(tb, u_end)
                t, u = tb, u_end
                continue
        else:
            leg = legs[mode]
            if t == j * dt:
                emit(t, u)
            t_end = min(j + 1, nsteps) * dt
            try:
                tb, ub, dense = _stance_substep(params, chi0, leg, kinks[leg],
                                                t, u, t_end)
            except CrashSignal:
                hit = (t, "crash", None, u)
            else:
                grid = [g * dt for g in range(j, min(j + 2, nsteps + 1))
                        if g * dt < tb]
                pts = [(t, u)] + [(g, dense(g)) for g in grid] + [(tb, ub)]
                hit = _stance_event(_guards(params, mode, chi0), dense, pts)
                for g, ug in pts[1:]:
                    if g == j * dt and (hit is None or g < hit[0]):
                        emit(g, ug)
                if hit is None:
                    t, u = tb, ub
                    continue
        t, kind, ev_leg, u_ev = hit
        events.append(Event(kind=kind, time=t, leg=ev_leg))
        in_step += 1
        if in_step > ctslip.MAX_EVENTS_PER_STEP:
            raise RuntimeError(
                "event location failed: more than "
                f"{ctslip.MAX_EVENTS_PER_STEP} events inside "
                f"[{(j - 1) * dt}, {j * dt}]")
        if kind == "crash":
            crashed = True
            break
        if kind == "touchdown":
            u, foot = _touchdown_map(params, t, u_ev, chi0, ev_leg)
            mode = Mode.STANCE_LEFT if ev_leg == 0 else Mode.STANCE_RIGHT
            held = 0
        else:  # liftoff
            strides += held > 0
            u = _liftoff_map(u_ev, foot)
            mode, foot = Mode.FLIGHT, None

    arr = np.asarray(samples)
    return SimResult(t=np.asarray(times), com=arr[:, :4], zeta=arr[:, 4],
                     psi=arr[:, 5], mode=arr[:, 6].astype(int), events=events,
                     crashed=crashed, strides=strides)


# Bounds against the reference, measured on the grid below and on 800 random
# apex starts like those of test_random_apex_starts_match_oracle: event times
# differ by at most 6.2e-11 on the grid (simplex-K) and 4.1e-10 on the random
# starts, samples by 6.3e-9 and 4.5e-8 relative to max(1, |value|) (stance
# velocities reach 1e5 just before a collapse), and the ensemble's recovery
# cost by 5.0e-11 relative. Both locate events only to BISECT_TOL, and a run
# that later collapses or launches amplifies that difference: with
# BISECT_TOL at 1e-10 about one random start in 2,000 exceeded SAMPLE_TOL.
TIME_TOL = 1e-7
SAMPLE_TOL = 1e-5
COST_RTOL = 1e-7


def assert_close_run(got, want):
    assert got.crashed == want.crashed
    assert got.strides == want.strides
    assert ([(e.kind, e.leg) for e in got.events]
            == [(e.kind, e.leg) for e in want.events])
    assert np.allclose([e.time for e in got.events],
                       [e.time for e in want.events], rtol=0.0, atol=TIME_TOL)
    assert np.array_equal(got.t, want.t)
    assert np.array_equal(got.mode, want.mode)
    for a, b in ((got.com, want.com), (got.zeta, want.zeta),
                 (got.psi, want.psi)):
        assert np.allclose(a, b, rtol=SAMPLE_TOL, atol=SAMPLE_TOL,
                           equal_nan=True)


HEALTHY = CTSlipParams()
DAMAGED = replace(HEALTHY, t_s=0.02)


def _simplex_vertex(i):
    x = np.array([DAMAGED.K, DAMAGED.L, DAMAGED.mu, DAMAGED.eta,
                  DAMAGED.clock.frequency])
    x[i] += FREE_PARAM_STEPS[i]
    return _apply_free(DAMAGED, x)


def _stance_drop(params, psi0=0.25):
    com = (-params.L * math.sin(psi0), params.L * math.cos(psi0), 6.0, -8.0)
    return HybridState(mode=Mode.STANCE_LEFT, com=com, foot=(0.0, 0.0))


def _stance_start(zeta, psi, zeta_dot, psi_dot):
    """Left-leg stance start at the leg state (zeta, psi, zeta_dot,
    psi_dot), foot at the origin."""
    sp, cp = math.sin(psi), math.cos(psi)
    com = (-zeta * sp, zeta * cp, -zeta_dot * sp - zeta * psi_dot * cp,
           zeta_dot * cp - zeta * psi_dot * sp)
    return HybridState(mode=Mode.STANCE_LEFT, com=com, foot=(0.0, 0.0))


def _stance_liftoff(params, psi0=-0.1, gap=1e-3, speed=5.0):
    """Stance start a little inside the rest length, extending fast enough
    to lift off inside the first step."""
    return _stance_start(params.L - gap, psi0, speed, 0.0)


def _two_events_in_one_step(params):
    """Left-leg stance start that lifts off inside the first step, falling
    fast, with leg 1's clock just past the touchdown angle: leg 1 touches
    down (and lifts off at once) inside the same step."""
    start = _stance_start(params.L - 1e-3, -0.3, 5.0, -3.0)
    return replace(start, clock_phase=TWO_PI * 0.25 * (1.0 + 0.301 / 0.4)
                   - math.pi)


ENSEMBLE = make_ensemble(HEALTHY)
FREEFALL = CTSlipParams(clock=BuehlerClock(frequency=1e-6))

# (params, initial condition, span, step)
GRID = {
    "healthy": (HEALTHY, ENSEMBLE[3], 12.0, SIM_DT),
    "healthy-nominal": (HEALTHY, nominal_ic(HEALTHY), 12.0, SIM_DT),
    "damaged": (DAMAGED, ENSEMBLE[0], 12.0, SIM_DT),
    "simplex-K": (_simplex_vertex(0), ENSEMBLE[1], 12.0, SIM_DT),
    "simplex-L": (_simplex_vertex(1), ENSEMBLE[2], 12.0, SIM_DT),
    "simplex-frequency": (_simplex_vertex(4), ENSEMBLE[4], 12.0, SIM_DT),
    "gravity-500": (replace(HEALTHY, gravity=500.0), ENSEMBLE[0], 12.0,
                    SIM_DT),
    "freefall-crash": (FREEFALL, apex_state(y=5.0, xdot=0.0,
                                            clock_phase=math.pi), 1.5, SIM_DT),
    # a crash ends its step at once, even on a budget of one event
    "freefall-crash-budget-1": (FREEFALL, apex_state(y=5.0, xdot=0.0,
                                                     clock_phase=math.pi),
                                1.5, SIM_DT),
    "stance-drop": (HEALTHY, _stance_drop(HEALTHY), 4.0, SIM_DT),
    # the leg passes through zero inside one Runge-Kutta stage
    "leg-collapse": (HEALTHY, HybridState(mode=Mode.STANCE_RIGHT,
                                          com=(0.0, 0.5, 0.0, -1000.0),
                                          foot=(0.0, 0.0)), 1.0, SIM_DT),
    "fine-dt": (HEALTHY, ENSEMBLE[5], 3.0, 2e-4),
    # the span ends in the flight after a liftoff
    "span-ends-in-flight": (HEALTHY, ENSEMBLE[6], 1.9, SIM_DT),
    # flights longer than half a clock cycle that end in touchdowns
    "long-flight": (HEALTHY, apex_state(y=HEALTHY.L * math.cos(0.3) + 6.0,
                                        xdot=22.0, clock_phase=0.55 * TWO_PI),
                    4.0, SIM_DT),
    # the first flight starts after a liftoff inside the first step
    "liftoff-first-step": (HEALTHY, _stance_liftoff(HEALTHY), 2.0, SIM_DT),
    # stance steps after the first one run as a block until an exit:
    # the span ends in stance
    "stance-span-end": (HEALTHY, _stance_drop(HEALTHY), 0.05, SIM_DT),
    # the leg lifts off after a few dozen steps
    "stance-liftoff": (HEALTHY, _stance_liftoff(HEALTHY, gap=0.5), 0.5,
                       SIM_DT),
    # three events inside the first step
    "two-events-one-step": (HEALTHY, _two_events_in_one_step(HEALTHY), 2.0,
                            SIM_DT),
    # a stage of the seventh step drives the leg through zero
    "stance-collapse": (HEALTHY, _stance_start(5.0, 0.0, -500.0, 0.0), 0.2,
                        SIM_DT),
    # the leg tips over to the horizontal: zeta*cos(psi) reaches zero
    "stance-tip-over": (HEALTHY, _stance_start(40.0, 1.2, 0.0, 5.0), 0.5,
                        SIM_DT),
    # with a weak spring and no hip torque the leg compresses slowly
    # through the floor length 1e-3 L, ending a step above zero
    "stance-floor": (replace(HEALTHY, K=1e-3, t_s=0.0),
                     _stance_start(1.0, 0.0, -5.0, 0.0), 0.5, SIM_DT),
}


# cases run with ctslip.MAX_EVENTS_PER_STEP set to 1, in the simulator and
# the oracle alike
ONE_EVENT_BUDGET = {"freefall-crash-budget-1"}


@pytest.mark.parametrize("case", sorted(GRID))
def test_simulate_hybrid_matches_oracle(case, monkeypatch):
    params, ic, T, dt = GRID[case]
    if case in ONE_EVENT_BUDGET:
        monkeypatch.setattr(ctslip, "MAX_EVENTS_PER_STEP", 1)
    want = oracle_simulate(params, ic, T, dt)
    assert_close_run(simulate_hybrid(params, ic, T, dt), want)


def test_grid_covers_every_outcome():
    runs = {case: oracle_simulate(*GRID[case]) for case in GRID}
    kinds = {e.kind for r in runs.values() for e in r.events}
    assert kinds == {"touchdown", "liftoff", "crash"}
    assert runs["healthy"].strides >= 10
    assert runs["damaged"].crashed and runs["damaged"].strides >= 2
    assert runs["freefall-crash"].crashed
    assert runs["leg-collapse"].events == [Event("crash", 0.0)]
    assert runs["stance-drop"].mode[0] == Mode.STANCE_LEFT.value

    dt = SIM_DT
    stance = Mode.STANCE_LEFT.value
    end = runs["stance-span-end"]
    assert not end.events and len(end.t) == 26
    assert (end.mode == stance).all()
    two = runs["two-events-one-step"]
    assert [(e.kind, e.leg) for e in two.events[:3]] == [
        ("liftoff", None), ("touchdown", 1), ("liftoff", None)]
    assert two.events[2].time < dt
    # leg 1's stance holds no grid sample, so its liftoff is not a stride
    assert two.strides == sum(e.kind == "liftoff" for e in two.events) - 1
    lift = runs["stance-liftoff"]
    assert lift.events[0].kind == "liftoff" and lift.events[0].time > 3 * dt
    assert lift.mode[3] == stance
    # a stage's CrashSignal ends its step at the step's start
    collapse = runs["stance-collapse"]
    assert len(collapse.t) >= 3 and (collapse.mode == stance).all()
    assert collapse.events == [Event("crash", (len(collapse.t) - 1) * dt)]
    # guard crashes are bisected inside the step after the last sample: at
    # zeta*cos(psi) with the leg long and near horizontal, at zeta - floor
    # with the leg short and near vertical
    floor = 1e-3 * HEALTHY.L
    for case, leg in (("stance-tip-over", lambda z, p: z > 0.4 * HEALTHY.L
                       and abs(p - 0.5 * math.pi) < 0.05),
                      ("stance-floor", lambda z, p: floor < z < 4 * floor
                       and abs(p) < 0.3)):
        run = runs[case]
        [crash] = run.events
        assert crash.kind == "crash" and len(run.t) >= 3, case
        assert 0.0 < crash.time - (len(run.t) - 1) * dt < dt, case
        assert leg(run.zeta[-1], run.psi[-1]), case


def test_flight_cases_have_their_shapes():
    ends = oracle_simulate(*GRID["span-ends-in-flight"])
    assert not ends.crashed and ends.events[-1].kind == "liftoff"
    assert ends.mode[-1] == Mode.FLIGHT.value

    params, ic, T, _ = GRID["long-flight"]
    run = oracle_simulate(params, ic, T)
    flights = [(b.time - a.time, b.kind)
               for a, b in zip(run.events, run.events[1:])
               if a.kind == "liftoff"]
    half_cycle = 0.5 / params.clock.frequency
    assert any(span > half_cycle and kind == "touchdown"
               for span, kind in flights)
    assert not run.crashed

    lift = oracle_simulate(*GRID["liftoff-first-step"])
    assert lift.events[0].kind == "liftoff"
    assert lift.events[0].time < SIM_DT
    assert lift.mode[0] == Mode.STANCE_LEFT.value
    assert lift.mode[1] == Mode.FLIGHT.value


@settings(max_examples=40, deadline=None)
@given(clearance=st.floats(0.0, 10.0), speed=st.floats(0.0, 30.0),
       phase=st.floats(0.0, TWO_PI),
       free=st.tuples(*(st.floats(lo, hi) for lo, hi in FREE_PARAM_BOUNDS)))
def test_random_apex_starts_match_oracle(clearance, speed, phase, free):
    params = _apply_free(HEALTHY, np.array(free))
    y = params.L * math.cos(params.clock.touchdown_angle) + clearance
    ic = apex_state(y=y, xdot=speed, clock_phase=phase)
    assert_close_run(simulate_hybrid(params, ic, 2.0),
                    oracle_simulate(params, ic, 2.0))


def test_crash_alone_fits_a_one_event_budget(monkeypatch):
    params, ic, T, dt = GRID["freefall-crash-budget-1"]
    full = simulate_hybrid(params, ic, T, dt)
    monkeypatch.setattr(ctslip, "MAX_EVENTS_PER_STEP", 1)
    one = simulate_hybrid(params, ic, T, dt)
    assert one.crashed
    assert one.events == full.events
    assert [e.kind for e in one.events] == ["crash"]
    assert one.events[0].time == pytest.approx(1.00964, abs=1e-5)


def test_event_budget_failure_matches_oracle(monkeypatch):
    monkeypatch.setattr(ctslip, "MAX_EVENTS_PER_STEP", 1)
    # one touchdown in a step fits a budget of one
    one = simulate_hybrid(HEALTHY, ENSEMBLE[0], 1.0)
    assert [e.kind for e in one.events][:1] == ["touchdown"]
    assert_close_run(one, oracle_simulate(HEALTHY, ENSEMBLE[0], 1.0))
    # a liftoff and a touchdown inside the first step do not
    ic = _two_events_in_one_step(HEALTHY)
    with pytest.raises(RuntimeError, match="event location failed") as want:
        oracle_simulate(HEALTHY, ic, 1.0)
    with pytest.raises(RuntimeError, match="event location failed") as got:
        simulate_hybrid(HEALTHY, ic, 1.0)
    assert str(got.value) == str(want.value)
    assert str(got.value) == ("event location failed: more than 1 events "
                              "inside [0.0, 0.002]")


@pytest.fixture(scope="module")
def reference():
    return build_reference(HEALTHY, ENSEMBLE)


@pytest.mark.parametrize("params", [HEALTHY, DAMAGED],
                         ids=["healthy", "damaged"])
def test_recovery_cost_matches_oracle(params, reference, monkeypatch):
    got = recovery_cost(params, ENSEMBLE, reference)
    monkeypatch.setattr(ctslip, "simulate_hybrid", oracle_simulate)
    assert got == pytest.approx(recovery_cost(params, ENSEMBLE, reference),
                                rel=COST_RTOL, abs=0.0)
