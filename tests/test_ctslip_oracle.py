"""Bit-exact reference for the hybrid hopper simulator.

``oracle_simulate`` is a direct, unoptimised transcription of the hybrid
integration: a generic list-based RK4, field closures and a guard table built
afresh on every step, and the clock and stance laws evaluated straight from
the parameters. ``simulate_hybrid`` builds the same work once per run; it
must reproduce every sample, event and flag of this reference exactly.
"""
import math
from dataclasses import replace
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regait import ctslip
from regait.ctslip import (FREE_PARAM_BOUNDS, FREE_PARAM_STEPS,
                           BuehlerClock, CrashSignal,
                           CTSlipParams, Event, HybridState, Mode, SimConfig,
                           SimResult, _apply_free, apex_state,
                           build_reference, make_ensemble, nominal_ic,
                           recovery_cost, simulate_hybrid)

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


def _stance_field(params, chi0, leg):
    def f(t, u):
        zdd, pdd = _stance_dynamics(params, u[0], u[1], u[2], u[3], t,
                                    chi0=chi0, leg=leg)
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


def _first_event(field, guards, ta, ua, tb, ub, cfg):
    hits = []
    for kind, leg, value, armed in guards:
        va, vb = value(ta, ua), value(tb, ub)
        if not (va > 0.0 >= vb):
            continue
        if armed is not None and not armed(tb, ub):
            continue
        lo, hi = ta, tb
        u_hi = ub
        while hi - lo > cfg.bisect_tol:
            mid = 0.5 * (lo + hi)
            um = _rk4(field, ta, ua, mid - ta)
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
        if h[0] - best_t <= cfg.bisect_tol and h[2] == "crash":
            return h
    return hits[0]


def _sample(params, mode, u, foot):
    if mode is Mode.FLIGHT:
        return [u[0], u[1], u[2], u[3], params.L, math.nan, mode.value]
    com = _liftoff_map(u, foot)
    return [com[0], com[1], com[2], com[3], u[0], u[1], mode.value]


def oracle_simulate(params, ic, T, cfg=None):
    cfg = cfg if cfg is not None else SimConfig()
    dt = cfg.dt
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

    times = [0.0]
    samples = [_sample(params, mode, u, foot)]
    events = []
    crashed = False
    legs = {Mode.STANCE_LEFT: 0, Mode.STANCE_RIGHT: 1}

    for k in range(nsteps):
        ta, tb = k * dt, (k + 1) * dt
        for _ in range(cfg.max_events_per_step):
            leg = legs.get(mode, 0)
            fld = (_flight_field(params) if mode is Mode.FLIGHT
                   else _stance_field(params, chi0, leg))
            try:
                u_end = _rk4(fld, ta, u, tb - ta)
                hit = _first_event(fld, _guards(params, mode, chi0),
                                   ta, u, tb, u_end, cfg)
            except CrashSignal:
                hit = (ta, 0, "crash", None, u)
            if hit is None:
                u = u_end
                break
            t_ev, _, kind, ev_leg, u_ev = hit
            events.append(Event(kind=kind, time=t_ev, leg=ev_leg))
            if kind == "crash":
                mode, u = Mode.CRASHED, u_ev
                break
            if kind == "touchdown":
                u, foot = _touchdown_map(params, t_ev, u_ev, chi0, ev_leg)
                mode = Mode.STANCE_LEFT if ev_leg == 0 else Mode.STANCE_RIGHT
            else:  # liftoff
                u = _liftoff_map(u_ev, foot)
                mode, foot = Mode.FLIGHT, None
            ta = t_ev
            if tb - ta <= cfg.bisect_tol:
                break
        else:
            raise RuntimeError(
                f"event location failed: more than {cfg.max_events_per_step} "
                f"events inside [{ta}, {tb}]")
        if mode is Mode.CRASHED:
            crashed = True
            break
        times.append(tb)
        samples.append(_sample(params, mode, u, foot))

    arr = np.asarray(samples)
    return SimResult(params=params, t=np.asarray(times), com=arr[:, :4],
                     zeta=arr[:, 4], psi=arr[:, 5], mode=arr[:, 6].astype(int),
                     events=events, crashed=crashed)


def assert_same_run(got, want):
    assert got.crashed == want.crashed
    assert got.events == want.events
    assert np.array_equal(got.t, want.t)
    assert np.array_equal(got.com, want.com)
    assert np.array_equal(got.zeta, want.zeta)
    assert np.array_equal(got.psi, want.psi, equal_nan=True)
    assert np.array_equal(got.mode, want.mode)


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


ENSEMBLE = make_ensemble(HEALTHY)
FREEFALL = CTSlipParams(clock=BuehlerClock(frequency=1e-6))

# (params, initial condition, span, config)
GRID = {
    "healthy": (HEALTHY, ENSEMBLE[3], 12.0, None),
    "healthy-nominal": (HEALTHY, nominal_ic(HEALTHY), 12.0, None),
    "damaged": (DAMAGED, ENSEMBLE[0], 12.0, None),
    "simplex-K": (_simplex_vertex(0), ENSEMBLE[1], 12.0, None),
    "simplex-L": (_simplex_vertex(1), ENSEMBLE[2], 12.0, None),
    "simplex-frequency": (_simplex_vertex(4), ENSEMBLE[4], 12.0, None),
    "gravity-500": (replace(HEALTHY, gravity=500.0), ENSEMBLE[0], 12.0, None),
    "freefall-crash": (FREEFALL, apex_state(y=5.0, xdot=0.0,
                                            clock_phase=math.pi), 1.5, None),
    # a crash ends its step at once, even on a budget of one event
    "freefall-crash-budget-1": (FREEFALL, apex_state(y=5.0, xdot=0.0,
                                                     clock_phase=math.pi),
                                1.5, SimConfig(max_events_per_step=1)),
    "stance-drop": (HEALTHY, _stance_drop(HEALTHY), 4.0, None),
    # the leg passes through zero inside one Runge-Kutta stage
    "leg-collapse": (HEALTHY, HybridState(mode=Mode.STANCE_RIGHT,
                                          com=(0.0, 0.5, 0.0, -1000.0),
                                          foot=(0.0, 0.0)), 1.0, None),
    "fine-dt": (HEALTHY, ENSEMBLE[5], 3.0, SimConfig(dt=2e-4)),
    # the span ends in the flight after a liftoff
    "span-ends-in-flight": (HEALTHY, ENSEMBLE[6], 1.9, None),
    # flights longer than half a clock cycle that end in touchdowns
    "long-flight": (HEALTHY, apex_state(y=HEALTHY.L * math.cos(0.3) + 6.0,
                                        xdot=22.0, clock_phase=0.55 * TWO_PI),
                    4.0, None),
    # the first flight starts after a liftoff inside the first step
    "liftoff-first-step": (HEALTHY, _stance_liftoff(HEALTHY), 2.0, None),
    # stance steps after the first one run as a block until an exit:
    # the span ends in stance
    "stance-span-end": (HEALTHY, _stance_drop(HEALTHY), 0.05, None),
    # the leg lifts off after a few dozen steps
    "stance-liftoff": (HEALTHY, _stance_liftoff(HEALTHY, gap=0.5), 0.5, None),
    # a stage of the seventh step drives the leg through zero
    "stance-collapse": (HEALTHY, _stance_start(5.0, 0.0, -500.0, 0.0), 0.2,
                        None),
    # the leg tips over to the horizontal: zeta*cos(psi) reaches zero
    "stance-tip-over": (HEALTHY, _stance_start(40.0, 1.2, 0.0, 5.0), 0.5,
                        None),
    # with a weak spring and no hip torque the leg compresses slowly
    # through the floor length 1e-3 L, ending a step above zero
    "stance-floor": (replace(HEALTHY, K=1e-3, t_s=0.0),
                     _stance_start(1.0, 0.0, -5.0, 0.0), 0.5, None),
}


@pytest.mark.parametrize("case", sorted(GRID))
def test_simulate_hybrid_matches_oracle(case):
    params, ic, T, cfg = GRID[case]
    want = oracle_simulate(params, ic, T, cfg)
    assert_same_run(simulate_hybrid(params, ic, T, cfg), want)


def test_grid_covers_every_outcome():
    runs = {case: oracle_simulate(*GRID[case]) for case in GRID}
    kinds = {e.kind for r in runs.values() for e in r.events}
    assert kinds == {"touchdown", "liftoff", "crash"}
    assert runs["healthy"].strides >= 10
    assert runs["damaged"].crashed and runs["damaged"].strides >= 2
    assert runs["freefall-crash"].crashed
    assert runs["leg-collapse"].events == [Event("crash", 0.0)]
    assert runs["stance-drop"].mode[0] == Mode.STANCE_LEFT.value

    dt = SimConfig().dt
    stance = Mode.STANCE_LEFT.value
    end = runs["stance-span-end"]
    assert not end.events and len(end.t) == 26
    assert (end.mode == stance).all()
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
    assert lift.events[0].time < SimConfig().dt
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
    assert_same_run(simulate_hybrid(params, ic, 2.0),
                    oracle_simulate(params, ic, 2.0))


def test_crash_alone_fits_a_one_event_budget():
    params, ic, T, cfg = GRID["freefall-crash-budget-1"]
    one = simulate_hybrid(params, ic, T, cfg)
    assert one.crashed
    assert one.events == simulate_hybrid(params, ic, T).events
    assert [e.kind for e in one.events] == ["crash"]
    assert one.events[0].time == pytest.approx(1.00964, abs=1e-5)


def test_event_budget_failure_matches_oracle():
    cfg = SimConfig(max_events_per_step=1)
    ic = ENSEMBLE[0]
    with pytest.raises(RuntimeError, match="event location failed") as want:
        oracle_simulate(HEALTHY, ic, 1.0, cfg)
    with pytest.raises(RuntimeError, match="event location failed") as got:
        simulate_hybrid(HEALTHY, ic, 1.0, cfg)
    assert str(got.value) == str(want.value)


@pytest.fixture(scope="module")
def reference():
    return build_reference(HEALTHY, ENSEMBLE)


@pytest.mark.parametrize("params", [HEALTHY, DAMAGED],
                         ids=["healthy", "damaged"])
def test_recovery_cost_matches_oracle(params, reference, monkeypatch):
    got = recovery_cost(params, ENSEMBLE, reference)
    monkeypatch.setattr(ctslip, "simulate_hybrid", oracle_simulate)
    assert got == recovery_cost(params, ENSEMBLE, reference)
