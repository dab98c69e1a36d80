import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regait import ctslip
from regait.ctslip import (APEX_MARGIN, APEX_SPEED, FREE_PARAM_BOUNDS,
                           RECOVERY_SEARCH, BuehlerClock, CrashSignal,
                           CTSlipParams, HybridState, Mode, _liftoff_map,
                           _stance_law, _touchdown_map, apex_state,
                           build_reference, count_completing, energy_outputs,
                           make_ensemble, nominal_ic, phase_features,
                           recover_parameters, recovery_cost, simulate_hybrid)
from regait.integrate import integrate_projected


class TestClock:
    def test_descending_segment(self):
        clk = BuehlerClock()
        psi, rate = clk.signal(0.0, 0)(0.0)
        assert psi == pytest.approx(clk.sweep_angle)
        assert rate == pytest.approx(-2.0 * clk.sweep_angle
                                     / clk.duty_factor * clk.frequency)
        # quarter cycle in: halfway down the sweep
        t_quarter = 0.25 / clk.frequency
        psi, _ = clk.signal(0.0, 0)(t_quarter)
        assert psi == pytest.approx(0.0, abs=1e-12)

    def test_ascending_segment(self):
        clk = BuehlerClock()
        psi, rate = clk.signal(math.pi, 0)(0.0)
        assert psi == pytest.approx(-clk.sweep_angle)
        assert rate == pytest.approx(2.0 * clk.sweep_angle
                                     / (1.0 - clk.duty_factor)
                                     * clk.frequency)

    def test_continuous_at_segment_boundaries(self):
        clk = BuehlerClock(duty_factor=0.37)
        eps = 1e-9
        for s_star in (clk.duty_factor, 1.0):
            t0 = (s_star - eps) / clk.frequency
            t1 = (s_star + eps) / clk.frequency
            a, _ = clk.signal(0.0, 0)(t0)
            b, _ = clk.signal(0.0, 0)(t1)
            assert b == pytest.approx(a, abs=1e-7)

    def test_leg_offset_is_half_cycle(self):
        clk = BuehlerClock()
        for t in (0.0, 0.17, 0.9, 2.3):
            psi1, rate1 = clk.signal(0.4, 1)(t)
            psi0, rate0 = clk.signal(0.4 + math.pi, 0)(t)
            assert psi1 == pytest.approx(psi0, abs=1e-12)
            assert rate1 == rate0

    def test_validation(self):
        with pytest.raises(ValueError, match="duty"):
            BuehlerClock(duty_factor=0.0)
        with pytest.raises(ValueError, match="duty"):
            BuehlerClock(duty_factor=1.0)
        with pytest.raises(ValueError, match="positive"):
            BuehlerClock(sweep_angle=-0.1)
        with pytest.raises(ValueError, match="positive"):
            BuehlerClock(frequency=0.0)
        with pytest.raises(ValueError, match="sweep"):
            BuehlerClock(touchdown_angle=0.5, sweep_angle=0.4)

    @pytest.mark.parametrize("kw", [
        {"frequency": math.nan}, {"frequency": math.inf},
        {"sweep_angle": math.nan}, {"touchdown_angle": math.nan},
        {"duty_factor": math.nan}])
    def test_non_finite_values_rejected(self, kw):
        [name] = kw
        with pytest.raises(ValueError, match=name):
            BuehlerClock(**kw)


@pytest.mark.parametrize("kw", [
    {"K": math.nan}, {"K": math.inf}, {"L": math.inf}, {"L": math.nan},
    {"t_s": math.nan}, {"eta": math.inf}, {"mu": math.nan},
    {"gravity": -math.inf}, {"kp": math.nan}, {"kd": math.inf}])
def test_non_finite_plant_parameters_rejected(kw):
    [name] = kw
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        CTSlipParams(**kw)


class TestStanceTerms:
    # the stance law at zeta, psi, their rates and the clock's (psi_c,
    # psi_c_dot); with no gravity, no hip gain and the leg vertical and not
    # turning, the radial acceleration is the Hill force alone
    def test_spring_force_at_rest(self):
        params = CTSlipParams(K=1.0, L=1.0, gravity=0.0, t_s=0.0)
        zdd, _ = _stance_law(params)(0.9, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert zdd == pytest.approx(0.1)

    def test_force_with_rate_terms(self):
        params = CTSlipParams(K=2.0, L=1.0, eta=-0.1, mu=0.5, gravity=0.0,
                              t_s=0.0)
        # 2*(1-0.8)*(1-0.1*0.3) - 0.5*0.3
        zdd, _ = _stance_law(params)(0.8, 0.0, 0.3, 0.0, 0.0, 0.0)
        assert zdd == pytest.approx(0.238)

    def test_equilibrium(self):
        params = CTSlipParams(gravity=0.0, t_s=0.0)
        zdd, pdd = _stance_law(params)(params.L, 0.37, 0.0, 0.0, 0.4, -1.28)
        assert zdd == pytest.approx(0.0, abs=1e-15)
        assert pdd == pytest.approx(0.0, abs=1e-15)

    def test_gravity_resolved_along_leg(self):
        params = CTSlipParams(t_s=0.0)
        zdd, pdd = _stance_law(params)(params.L, 0.0, 0.0, 0.0, 0.4, -1.28)
        assert zdd == pytest.approx(-params.gravity)
        assert pdd == pytest.approx(0.0)

    def test_collapsed_leg_raises(self):
        params = CTSlipParams()
        with pytest.raises(CrashSignal, match="collapsed"):
            _stance_law(params)(0.0, 0.0, -1.0, 0.0, 0.0, 0.0)


class TestContactMaps:
    def test_round_trip(self):
        params = CTSlipParams()
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, xd, yd = rng.uniform(-5.0, 5.0, 3)
            y = params.L * math.cos(0.2) - rng.uniform(0.0, 1.0)
            u, foot = _touchdown_map(params, 0.31, [x, y, xd, yd],
                                     chi0=0.0, leg=0)
            assert u[0] <= params.L
            back = _liftoff_map(u, foot)
            assert np.allclose(back, [x, y, xd, yd], atol=1e-12)

    def test_touchdown_places_foot_by_clock_angle(self):
        params = CTSlipParams()
        psi_c, _ = params.clock.signal(0.0, 0)(0.0)
        u, foot = _touchdown_map(params, 0.0, [1.0, 60.0, 3.0, -2.0],
                                 chi0=0.0, leg=0)
        assert foot[0] == pytest.approx(1.0 + params.L * math.sin(psi_c))
        assert foot[1] == 0.0
        assert u[1] == pytest.approx(math.atan2(-(1.0 - foot[0]), 60.0))


class TestFlight:
    def test_ballistic_arc_exact(self):
        params = CTSlipParams()
        ic = apex_state(y=90.0, xdot=5.0, clock_phase=0.0)
        res = simulate_hybrid(params, ic, T=0.5, dt=2e-3)
        # apex too high for any touchdown: pure projectile samples
        assert not res.crashed
        assert res.events == []
        g = params.gravity
        assert np.allclose(res.com[:, 0], 5.0 * res.t, atol=1e-9)
        assert np.allclose(res.com[:, 1], 90.0 - 0.5 * g * res.t ** 2,
                           atol=1e-9)
        assert np.all(res.zeta == params.L)
        assert np.all(np.isnan(res.psi))
        assert np.all(res.mode == Mode.FLIGHT.value)

    def test_freefall_crash_truncates(self):
        clk = BuehlerClock(frequency=1e-6)
        params = CTSlipParams(clock=clk)
        # recirculating leg never arms touchdown; the body hits the ground
        ic = apex_state(y=5.0, xdot=0.0, clock_phase=math.pi)
        res = simulate_hybrid(params, ic, T=1.5)
        assert res.crashed
        assert res.events[-1].kind == "crash"
        assert res.strides == 0
        assert len(res.t) < int(round(1.5 / 2e-3)) + 1
        assert res.t[-1] <= math.sqrt(2.0 * 5.0 / params.gravity) + 2e-3

    def test_grazing_touchdown_inside_one_step(self):
        # A fast clock swings leg 0 through the vertical in the middle of the
        # second step while the hip hangs 0.004 below the rest length: the
        # commanded foot is below ground for 1.6 ms of that 2 ms step only.
        clock = BuehlerClock(frequency=8.0)
        params = CTSlipParams(clock=clock)
        dt = 2e-3
        chi0 = 2.0 * math.pi * (0.25 - clock.frequency * 1.5 * dt)
        ic = apex_state(y=params.L * math.cos(0.01), xdot=0.0,
                        clock_phase=chi0)

        def guard(t):
            y = ic.com[1] - 0.5 * params.gravity * t * t
            return y - params.L * math.cos(clock.signal(chi0, 0)(t)[0])

        inside = np.linspace(dt, 2.0 * dt, 201)
        if not (guard(dt) > 0.0 < guard(2.0 * dt)
                and min(map(guard, inside)) < 0.0):
            raise ValueError("the construction no longer grazes one step")
        res = simulate_hybrid(params, ic, T=5 * dt, dt=dt)
        assert [(e.kind, e.leg) for e in res.events][:1] == [("touchdown", 0)]
        assert dt < res.events[0].time < 2.0 * dt

    @settings(max_examples=50, deadline=None)
    @given(clearance=st.floats(0.01, 10.0), speed=st.floats(0.0, 30.0),
           phase=st.floats(0.0, 2.0 * math.pi), duty=st.floats(0.2, 0.8),
           sweep=st.floats(0.1, 0.6), td=st.floats(-0.9, 0.9),
           frequency=st.floats(0.2, 4.0))
    def test_first_event_matches_dense_scan_at_every_dt(
            self, clearance, speed, phase, duty, sweep, td, frequency):
        clock = BuehlerClock(duty_factor=duty, sweep_angle=sweep,
                             touchdown_angle=td * sweep, frequency=frequency)
        params = CTSlipParams(clock=clock)
        ic = apex_state(y=params.L * math.cos(clock.touchdown_angle)
                        + clearance, xdot=speed, clock_phase=phase)
        want = dense_first_event(params, ic, T=5.0)
        for dt in (5e-4, 1e-3, 2e-3, 4e-3):
            res = simulate_hybrid(params, ic, T=5.0, dt=dt)
            got = res.events[0] if res.events else None
            assert (got is None) == (want is None), dt
            if want is not None:
                assert (got.kind, got.leg) == want[:2], dt
                assert got.time == pytest.approx(want[2], abs=1e-9), dt

    def test_span_must_align_with_grid(self):
        params = CTSlipParams()
        with pytest.raises(ValueError, match="integer"):
            simulate_hybrid(params, nominal_ic(params), T=0.0501)

    @pytest.mark.parametrize("T", [-1.0, math.nan, math.inf])
    def test_negative_or_infinite_span_rejected(self, T):
        params = CTSlipParams()
        with pytest.raises(ValueError, match=rf"span \[0.0, {T}\]"):
            simulate_hybrid(params, nominal_ic(params), T=T)

    @pytest.mark.parametrize("T, dt", [
        (-1.0, 1e-3), (math.nan, 1e-3), (math.inf, 1e-3), (0.0501, 1e-3),
        (1.0, 0.0), (1.0, -2e-3), (1.0, math.inf), (1.0, math.nan),
        (1.0, 0.3)])
    def test_span_checks_match_the_integrator(self, T, dt):
        params = CTSlipParams()
        with pytest.raises(ValueError) as hopper:
            simulate_hybrid(params, nominal_ic(params), T=T, dt=dt)
        with pytest.raises(ValueError) as integrator:
            integrate_projected(lambda t, x: [0.0], None, 0.0, [0.0], T, dt,
                                1e-10)
        assert str(hopper.value) == str(integrator.value)

    @pytest.mark.parametrize("kw", [
        {"dt": 0.0}, {"dt": -2e-3}, {"dt": math.inf}, {"dt": math.nan},
        {"dt": -math.inf}])
    def test_step_and_tolerance_must_be_finite_positive(self, monkeypatch,
                                                        kw):
        def no_advance(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(ctslip, "_flight_advance", no_advance)
        monkeypatch.setattr(ctslip, "_stance_advance", no_advance)
        params = CTSlipParams()
        ensemble = [nominal_ic(params)]
        for run in (lambda: simulate_hybrid(params, ensemble[0], 1.0, **kw),
                    lambda: build_reference(params, ensemble, **kw),
                    lambda: count_completing(params, ensemble, **kw)):
            with pytest.raises(ValueError,
                               match="dt must be finite and positive"):
                run()

    def test_stance_start_requires_anchor(self):
        params = CTSlipParams()
        ic = HybridState(mode=Mode.STANCE_LEFT, com=(0.0, 70.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="anchor"):
            simulate_hybrid(params, ic, T=0.1)

    def test_stance_start_foot_on_ground(self):
        # every touchdown puts the foot at y = 0; a raised foot would shift
        # every reported height by its own
        params = CTSlipParams()
        psi0, zeta0 = 0.25, 0.99 * params.L
        ic = HybridState(mode=Mode.STANCE_LEFT,
                         com=(-zeta0 * math.sin(psi0),
                              5.0 + zeta0 * math.cos(psi0), 6.0, -8.0),
                         foot=(0.0, 5.0))
        with pytest.raises(ValueError, match="foot height 5.0"):
            simulate_hybrid(params, ic, T=0.1)

    @pytest.mark.parametrize("ic", [
        apex_state(y=math.nan, xdot=APEX_SPEED),
        apex_state(y=70.0, xdot=math.inf),
        apex_state(y=70.0, xdot=APEX_SPEED, clock_phase=math.nan),
        HybridState(mode=Mode.STANCE_LEFT, com=(0.0, 70.0, 0.0, 0.0),
                    foot=(math.nan, 0.0))])
    def test_non_finite_start_rejected(self, monkeypatch, ic):
        # a NaN guard value rules out no interval, so the event search
        # would bisect every one of them down to BISECT_TOL; fail fast
        calls, first_fall = [], ctslip._first_fall

        def capped(*args):
            calls.append(args)
            assert len(calls) < 1000, "event search did not stop"
            return first_fall(*args)

        monkeypatch.setattr(ctslip, "_first_fall", capped)
        with pytest.raises(ValueError, match="not finite"):
            simulate_hybrid(CTSlipParams(), ic, T=0.1)

    @pytest.mark.parametrize("y", [0.0, -5.0])
    def test_flight_start_above_ground(self, y):
        # the floor crash is a fall of y to 0, which a start at or below
        # the ground never makes
        with pytest.raises(ValueError, match=f"y={y} is not above"):
            simulate_hybrid(CTSlipParams(), apex_state(y=y, xdot=APEX_SPEED),
                            T=1.0)

    def test_stance_start_hip_off_the_foot(self):
        ic = HybridState(mode=Mode.STANCE_LEFT, com=(0.0, 0.0, 6.0, -8.0),
                         foot=(0.0, 0.0))
        with pytest.raises(ValueError, match="y=0.0 is not above 0"):
            simulate_hybrid(CTSlipParams(), ic, T=0.1)

    def test_stance_start_leg_within_rest_length(self):
        params = CTSlipParams()
        ic = HybridState(mode=Mode.STANCE_LEFT,
                         com=(0.0, 2.0 * params.L, 0.0, 0.0),
                         foot=(0.0, 0.0))
        with pytest.raises(ValueError, match="longer"):
            simulate_hybrid(params, ic, T=0.1)


class TestFirstFall:
    """``_first_fall`` on guards whose crossings are known in closed
    form."""

    def test_bisects_a_falling_line_with_bound_zero(self):
        hit = ctslip._first_fall(lambda t: 0.3 - t, 0.0, 1.0, 0.3, -0.7, 0.0)
        assert abs(hit - 0.3) <= ctslip.BISECT_TOL

    @pytest.mark.parametrize("guard, a, b, bound", [
        (lambda t: 1.0 + t * t, -1.0, 1.0, 2.0),   # never reaches zero
        (lambda t: t - 0.5, 0.0, 1.0, 0.0),         # rises through zero
        (lambda t: t - 0.5, 0.0, 1.0, 1.0),
    ])
    def test_none_if_the_guard_never_falls(self, guard, a, b, bound):
        assert ctslip._first_fall(guard, a, b, guard(a), guard(b),
                                  bound) is None

    @pytest.mark.parametrize("depth", [0.5, 1e-5])
    def test_first_of_two_dips_between_positive_ends(self, depth):
        # cos(omega*(t - c)) + 1 - depth dips below zero around t = c + 0.5
        # and c + 1.5; |guard''| <= omega**2
        omega, c = 2.0 * math.pi, 1e-3

        def guard(t):
            return math.cos(omega * (t - c)) + 1.0 - depth

        a, b = 0.0, 2.0
        assert guard(a) > 0.0 and guard(b) > 0.0
        hit = ctslip._first_fall(guard, a, b, guard(a), guard(b),
                                 omega * omega)
        first = c + (math.pi - math.acos(1.0 - depth)) / omega
        assert abs(hit - first) <= 2.0 * ctslip.BISECT_TOL
        if depth < 1e-3:
            # the dip is narrower than a grid step and falls between grid
            # points, so no grid sample sees it
            assert 2.0 * (c + 0.5 - first) < ctslip.SIM_DT
            grid = np.arange(0.0, b + 0.5 * ctslip.SIM_DT, ctslip.SIM_DT)
            assert min(guard(t) for t in grid) > 0.0


def _bisect(f, lo, hi):
    """The time in (lo, hi] at which f, > 0 at lo and <= 0 at hi, turns
    <= 0, to 1e-13."""
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    return hi


def dense_first_event(params, ic, T, h=2e-5):
    """(kind, leg, time) of the first event of a flight from the apex start
    ``ic``, or None before T, by scanning the closed-form guards at spacing
    h: the height for the floor crash, y - L*cos(psi_c) for each leg's
    touchdown, fired at its first fall from > 0 to <= 0 at which the leg is
    armed (descending clock, psi_c <= touchdown_angle + 1e-12, ydot < 0)."""
    clock, L, g = params.clock, params.L, params.gravity
    _, y0, _, yd0 = ic.com
    ts = np.linspace(0.0, T, int(round(T / h)) + 1)

    def height(t):
        return y0 + yd0 * t - 0.5 * g * t * t

    def falls(values):
        return np.flatnonzero((values[:-1] > 0.0) & (values[1:] <= 0.0))

    found = [(_bisect(height, ts[i], ts[i + 1]), "crash", None)
             for i in falls(height(ts))[:1]]
    duty, sweep = clock.duty_factor, clock.sweep_angle
    for leg in (0, 1):
        signal = clock.signal(ic.clock_phase, leg)

        def fraction(t, leg=leg):   # the leg's clock cycle fraction at t
            return ((ic.clock_phase + 2.0 * math.pi * clock.frequency * t
                     + leg * math.pi) / (2.0 * math.pi)) % 1.0

        s = fraction(ts)
        psi = np.where(s < duty, sweep * (1.0 - 2.0 * s / duty),
                       sweep * (2.0 * (s - duty) / (1.0 - duty) - 1.0))
        for i in falls(height(ts) - L * np.cos(psi)):
            t = _bisect(lambda t: height(t) - L * math.cos(signal(t)[0]),
                        ts[i], ts[i + 1])
            if (fraction(t) < duty   # the clock descends
                    and signal(t)[0] <= clock.touchdown_angle + 1e-12
                    and yd0 - g * t < 0.0):
                found.append((t, "touchdown", leg))
                break
    if not found:
        return None
    t, kind, leg = min(found, key=lambda e: e[0])
    return kind, leg, t


def stance_drop_ic(params, psi0=0.25):
    com = (-params.L * math.sin(psi0), params.L * math.cos(psi0), 6.0, -8.0)
    return HybridState(mode=Mode.STANCE_LEFT, com=com, foot=(0.0, 0.0))


class TestConservation:
    def stance_block(self, res):
        idx = np.flatnonzero(res.mode == Mode.STANCE_LEFT.value)
        stop = np.flatnonzero(np.diff(idx) > 1)
        if stop.size:
            idx = idx[:stop[0] + 1]
        assert len(idx) > 100
        return idx

    def test_energy_conserved_without_losses(self):
        params = CTSlipParams(mu=0.0, eta=0.0, t_s=0.0)
        res = simulate_hybrid(params, stance_drop_ic(params), T=0.6, dt=2e-4)
        idx = self.stance_block(res)
        v2 = res.com[idx, 2] ** 2 + res.com[idx, 3] ** 2
        spring = 0.5 * params.K * (params.L - res.zeta[idx]) ** 2
        total = 0.5 * v2 + params.gravity * res.com[idx, 1] + spring
        assert np.ptp(total) < 1e-6

    def test_angular_momentum_conserved_without_torques(self):
        params = CTSlipParams(mu=0.0, eta=0.0, t_s=0.0, gravity=0.0)
        res = simulate_hybrid(params, stance_drop_ic(params), T=0.6, dt=2e-4)
        idx = self.stance_block(res)
        ell = (res.com[idx, 0] * res.com[idx, 3]
               - res.com[idx, 1] * res.com[idx, 2])
        assert np.ptp(ell) < 1e-6

    def test_outputs_definitions(self):
        params = CTSlipParams()
        res = simulate_hybrid(params, nominal_ic(params), T=1.0)
        E, E_T = energy_outputs(params, res)
        flight = res.mode == Mode.FLIGHT.value
        assert np.all(E[flight] == 0.0)
        v2 = res.com[:, 2] ** 2 + res.com[:, 3] ** 2
        assert np.allclose(E_T, 0.5 * v2 + params.gravity * res.com[:, 1])
        assert np.array_equal(phase_features(res), res.com[:, [1, 3]])


class TestEnsemble:
    def test_nominal_start_height(self):
        params = CTSlipParams()
        ic = nominal_ic(params)
        td_y = params.L * math.cos(params.clock.touchdown_angle)
        assert ic.com[1] == pytest.approx(td_y + APEX_MARGIN)
        assert ic.com[2] == APEX_SPEED
        assert ic.mode is Mode.FLIGHT

    def test_deterministic_and_bounded(self):
        params = CTSlipParams()
        a = make_ensemble(params, n=10, seed=0)
        b = make_ensemble(params, n=10, seed=0)
        c = make_ensemble(params, n=10, seed=1)
        assert [m.com for m in a] == [m.com for m in b]
        assert [m.com for m in a] != [m.com for m in c]
        td_y = params.L * math.cos(params.clock.touchdown_angle)
        base = nominal_ic(params)
        clearance = base.com[1] - td_y
        for m in a:
            assert m.mode is Mode.FLIGHT
            assert td_y + 0.8 * clearance <= m.com[1] <= td_y + 1.2 * clearance
            assert 0.95 * APEX_SPEED <= m.com[2] <= 1.05 * APEX_SPEED
            assert m.clock_phase == base.clock_phase


@pytest.fixture(scope="module")
def nominal_params():
    return CTSlipParams()


@pytest.fixture(scope="module")
def ensemble(nominal_params):
    return make_ensemble(nominal_params)


@pytest.fixture(scope="module")
def reference(nominal_params, ensemble):
    return build_reference(nominal_params, ensemble)


class TestNominalReference:
    def test_nominal_hops_steadily(self, nominal_params):
        res = simulate_hybrid(nominal_params, nominal_ic(nominal_params),
                              T=12.0)
        assert not res.crashed
        assert res.strides >= 10

    def test_reference_scores_itself(self, nominal_params, ensemble,
                                     reference):
        assert reference.self_cost > 0.0
        assert reference.crash_penalty > reference.self_cost
        cost = recovery_cost(nominal_params, ensemble, reference)
        assert cost == pytest.approx(reference.self_cost, rel=1e-9)

    def test_all_crash_candidate_scores_penalty(self, nominal_params,
                                                ensemble, reference):
        bad = replace(nominal_params, gravity=500.0)
        cost = recovery_cost(bad, ensemble, reference)
        n = len(ensemble)
        assert cost == pytest.approx(reference.crash_penalty * n, rel=1e-12)

    def test_damaged_plant_scores_worse(self, nominal_params, ensemble,
                                        reference):
        damaged = replace(nominal_params, t_s=0.02)
        assert (recovery_cost(damaged, ensemble, reference)
                > 10.0 * reference.self_cost)

    def test_crashing_nominal_rejected(self, ensemble):
        with pytest.raises(ValueError, match="crashed"):
            build_reference(CTSlipParams(gravity=500.0), ensemble)


@pytest.fixture(scope="module")
def fine_runs(nominal_params, ensemble):
    """Healthy members 0-2 over 12 s at dt 1e-4, the converged reference."""
    return [simulate_hybrid(nominal_params, ic, 12.0, 1e-4)
            for ic in ensemble[:3]]


class TestConvergence:
    # kink-exact stance steps are fourth-order accurate: the error in x at
    # 12 s against dt 1e-4 measured 6.5e-5 / 4.4e-6 / 2.9e-7 (member 0),
    # 4.8e-5 / 3.3e-6 / 2.1e-7 (member 1) and 4.1e-5 / 5.4e-6 / 1.5e-7
    # (member 2) at dt 8e-3 / 4e-3 / 2e-3
    BOUNDS = {8e-3: 1e-4, 4e-3: 1e-5, 2e-3: 1e-6}

    def test_x_error_falls_at_fourth_order(self, nominal_params, ensemble,
                                           fine_runs):
        for ic, fine in zip(ensemble, fine_runs):
            err = {dt: abs(simulate_hybrid(nominal_params, ic, 12.0, dt)
                           .com[-1, 0] - fine.com[-1, 0])
                   for dt in self.BOUNDS}
            assert all(err[dt] < bound for dt, bound in self.BOUNDS.items())
            # halving dt twice divides a fourth-order error by 256
            order = math.log(err[8e-3] / err[2e-3]) / math.log(4.0)
            assert order > 3.5, err

    def test_member_2_events_do_not_depend_on_dt(self, nominal_params,
                                                 ensemble, fine_runs):
        want = [(e.kind, e.leg) for e in fine_runs[2].events]
        assert len(want) == 22
        for dt in (5e-4, 1e-3, 2e-3, 4e-3, 8e-3):
            res = simulate_hybrid(nominal_params, ensemble[2], 12.0, dt)
            assert [(e.kind, e.leg) for e in res.events] == want, dt

    def test_ensemble_stances_all_hold_the_leg(self, nominal_params,
                                               ensemble):
        # no healthy or damaged member run has an empty stance, so every
        # liftoff is a stride
        for params in (nominal_params, replace(nominal_params, t_s=0.02)):
            for ic in ensemble:
                res = simulate_hybrid(params, ic, 12.0)
                lifts = sum(1 for e in res.events if e.kind == "liftoff")
                assert res.strides == lifts


class TestRecoverParameters:
    def test_search_respects_frozen_gain(self, nominal_params, ensemble):
        # a short search scores T = 3 runs against a T = 3 reference
        reference = build_reference(nominal_params, ensemble[:3], T=3.0)
        damaged = replace(nominal_params, t_s=0.02)
        tuned, trace = recover_parameters(
            damaged, reference, ensemble[:3],
            nm_config=replace(RECOVERY_SEARCH, max_iters=2))
        assert tuned.t_s == damaged.t_s
        assert np.array_equal(
            trace.candidates[0],
            [damaged.K, damaged.L, damaged.mu, damaged.eta,
             damaged.clock.frequency])
        best = np.asarray(trace.best_so_far)
        assert np.all(np.diff(best) <= 0.0)
        assert best[-1] <= trace.costs[0]
        lo = np.array([b[0] for b in FREE_PARAM_BOUNDS])
        hi = np.array([b[1] for b in FREE_PARAM_BOUNDS])
        for x in trace.candidates:
            assert np.all(x >= lo) and np.all(x <= hi)

    def test_completion_counter(self, nominal_params):
        ens = make_ensemble(nominal_params, n=2)
        assert count_completing(nominal_params, ens, strides=3, T=4.0) == 2
        dead = replace(nominal_params, gravity=500.0)
        assert count_completing(dead, ens, strides=3, T=4.0) == 0
