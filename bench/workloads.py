"""The three recovery workloads, their inputs and their output checks.

A workload has a set-up (building the healthy reference the recovery starts
from), a round (the same operations every time, timed one by one through an
``OpLog``), a check of one round's outputs and an equality test between two
rounds' outputs. Every input comes from the seed; seed 0 reproduces the
acceptance suite's inputs.

The checks recompute what they compare from the outputs, with the
benchmark's own forward kinematics and completion count, or test a property
the method must have. None compares with a stored copy of earlier output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from regait import constraints, crawler, ctslip, encoding, integrate
from regait import optimize, signals

JAMS = (1, 2, 4, 5, 6)          # jam 3 does not meet the template claim
START_SPREAD = 1e-4            # gait-repair start, per coordinate
REPAIR_BOUND = 1.0
REPAIR_ITERS = 10
REPAIR_TARGET = 0.6             # final best <= 0.6 x initial cost
FAILURE_PENALTY = 1e6
HOPPER_ITERS = 10
HOPPER_T = 12.0                 # recover_parameters' default span
DAMAGED_TS = 0.02
STRIDES = 10
TOL_TEMPLATE = 1e-6
TOL_CONSTRAINT = 1e-9


class OpLog:
    """Duration of every operation and whether it failed."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0

    def log(self, seconds: float, failed: bool) -> None:
        self.times.append(seconds)
        self.failed += bool(failed)

    def timed(self, fn, failed):
        """``fn`` wrapped so that each call is logged as one operation."""
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.log(time.perf_counter() - t0, failed(out))
            return out

        return call


@dataclass(frozen=True)
class Workload:
    setup: object       # seed -> state
    round: object       # (state, OpLog) -> outputs
    check: object       # (state, outputs) -> (problems, facts)
    same: object        # (outputs, outputs) -> bool
    target: object      # (state, search costs) -> cost a search must reach
                        # (None: the workload runs no search)


def _rms(a) -> float:
    return float(np.sqrt(np.mean(np.square(a))))


# ------------------------------------------------------- crawler kinematics

def _fk(params, X):
    """(r, alpha, worst foot distance from its anchor) per state row."""
    X = np.asarray(X, dtype=float)

    def foot(h, angles):
        return h + np.exp(1j * np.cumsum(angles, axis=1)).sum(axis=1)

    p1, p2 = foot(params.h1, X[:, 3:6]), foot(params.h2, X[:, 6:9])
    mid = 0.5 * (p1 + p2)
    body = X[:, 0] + 1j * X[:, 1]
    turn = np.exp(1j * X[:, 2])
    feet = np.maximum(np.abs(body + turn * p1 - params.l1),
                      np.abs(body + turn * p2 - params.l2))
    return np.abs(mid), np.angle(mid), feet


# ---------------------------------------------------------- crawler-recover

def _crawler_setup(seed):
    params = crawler.CrawlerParams()
    gait = crawler.reference_gait(params)
    full = gait.full_grid()
    emap = crawler.template_encoding_map(params)
    phase = signals.PhaseEstimator.fit(crawler.shape_features(full.x))
    encoding.learn_constraints(emap, crawler.TEMPLATE_FORMS, full, phase,
                               order=4, phase_features=crawler.shape_features)
    rng = np.random.default_rng(seed)
    jams = [int(j) for j in rng.permutation(JAMS)] if seed else JAMS
    return SimpleNamespace(params=params, gait=gait, jams=jams)


def _crawler_round(st, ops):
    out = {}
    for jam in st.jams:
        t0 = time.perf_counter()
        try:
            out[jam] = crawler.recover(st.params, st.gait, jam).trajectory
        except integrate.IntegrationError:
            pass
        ops.log(time.perf_counter() - t0, failed=jam not in out)
    return out


def _crawler_check(st, out):
    problems = []
    worst = {"rms_r": 0.0, "rms_alpha": 0.0, "feet": 0.0, "jam_drift": 0.0}
    gait = st.gait
    r0, a0, _ = _fk(st.params, gait.x[::2])
    for jam, traj in out.items():
        if not np.array_equal(traj.t, gait.t[::2]):
            problems.append(f"jam {jam}: time grid differs from the reference")
            continue
        r, a, feet = _fk(st.params, traj.x)
        err_r = _rms(r - r0)
        err_a = _rms((a - a0 + np.pi) % (2.0 * np.pi) - np.pi)
        col = crawler.G_DIM - 1 + jam
        drift = float(np.abs(traj.x[:, col] - traj.x[0, col]).max())
        for key, value in (("rms_r", err_r), ("rms_alpha", err_a),
                           ("feet", float(feet.max())), ("jam_drift", drift)):
            worst[key] = max(worst[key], value)
        if not err_r < TOL_TEMPLATE or not err_a < TOL_TEMPLATE:
            problems.append(f"jam {jam}: template rms r {err_r:.1e} "
                            f"alpha {err_a:.1e}")
        if not feet.max() < TOL_CONSTRAINT:
            problems.append(f"jam {jam}: feet off by {feet.max():.1e}")
        if not drift < TOL_CONSTRAINT:
            problems.append(f"jam {jam}: jammed joint moved {drift:.1e}")
    return problems, worst


def _crawler_same(a, b):
    return a.keys() == b.keys() and all(
        np.array_equal(a[k].x, b[k].x) for k in a)


# -------------------------------------------------------------- gait-repair

def _repair_setup(seed):
    params = crawler.CrawlerParams()
    gait = crawler.reference_gait(params)
    stack = crawler.crawler_stack(params, gait, jam=1)
    provider = crawler.gait_perturbation_provider(params, gait, jam=1,
                                                  stride=4)
    cost = optimize.constraint_violation_cost(
        stack, provider, classes=(constraints.Priority.DESIGNED,),
        failure_penalty=FAILURE_PENALTY)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-START_SPREAD, START_SPREAD, 5) if seed else np.zeros(5)
    nm = optimize.NMConfig(initial_step=0.05, max_iters=REPAIR_ITERS,
                           bounds=[(-REPAIR_BOUND, REPAIR_BOUND)] * 5)
    return SimpleNamespace(cost=cost, x0=x0, nm=nm)


def _repair_round(st, ops):
    cost = ops.timed(st.cost, failed=lambda c: c >= FAILURE_PENALTY)
    _, trace = optimize.nelder_mead(cost, st.x0, st.nm)
    return trace


def _search_problems(trace):
    if np.any(np.diff(trace.best_so_far) > 0.0):
        return ["best-so-far is not monotone"]
    return []


def _repair_check(st, trace):
    problems = _search_problems(trace)
    if np.any(np.abs(np.asarray(trace.candidates)) > REPAIR_BOUND):
        problems.append("a candidate left the bounds")
    initial, final = trace.costs[0], trace.best_so_far[-1]
    if not final <= REPAIR_TARGET * initial:
        problems.append(f"cost {initial:.4g} -> {final:.4g} is not a "
                        f"{1 - REPAIR_TARGET:.0%} cut")
    return problems, {"initial_cost": initial, "final_cost": final,
                      "attempts": len(trace.costs)}


def _same_search(a, b):
    return a.costs == b.costs and all(
        np.array_equal(x, y) for x, y in zip(a.candidates, b.candidates))


# ----------------------------------------------------------- hopper-recover

def _hopper_setup(seed):
    params = ctslip.CTSlipParams()
    ensemble = ctslip.make_ensemble(params, seed=0)
    if seed:
        # member 0 trains the reference; the seed orders the others
        rng = np.random.default_rng(seed)
        order = [0] + [1 + int(i) for i in rng.permutation(9)]
        ensemble = [ensemble[i] for i in order]
    reference = ctslip.build_reference(params, ensemble)
    nm = optimize.NMConfig(initial_step=np.asarray(ctslip.FREE_PARAM_STEPS),
                           max_iters=HOPPER_ITERS,
                           bounds=ctslip.FREE_PARAM_BOUNDS,
                           f_tol=0.0, x_tol=0.0)
    return SimpleNamespace(ensemble=ensemble, reference=reference, nm=nm,
                           damaged=replace(params, t_s=DAMAGED_TS))


def _hopper_round(st, ops):
    # recover_parameters calls recovery_cost by its module name
    inner = ctslip.recovery_cost
    ctslip.recovery_cost = ops.timed(inner,
                                     failed=lambda c: not math.isfinite(c))
    try:
        return ctslip.recover_parameters(st.damaged, st.reference,
                                         st.ensemble, nm_config=st.nm)
    finally:
        ctslip.recovery_cost = inner


def _completing(params, ensemble) -> int:
    done = 0
    for ic in ensemble:
        res = ctslip.simulate_hybrid(params, ic, HOPPER_T)
        lifts = sum(1 for e in res.events if e.kind == "liftoff")
        done += lifts >= STRIDES and not res.crashed
    return done


def _hopper_check(st, out):
    recovered, trace = out
    problems = _search_problems(trace)
    n_damaged = _completing(st.damaged, st.ensemble)
    n_recovered = _completing(recovered, st.ensemble)
    if not n_recovered > n_damaged:
        problems.append(f"completing: damaged {n_damaged} -> recovered "
                        f"{n_recovered}")
    if not trace.best_so_far[-1] < trace.costs[0]:
        problems.append("the search did not lower the cost")
    if recovered.t_s != st.damaged.t_s:
        problems.append(f"t_s moved to {recovered.t_s}")
    return problems, {"completing_damaged": n_damaged,
                      "completing_recovered": n_recovered,
                      "initial_cost": trace.costs[0],
                      "final_cost": trace.best_so_far[-1],
                      "healthy_self_cost": st.reference.self_cost,
                      "attempts": len(trace.costs)}


def _hopper_same(a, b):
    return a[0] == b[0] and _same_search(a[1], b[1])


WORKLOADS = {
    "crawler-recover": Workload(
        _crawler_setup, _crawler_round, _crawler_check, _crawler_same,
        target=None),
    "gait-repair": Workload(
        _repair_setup, _repair_round, _repair_check, _same_search,
        target=lambda st, costs: REPAIR_TARGET * costs[0]),
    "hopper-recover": Workload(
        _hopper_setup, _hopper_round, _hopper_check, _hopper_same,
        target=lambda st, costs: st.reference.self_cost),
}
