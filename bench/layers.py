"""Per-layer metrics of the traced run, named after the package's modules.

``install`` wraps the public functions each metric reads; ``metrics`` turns
the recorded spans into numbers. Counts (``.calls``, steps, events,
attempts) are per round and per-call times (``.us``, ``.ms``, ``self_us``)
are means, both over the measured rounds only. The three set-up metrics
(``.s``) are medians over the set-up calls. A layer that does no work on a
workload reports 0.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer

# name, unit, better; the order is the order of BENCHMARK.json
PER_LAYER = (
    ("crawler.reference_gait.s", "s", "lower"),
    ("crawler.recover.ms", "ms", "lower"),
    ("crawler.field.calls", "count", "lower"),
    ("crawler.field.us", "us", "lower"),
    ("crawler.rollout.ms", "ms", "lower"),
    ("integrate.step.calls", "count", "lower"),
    ("integrate.step.self_us", "us", "lower"),
    ("integrate.project.calls", "count", "lower"),
    ("integrate.project.self_us", "us", "lower"),
    ("integrate.project.newton_iters", "count", "lower"),
    ("constraints.evaluate.calls", "count", "lower"),
    ("constraints.evaluate.us", "us", "lower"),
    ("constraints.residual.self_us", "us", "lower"),
    ("constraints.solve_velocity.calls", "count", "lower"),
    ("constraints.solve_velocity.us", "us", "lower"),
    ("constraints.select_active_rows.us", "us", "lower"),
    ("optimize.attempts", "count", "lower"),
    ("optimize.attempts_to_target", "count", "lower"),
    ("optimize.improving_share", "ratio", "higher"),
    ("optimize.nelder_mead.self_ms", "ms", "lower"),
    ("trajectory.velocities.us", "us", "lower"),
    ("ctslip.build_reference.s", "s", "lower"),
    ("ctslip.recovery_cost.ms", "ms", "lower"),
    ("ctslip.simulate_hybrid.calls", "count", "lower"),
    ("ctslip.simulate_hybrid.ms", "ms", "lower"),
    ("ctslip.sim.steps", "count", "lower"),
    ("ctslip.sim.events", "count", "lower"),
    ("ctslip.sim.steps_per_s", "1/s", "higher"),
    ("ctslip.sim.crashed_share", "ratio", "lower"),
    ("signals.estimate_phases.calls", "count", "lower"),
    ("signals.estimate_phases.ms", "ms", "lower"),
    ("encoding.learn_constraints.s", "s", "lower"),
)


class Probe:
    """The tracer plus what the metrics read from arguments and results."""

    def __init__(self):
        self.tracer = Tracer()
        self.newton: list[tuple[float, int]] = []   # (start, callbacks)
        self.sims: list[tuple[float, int, int, bool]] = []
        self.searches: list[tuple[float, list[float], list[float]]] = []
        self._callbacks = 0

    def install(self) -> None:
        t = self.tracer
        t.wrap("crawler.reference_gait")
        t.wrap("crawler.recover")
        t.wrap_returned("crawler.recovery_field", "crawler.field")
        t.wrap_returned("crawler.gait_perturbation_provider",
                        "crawler.rollout")
        t.wrap("integrate.step")
        t.wrap("integrate.project", on_args=self._count_callbacks,
               on_result=self._projected)
        # evaluate() delegates to evaluate_with_classes: one span per
        # evaluation of the stack
        t.wrap("constraints.evaluate_with_classes", "constraints.evaluate")
        t.wrap("constraints.residual")
        t.wrap("constraints.solve_velocity")
        t.wrap("constraints.select_active_rows")
        t.wrap("optimize.nelder_mead", on_result=self._searched)
        # the objective's own glue is a span, so it is not counted as
        # Nelder-Mead self time
        t.wrap_returned("optimize.constraint_violation_cost", "optimize.cost")
        t.wrap("trajectory.Trajectory.velocities", "trajectory.velocities")
        t.wrap("ctslip.build_reference")
        t.wrap("ctslip.recovery_cost")
        t.wrap("ctslip.simulate_hybrid", on_result=self._simulated)
        t.wrap("signals.estimate_phases")
        t.wrap("encoding.learn_constraints")

    def _count_callbacks(self, args):
        c, *rest = args
        self._callbacks = 0

        def counted(x):
            self._callbacks += 1
            return c(x)

        return (counted, *rest)

    def _projected(self, out, t0):
        self.newton.append((t0, self._callbacks))
        return out

    def _simulated(self, res, t0):
        self.sims.append((t0, len(res.t) - 1, len(res.events),
                          bool(res.crashed)))
        return res

    def _searched(self, out, t0):
        _, trace = out
        self.searches.append((t0, list(trace.costs),
                              list(trace.best_so_far)))
        return out

    def metrics(self, rounds_start: float, rounds_end: float, rounds: int,
                target) -> dict[str, float]:
        """Per-layer metrics; ``target(costs)`` is the cost a search must
        reach for ``optimize.attempts_to_target``."""
        t = self.tracer
        name, start, dur, self_t, _ = t.arrays()
        in_rounds = (start >= rounds_start) & (start <= rounds_end)
        in_setup = start < rounds_start

        def mask(span, phase):
            nid = t._ids.get(span)
            return phase & (name == nid) if nid is not None else phase & False

        def per_round(span):
            return float(mask(span, in_rounds).sum()) / rounds

        def mean(span, values, scale):
            m = mask(span, in_rounds)
            return float(values[m].mean()) * scale if m.any() else 0.0

        def setup(span):
            m = mask(span, in_setup)
            return float(np.median(dur[m])) if m.any() else 0.0

        def inside(records):
            return [r[1:] for r in records
                    if rounds_start <= r[0] <= rounds_end]

        newton = inside(self.newton)
        sims = inside(self.sims)
        searches = inside(self.searches)
        sim_time = float(dur[mask("ctslip.simulate_hybrid", in_rounds)].sum())

        attempts = sum(len(costs) for costs, _ in searches)
        improving = sum(int(b[i] < b[i - 1]) for _, b in searches
                        for i in range(1, len(b)))
        if searches:
            costs, best = searches[0]
            goal = target(costs)
            hit = [i for i, b in enumerate(best) if b <= goal]
            to_target = hit[0] + 1 if hit else len(best) + 1
        else:
            to_target = 0

        out = {
            "crawler.reference_gait.s": setup("crawler.reference_gait"),
            "crawler.recover.ms": mean("crawler.recover", dur, 1e3),
            "crawler.field.calls": per_round("crawler.field"),
            "crawler.field.us": mean("crawler.field", dur, 1e6),
            "crawler.rollout.ms": mean("crawler.rollout", dur, 1e3),
            "integrate.step.calls": per_round("integrate.step"),
            "integrate.step.self_us": mean("integrate.step", self_t, 1e6),
            "integrate.project.calls": per_round("integrate.project"),
            "integrate.project.self_us": mean("integrate.project", self_t,
                                              1e6),
            "integrate.project.newton_iters": (
                sum(n for (n,) in newton) / len(newton) if newton else 0.0),
            "constraints.evaluate.calls": per_round("constraints.evaluate"),
            "constraints.evaluate.us": mean("constraints.evaluate", dur, 1e6),
            "constraints.residual.self_us": mean("constraints.residual",
                                                 self_t, 1e6),
            "constraints.solve_velocity.calls": per_round(
                "constraints.solve_velocity"),
            "constraints.solve_velocity.us": mean(
                "constraints.solve_velocity", dur, 1e6),
            "constraints.select_active_rows.us": mean(
                "constraints.select_active_rows", dur, 1e6),
            "optimize.attempts": attempts / rounds,
            "optimize.attempts_to_target": float(to_target),
            "optimize.improving_share": (improving / attempts
                                         if attempts else 0.0),
            "optimize.nelder_mead.self_ms": mean("optimize.nelder_mead",
                                                 self_t, 1e3),
            "trajectory.velocities.us": mean("trajectory.velocities", dur,
                                             1e6),
            "ctslip.build_reference.s": setup("ctslip.build_reference"),
            "ctslip.recovery_cost.ms": mean("ctslip.recovery_cost", dur, 1e3),
            "ctslip.simulate_hybrid.calls": per_round(
                "ctslip.simulate_hybrid"),
            "ctslip.simulate_hybrid.ms": mean("ctslip.simulate_hybrid", dur,
                                              1e3),
            "ctslip.sim.steps": sum(s[0] for s in sims) / rounds,
            "ctslip.sim.events": sum(s[1] for s in sims) / rounds,
            "ctslip.sim.steps_per_s": (sum(s[0] for s in sims) / sim_time
                                       if sim_time > 0.0 else 0.0),
            "ctslip.sim.crashed_share": (sum(s[2] for s in sims) / len(sims)
                                         if sims else 0.0),
            "signals.estimate_phases.calls": per_round(
                "signals.estimate_phases"),
            "signals.estimate_phases.ms": mean("signals.estimate_phases", dur,
                                               1e3),
            "encoding.learn_constraints.s": setup(
                "encoding.learn_constraints"),
        }
        if list(out) != [m[0] for m in PER_LAYER]:
            raise RuntimeError("per-layer metrics out of step with PER_LAYER")
        return out
