import numpy as np
import pytest

from regait.constraints import ConstraintBlock, ConstraintStack, Priority
from regait.optimize import NMConfig, constraint_violation_cost, nelder_mead
from regait.trajectory import Trajectory

from helpers import constant_block


class TestNelderMead:
    def test_convex_quadratic(self):
        f = lambda x: (x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2
        best, _ = nelder_mead(f, np.zeros(2))
        assert np.linalg.norm(best - [1.0, -2.0]) < 1e-6

    def test_five_dim_quadratic(self):
        target = np.array([0.5, -1.0, 2.0, 0.0, -0.3])
        f = lambda x: float(np.sum((x - target) ** 2))
        best, trace = nelder_mead(f, np.zeros(5),
                                  NMConfig(max_iters=500))
        assert f(best) < 1e-8
        assert trace.iterations <= 500

    def test_rosenbrock(self):
        f = lambda x: (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
        best, trace = nelder_mead(
            f, np.array([-1.2, 1.0]),
            NMConfig(max_iters=2000, f_tol=1e-14, x_tol=1e-14))
        assert f(best) < 1e-6
        assert trace.iterations <= 2000

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            nelder_mead(lambda x: np.inf, np.zeros(2))

    def test_best_so_far_monotone(self):
        rng = np.random.default_rng(0)
        # A rugged cost: monotonicity must hold regardless of landscape.
        f = lambda x: float(np.sin(7.0 * x[0]) + 0.3 * x[0] ** 2
                            + np.cos(13.0 * x[1]))
        _, trace = nelder_mead(f, rng.standard_normal(2),
                               NMConfig(max_iters=60))
        best = np.array(trace.best_so_far)
        assert np.all(np.diff(best) <= 0.0)
        assert best[-1] == min(trace.costs)

    def test_deterministic_traces(self):
        f = lambda x: float((x[0] - 0.3) ** 2 + np.abs(x[1]))
        _, t1 = nelder_mead(f, np.array([2.0, 2.0]), NMConfig(max_iters=80))
        _, t2 = nelder_mead(f, np.array([2.0, 2.0]), NMConfig(max_iters=80))
        assert t1.costs == t2.costs
        assert all(np.array_equal(a, b)
                   for a, b in zip(t1.candidates, t2.candidates))

    def test_bounds_clipped(self):
        f = lambda x: float((x[0] + 5.0) ** 2)
        best, trace = nelder_mead(f, np.array([0.5]),
                                  NMConfig(bounds=[(-1.0, 1.0)],
                                           max_iters=100))
        assert best[0] == pytest.approx(-1.0, abs=1e-9)
        assert all(-1.0 <= c[0] <= 1.0 for c in trace.candidates)

    def test_trace_csv_layout(self, tmp_path):
        f = lambda x: float(x[0] ** 2)
        _, trace = nelder_mead(f, np.array([1.0]), NMConfig(max_iters=5))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,cost,best,x0"
        assert len(lines) == len(trace.costs) + 1

    def test_trace_csv_keeps_candidates(self, tmp_path):
        f = lambda x: float((x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.1) ** 2)
        _, trace = nelder_mead(f, np.array([1.0, 1.0 / 3.0]),
                               NMConfig(max_iters=8))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_text().splitlines()[0] == "iter,cost,best,x0,x1"
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], np.arange(len(trace.costs)))
        assert np.array_equal(table[:, 1], trace.costs)
        assert np.array_equal(table[:, 2], trace.best_so_far)
        assert np.array_equal(table[:, 3:], np.array(trace.candidates))


def constant_target_stack(gamma_fn=None, dim=1):
    """One Designed row on a `dim`-state: coefficient e_0, value gamma(t),
    at one time or at an array of times."""
    if gamma_fn is None:
        return ConstraintStack(
            ambient_dim=dim,
            blocks=[constant_block(Priority.DESIGNED, np.eye(dim)[:1])])
    row = np.eye(dim)[0]
    block = ConstraintBlock(
        priority=Priority.DESIGNED,
        rows=lambda t, x: (np.broadcast_to(row, np.shape(t) + (1, dim)),
                           np.broadcast_to(gamma_fn(t), np.shape(t))[..., None]))
    return ConstraintStack(ambient_dim=dim, blocks=[block])


def still_trajectory(T=2.0, dt=1e-3, dim=1):
    t = np.arange(0.0, T + 0.5 * dt, dt)
    return Trajectory(t=t, x=np.zeros((len(t), dim)))


class TestConstraintViolationCost:
    def test_exact_satisfaction_costs_nothing(self):
        stack = constant_target_stack()
        cost = constraint_violation_cost(stack,
                                         lambda p: still_trajectory())
        assert cost(np.zeros(1)) == 0.0

    def test_constant_residual_integrates_linearly(self):
        # Residual is identically -1: cost = ||r||^2 * T.
        stack = constant_target_stack(gamma_fn=lambda t: 1.0)
        cost = constraint_violation_cost(stack,
                                         lambda p: still_trajectory(T=2.0))
        assert cost(np.zeros(1)) == pytest.approx(2.0, rel=1e-12)

    def test_quadrature_second_order(self):
        # gamma(t) = t on a still state: residual -t, exact integral T^3/3.
        stack = constant_target_stack(gamma_fn=lambda t: t)
        exact = 8.0 / 3.0
        errs = []
        for dt in (0.02, 0.01):
            cost = constraint_violation_cost(
                stack, lambda p, dt=dt: still_trajectory(T=2.0, dt=dt))
            errs.append(abs(cost(np.zeros(1)) - exact))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.8

    def test_provider_failure_returns_penalty(self):
        stack = constant_target_stack()

        def broken(params):
            raise RuntimeError("plant went away")

        cost = constraint_violation_cost(stack, broken,
                                         failure_penalty=123.5)
        assert cost(np.zeros(1)) == 123.5

    @pytest.mark.parametrize("t", [[0.0, 0.0, 0.0], [0.0, -0.1, -0.2],
                                   [0.0, np.nan, 2.0]])
    def test_non_increasing_times_rejected(self, t):
        # a provider's trajectory is scored, not taken as a provider failure
        cost = constraint_violation_cost(
            constant_target_stack(),
            lambda p: Trajectory(t=np.array(t), x=np.zeros((3, 1))))
        with pytest.raises(ValueError, match="is not positive"):
            cost(np.zeros(1))

    def test_physical_rows_excluded_by_default(self):
        phys = constant_block(Priority.PHYSICAL, [[1.0]], [5.0])
        stack = ConstraintStack(ambient_dim=1, blocks=[phys])
        cost = constraint_violation_cost(stack,
                                         lambda p: still_trajectory())
        assert cost(np.zeros(1)) == 0.0
