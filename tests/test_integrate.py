import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regait import integrate
from regait.integrate import (IntegrationError, integrate_projected, project,
                              step)

TOL = 1e-10   # projection tolerance of the tests that do not vary it

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None,
                             derandomize=True, database=None)


def rk4(f, t, x, h):
    return step(f, t, x, f(t, x), h)


class TestStep:
    def test_zero_field_fixed_point(self):
        x = np.array([1.0, -2.0])
        out = rk4(lambda t, x: np.zeros(2), 0.0, x, 0.1)
        assert np.array_equal(out, x)

    def test_unit_field_exact(self):
        out = rk4(lambda t, x: np.ones(1), 0.0, np.array([0.0]), 0.1)
        assert out[0] == pytest.approx(0.1, abs=1e-16)

    def test_exponential_single_step(self):
        out = rk4(lambda t, x: x, 0.0, np.array([1.0]), 0.1)
        assert abs(out[0] - np.exp(0.1)) < 1e-7

    def test_non_finite_output_rejected(self):
        with pytest.raises(IntegrationError):
            rk4(lambda t, x: np.array([np.inf]), 0.0, np.array([1.0]), 0.1)

    @PROPERTY_SETTINGS
    @given(data=st.data(), n=st.integers(1, 9),
           h=st.floats(1e-6, 10.0, allow_nan=False, allow_infinity=False))
    def test_matches_vector_rk4_bit_for_bit(self, data, n, h):
        # the stage states and the result equal the numpy vector form
        # x + h/6 (k1 + 2 k2 + 2 k3 + k4), which the recorded crawler
        # oracle integrates with
        entry = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        x, k1, k2, k3, k4 = (
            np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
            for _ in range(5))
        stages = iter([(0.5 * h, x + 0.5 * h * k1, k2),
                       (0.5 * h, x + 0.5 * h * k2, k3),
                       (h, x + h * k3, k4)])

        def field(t, state):
            t_expected, state_expected, k = next(stages)
            assert t == t_expected
            assert isinstance(state, list)
            assert np.array_equal(state, state_expected)
            return k.tolist()

        out = step(field, 0.0, x.tolist(), k1.tolist(), h)
        assert isinstance(out, list)
        assert np.array_equal(
            out, x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))



# residual and Jacobian callbacks of a few constraints on the plane
def first_coordinate(x):
    return np.array([x[0]])


def first_coordinate_rows(x):
    return np.array([[1.0, 0.0]])


def unit_circle(x):
    x = np.asarray(x)
    return np.array([x @ x - 1.0])


def unit_circle_rows(x):
    return 2.0 * np.asarray(x)[None, :]


class TestProject:
    def test_linear_constraint_one_step(self):
        out = project(first_coordinate, first_coordinate_rows,
                      np.array([0.5, 3.0]), TOL)
        assert np.allclose(out, [0.0, 3.0], atol=1e-12)

    def test_radial_projection(self):
        out = project(unit_circle, unit_circle_rows, np.array([1.1, 0.0]),
                      TOL)
        assert np.allclose(out, [1.0, 0.0], atol=1e-9)

    def test_feasible_point_unchanged(self):
        x = np.array([0.0, 42.0])
        out = project(first_coordinate, first_coordinate_rows, x, TOL)
        assert np.array_equal(out, x)

    def test_idempotent_to_tolerance(self):
        once = project(unit_circle, unit_circle_rows, np.array([1.3, -0.4]),
                       TOL)
        twice = project(unit_circle, unit_circle_rows, once, TOL)
        assert np.linalg.norm(np.subtract(twice, once)) < TOL

    def test_rank_deficient_jacobian(self):
        with pytest.raises(IntegrationError, match="rank"):
            project(lambda x: np.array([1.0]),
                    lambda x: np.array([[0.0, 0.0]]), np.array([1.0, 2.0]),
                    TOL)

    @pytest.mark.parametrize("seed", range(5))
    def test_newton_step_is_pinv_bit_for_bit(self, seed):
        # one SVD per step, multiplied out in pinv's own order
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        J = rng.standard_normal((m, m + int(rng.integers(0, 4))))
        res, x = rng.standard_normal(m), rng.standard_normal(J.shape[1])
        residuals = iter([res, np.zeros(m)])
        out = project(lambda y: next(residuals), lambda y: J, x, TOL)
        assert np.array_equal(out, x - np.linalg.pinv(J, rcond=1e-12) @ res)

    @pytest.mark.parametrize("c, entry", [
        (lambda x: [np.nan], np.nan),
        (lambda x: [x[0] - 1.0], np.nan),
        (lambda x: [x[0] - 1.0], np.inf),
        (lambda x: [x[0] - 1.0], -np.inf)])
    def test_non_finite_jacobian_rejected(self, c, entry):
        reads = []

        def jac(x):
            reads.append(x)
            return [[entry, 0.0]]

        with pytest.raises(IntegrationError,
                           match=r"non-finite constraint Jacobian .* "
                                 r"x=\[0.0, 0.0\]"):
            project(c, jac, [0.0, 0.0], TOL)
        assert len(reads) == 1

    @pytest.mark.parametrize("c, jac, x0, steps", [
        # a feasible start takes no Newton step
        (first_coordinate, first_coordinate_rows, [0.0, 42.0], 0),
        # one step lands on a linear constraint
        (first_coordinate, first_coordinate_rows, [0.5, 3.0], 1),
        # radius 2 -> 1.25 -> 1.025 -> 1.0003 -> 1 + 5e-8 -> 1 + 1e-15
        (unit_circle, unit_circle_rows, [2.0, 0.0], 5),
    ])
    def test_jacobian_read_only_for_newton_steps(self, c, jac, x0, steps):
        calls = {c: 0, jac: 0}

        def counted(fn):
            def call(x):
                calls[fn] += 1
                return fn(x)
            return call

        project(counted(c), counted(jac), np.array(x0), TOL)
        assert calls[jac] == steps
        assert calls[c] == steps + 1

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_nan_residual_never_accepted(self, where):
        # a NaN entry anywhere fails the convergence test, whatever the
        # other entries are
        def c(x):
            res = [0.0, 0.0, 0.0]
            res[where] = np.nan
            return res

        with pytest.raises(IntegrationError):
            project(c, lambda x: np.eye(3), [0.0, 0.0, 0.0], TOL)

    def test_non_convergence_reported(self, monkeypatch):
        # Residual independent of the state: Newton can never reduce it.
        monkeypatch.setattr(integrate, "MAX_NEWTON_ITERS", 5)
        calls, jac_calls = [], []

        def c(x):
            calls.append(x)
            return np.array([1.0])

        def jac(x):
            jac_calls.append(x)
            return np.array([[1.0, 0.0]])

        with pytest.raises(IntegrationError, match="did not converge in 5 "):
            project(c, jac, np.array([0.0, 0.0]), TOL)
        assert len(calls) == 5 + 1  # five iterations, then the final report
        assert len(jac_calls) == 5


class TestIntegrateProjected:
    def test_zero_field_constant(self):
        c = (lambda x: np.array([x[0] - 1.0]), first_coordinate_rows)
        traj, _ = integrate_projected(lambda t, x: np.zeros(2), c, 0.0,
                                      np.array([1.0, 2.0]), 0.5, 0.05, TOL)
        assert np.allclose(traj.x, [1.0, 2.0], atol=1e-12)
        assert len(traj) == 11

    def test_circle_radius_preserved(self):
        field = lambda t, x: np.array([-x[1], x[0]])
        traj, _ = integrate_projected(field, (unit_circle, unit_circle_rows),
                                      0.0, np.array([1.0, 0.0]), 1.0, 1e-3,
                                      1e-12)
        radii = np.linalg.norm(traj.x, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-10

    def test_unconstrained_mode(self):
        traj, _ = integrate_projected(lambda t, x: x, None, 0.0,
                                      np.array([1.0]), 1.0, 1e-3, TOL)
        assert abs(traj.x[-1, 0] - np.e) < 1e-10

    def test_infeasible_start_rejected(self):
        calls = []

        def field(t, x):
            calls.append(t)
            return np.zeros(2)

        for residual, x0 in [
                (first_coordinate, [0.5, 0.0]),
                # a NaN residual at a finite start
                (lambda x: np.array([np.nan]), [0.0, 0.0]),
                # a NaN start whose residual is feasible
                (first_coordinate, [0.0, np.nan])]:
            with pytest.raises(IntegrationError, match="initial"):
                integrate_projected(field, (residual, first_coordinate_rows),
                                    0.0, np.array(x0), 1.0, 0.1, TOL)
        assert calls == []

    def test_non_integer_span_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            integrate_projected(lambda t, x: np.zeros(1), None, 0.0,
                                np.array([0.0]), 0.55, 0.1, TOL)

    @pytest.mark.parametrize("t1", [0.5, np.nan, np.inf])
    def test_negative_or_infinite_span_rejected(self, t1):
        with pytest.raises(ValueError, match=rf"span \[1.0, {t1}\]"):
            integrate_projected(lambda t, x: np.zeros(1), None, 1.0,
                                np.array([0.0]), t1, 0.1, TOL)

    def test_step_width_and_tolerance_checked_before_any_step(self):
        calls = []

        def field(t, x):
            calls.append(t)
            return np.zeros(1)

        c = (first_coordinate, lambda x: np.array([[1.0]]))
        for name, dt, tol in [
                ("dt", 0.0, TOL), ("dt", np.inf, TOL), ("dt", -np.inf, TOL),
                ("dt", np.nan, TOL), ("tol", 0.1, 0.0), ("tol", 0.1, np.inf),
                ("tol", 0.1, np.nan)]:
            with pytest.raises(ValueError,
                               match=f"{name} must be finite and positive"):
                integrate_projected(field, c, 0.0, np.array([0.0]), 1.0, dt,
                                    tol)
        assert calls == []

    def test_sample_velocities_are_first_stages(self):
        calls = []

        def field(t, x):
            calls.append(t)
            return np.array([-x[1], x[0]])

        traj, v = integrate_projected(field, (unit_circle, unit_circle_rows),
                                      0.0, np.array([1.0, 0.0]), 0.5,
                                      0.05, TOL)
        # three stages per step plus one evaluation per stored sample
        assert len(calls) == 3 * 10 + 11
        assert v.shape == traj.x.shape
        for k in range(len(traj)):
            assert np.array_equal(v[k], field(traj.t[k], traj.x[k]))

    def test_non_finite_jacobian_carries_time_stamp(self):
        c = (lambda x: [x[0] - 1.0], lambda x: [[np.nan]])
        with pytest.raises(IntegrationError,
                           match="t=0.1: non-finite constraint Jacobian"):
            integrate_projected(lambda t, x: [1.0], c, 0.0, [1.0], 1.0, 0.1,
                                TOL)

    def test_failure_carries_time_stamp(self):
        def field(t, x):
            return np.array([np.nan]) if t > 0.5 else np.zeros(1)

        with pytest.raises(IntegrationError, match="t="):
            integrate_projected(field, None, 0.0, np.array([0.0]), 1.0,
                                0.1, TOL)


class TestConvergenceOrder:
    def test_rk4_observed_order(self):
        # Step-halving study on xdot = x over [0, 1].
        errs = []
        for dt in (0.1, 0.05, 0.025):
            traj, _ = integrate_projected(lambda t, x: x, None, 0.0,
                                          np.array([1.0]), 1.0, dt, TOL)
            errs.append(abs(traj.x[-1, 0] - np.e))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.9

