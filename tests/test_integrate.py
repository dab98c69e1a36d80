import numpy as np
import pytest

from regait import integrate
from regait.integrate import (IntegrationError, ProjectedIntegratorConfig,
                              integrate_projected, project, step)


def cfg(**kw):
    return ProjectedIntegratorConfig(**kw)


def rk4(f, t, x, conf):
    return step(f, t, x, f(t, x), conf)


class TestStep:
    def test_zero_field_fixed_point(self):
        x = np.array([1.0, -2.0])
        out = rk4(lambda t, x: np.zeros(2), 0.0, x, cfg(dt=0.1))
        assert np.array_equal(out, x)

    def test_unit_field_exact(self):
        out = rk4(lambda t, x: np.ones(1), 0.0, np.array([0.0]), cfg(dt=0.1))
        assert out[0] == pytest.approx(0.1, abs=1e-16)

    def test_exponential_single_step(self):
        out = rk4(lambda t, x: x, 0.0, np.array([1.0]), cfg(dt=0.1))
        assert abs(out[0] - np.exp(0.1)) < 1e-7

    def test_non_finite_output_rejected(self):
        with pytest.raises(IntegrationError):
            rk4(lambda t, x: np.array([np.inf]), 0.0, np.array([1.0]),
                cfg(dt=0.1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cfg(dt=0.0)
        # non-finite step widths and tolerances are rejected too
        for kw in ({"dt": np.inf}, {"dt": np.nan}, {"projection_tol": 0.0},
                   {"projection_tol": np.inf}, {"projection_tol": np.nan}):
            with pytest.raises(ValueError, match="finite and positive"):
                cfg(**kw)


class TestProject:
    def test_linear_constraint_one_step(self):
        c = lambda x: (np.array([x[0]]), np.array([[1.0, 0.0]]))
        out = project(c, np.array([0.5, 3.0]), cfg())
        assert np.allclose(out, [0.0, 3.0], atol=1e-12)

    def test_radial_projection(self):
        c = lambda x: (np.array([x @ x - 1.0]), 2.0 * x[None, :])
        out = project(c, np.array([1.1, 0.0]), cfg())
        assert np.allclose(out, [1.0, 0.0], atol=1e-9)

    def test_feasible_point_unchanged(self):
        c = lambda x: (np.array([x[0]]), np.array([[1.0, 0.0]]))
        x = np.array([0.0, 42.0])
        out = project(c, x, cfg())
        assert np.array_equal(out, x)

    def test_idempotent_to_tolerance(self):
        c = lambda x: (np.array([x @ x - 1.0]), 2.0 * x[None, :])
        conf = cfg()
        once = project(c, np.array([1.3, -0.4]), conf)
        twice = project(c, once, conf)
        assert np.linalg.norm(twice - once) < conf.projection_tol

    def test_rank_deficient_jacobian(self):
        c = lambda x: (np.array([1.0]), np.array([[0.0, 0.0]]))
        with pytest.raises(IntegrationError, match="rank"):
            project(c, np.array([1.0, 2.0]), cfg())

    def test_non_convergence_reported(self, monkeypatch):
        # Residual independent of the state: Newton can never reduce it.
        monkeypatch.setattr(integrate, "MAX_NEWTON_ITERS", 5)
        calls = []

        def c(x):
            calls.append(x)
            return np.array([1.0]), np.array([[1.0, 0.0]])

        with pytest.raises(IntegrationError, match="did not converge in 5 "):
            project(c, np.array([0.0, 0.0]), cfg())
        assert len(calls) == 5 + 1  # five iterations, then the final report


class TestIntegrateProjected:
    def test_zero_field_constant(self):
        c = lambda x: (np.array([x[0] - 1.0]), np.array([[1.0, 0.0]]))
        traj, _ = integrate_projected(lambda t, x: np.zeros(2), c, 0.0,
                                      np.array([1.0, 2.0]), 0.5, cfg(dt=0.05))
        assert np.allclose(traj.x, [1.0, 2.0], atol=1e-12)
        assert len(traj) == 11

    def test_circle_radius_preserved(self):
        field = lambda t, x: np.array([-x[1], x[0]])
        c = lambda x: (np.array([x @ x - 1.0]), 2.0 * x[None, :])
        conf = cfg(dt=1e-3, projection_tol=1e-12)
        traj, _ = integrate_projected(field, c, 0.0, np.array([1.0, 0.0]),
                                      1.0, conf)
        radii = np.linalg.norm(traj.x, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-10

    def test_unconstrained_mode(self):
        traj, _ = integrate_projected(lambda t, x: x, None, 0.0,
                                      np.array([1.0]), 1.0, cfg(dt=1e-3))
        assert abs(traj.x[-1, 0] - np.e) < 1e-10

    def test_infeasible_start_rejected(self):
        c = lambda x: (np.array([x[0]]), np.array([[1.0]]))
        with pytest.raises(IntegrationError, match="initial"):
            integrate_projected(lambda t, x: np.zeros(1), c, 0.0,
                                np.array([0.5]), 1.0, cfg(dt=0.1))

    def test_non_integer_span_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            integrate_projected(lambda t, x: np.zeros(1), None, 0.0,
                                np.array([0.0]), 0.55, cfg(dt=0.1))

    @pytest.mark.parametrize("t1", [0.5, np.nan, np.inf])
    def test_negative_or_infinite_span_rejected(self, t1):
        with pytest.raises(ValueError, match=rf"span \[1.0, {t1}\]"):
            integrate_projected(lambda t, x: np.zeros(1), None, 1.0,
                                np.array([0.0]), t1, cfg(dt=0.1))

    def test_sample_velocities_are_first_stages(self):
        calls = []

        def field(t, x):
            calls.append(t)
            return np.array([-x[1], x[0]])

        c = lambda x: (np.array([x @ x - 1.0]), 2.0 * x[None, :])
        traj, v = integrate_projected(field, c, 0.0, np.array([1.0, 0.0]),
                                      0.5, cfg(dt=0.05))
        # three stages per step plus one evaluation per stored sample
        assert len(calls) == 3 * 10 + 11
        assert v.shape == traj.x.shape
        for k in range(len(traj)):
            assert np.array_equal(v[k], field(traj.t[k], traj.x[k]))

    def test_failure_carries_time_stamp(self):
        def field(t, x):
            return np.array([np.nan]) if t > 0.5 else np.zeros(1)

        with pytest.raises(IntegrationError, match="t="):
            integrate_projected(field, None, 0.0, np.array([0.0]), 1.0,
                                cfg(dt=0.1))


class TestConvergenceOrder:
    def test_rk4_observed_order(self):
        # Step-halving study on xdot = x over [0, 1].
        errs = []
        for dt in (0.1, 0.05, 0.025):
            traj, _ = integrate_projected(lambda t, x: x, None, 0.0,
                                          np.array([1.0]), 1.0, cfg(dt=dt))
            errs.append(abs(traj.x[-1, 0] - np.e))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.9

