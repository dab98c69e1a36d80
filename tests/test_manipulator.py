from dataclasses import replace

import numpy as np
import pytest

from regait.manipulator import (ManipulatorModel, _integrate,
                                _velocity_constraint, constrained_accel,
                                gauge_invariance_check, point_mass_toy,
                                record_force_signal, redesign_input,
                                rescaled_constraint, run_force_matching)


def pinned_y_model(B=None):
    """Unit-mass 2-DOF plant with the constant constraint row [0, 1]."""
    return ManipulatorModel(
        inertia=lambda q: np.eye(2),
        bias=lambda q, qd: np.zeros(2),
        input_map=np.eye(2) if B is None else np.asarray(B, dtype=float),
        constraint=lambda q: (np.array([[0.0, 1.0]]), np.zeros((1, 2, 2))),
    )


def sine_factor(q):
    """Rescale factor c(q) = 1 + 0.5 sin(q0 + 0.7) and its gradient."""
    return (1.0 + 0.5 * np.sin(q[0] + 0.7),
            np.array([0.5 * np.cos(q[0] + 0.7), 0.0]))


def free_model():
    return ManipulatorModel(
        inertia=lambda q: np.diag([2.0, 0.5]),
        bias=lambda q, qd: np.array([0.1, -0.2]),
        input_map=np.eye(2),
        constraint=lambda q: (np.zeros((0, 2)), np.zeros((0, 2, 2))),
    )


class TestConstraintDerivative:
    def test_analytic_dA_matches_central_difference(self):
        # dA[j, k, i] = dA_jk/dq_i, checked column by column against A.
        model = point_mass_toy()
        rows = {"toy": model.constraint_at,
                "rescaled": rescaled_constraint(model, sine_factor)}
        rng = np.random.default_rng(13)
        h = 1e-6
        for name, constraint in rows.items():
            for _ in range(10):
                q = rng.standard_normal(2)
                _, dA = constraint(q)
                for i in range(2):
                    step = h * np.eye(2)[i]
                    fd = (constraint(q + step)[0]
                          - constraint(q - step)[0]) / (2.0 * h)
                    assert np.abs(dA[:, :, i] - fd).max() < 1e-8, name

    def test_projection_jacobian_matches_central_difference(self):
        # the rescaled rows make dA[j, k, i] asymmetric in (k, i)
        toy = point_mass_toy()
        model = replace(toy, constraint=rescaled_constraint(toy, sine_factor))
        c, dc = _velocity_constraint(model)
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(10):
            x = rng.standard_normal(4)
            jac = dc(x)
            for i in range(4):
                step = h * np.eye(4)[i]
                fd = (c(x + step) - c(x - step)) / (2.0 * h)
                assert np.abs(jac[:, i] - fd).max() < 1e-8


class TestConstrainedAccel:
    def test_input_orthogonal_to_constraint(self):
        qdd, lam = constrained_accel(pinned_y_model(), np.zeros(2),
                                     np.zeros(2), np.array([1.0, 0.0]))
        assert np.allclose(qdd, [1.0, 0.0], atol=1e-12)
        assert np.allclose(lam, [0.0], atol=1e-12)

    def test_constraint_cancels_input(self):
        qdd, lam = constrained_accel(pinned_y_model(), np.zeros(2),
                                     np.zeros(2), np.array([0.0, 1.0]))
        assert np.allclose(qdd, [0.0, 0.0], atol=1e-12)
        assert lam[0] == pytest.approx(-1.0, abs=1e-12)

    def test_unconstrained_limit(self):
        model = free_model()
        u = np.array([0.3, -0.8])
        qdd, lam = constrained_accel(model, np.zeros(2), np.zeros(2), u)
        expected = np.linalg.solve(np.diag([2.0, 0.5]),
                                   u - np.array([0.1, -0.2]))
        assert np.allclose(qdd, expected, atol=1e-12)
        assert lam.shape == (0,)

    def test_singular_saddle_rejected(self):
        model = ManipulatorModel(
            inertia=lambda q: np.eye(2),
            bias=lambda q, qd: np.zeros(2),
            input_map=np.eye(2),
            constraint=lambda q: (np.array([[0.0, 1.0], [0.0, 1.0]]),
                                  np.zeros((2, 2, 2))),
        )
        with pytest.raises(ValueError, match="singular"):
            constrained_accel(model, np.zeros(2), np.zeros(2), np.ones(2))

    def test_acceleration_level_consistency(self):
        # A qdd + Adot qd = 0 at every solve, against the toy's analytic A.
        model = point_mass_toy()
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = rng.standard_normal(2)
            u = rng.standard_normal(2)
            qd = rng.standard_normal(2)
            # Velocity must start on the constraint for the identity to
            # be meaningful at acceleration level; project it first.
            A, dA = model.constraint_at(q)
            qd = qd - A.T @ np.linalg.solve(A @ A.T, A @ qd)
            qdd, _ = constrained_accel(model, q, qd, u)
            assert np.abs(A @ qdd + (dA @ qd) @ qd).max() < 1e-10


class TestRecordForceSignal:
    def test_statics_zero(self):
        model = pinned_y_model()
        eta = record_force_signal(model, np.zeros((11, 4)), np.zeros((11, 2)))
        assert np.allclose(eta, 0.0, atol=1e-12)

    def test_orthogonal_input_passthrough(self):
        model = pinned_y_model()
        eta = record_force_signal(model, np.zeros((11, 4)),
                                  np.tile([1.0, 0.0], (11, 1)))
        assert np.allclose(eta, np.tile([1.0, 0.0], (11, 1)), atol=1e-12)

    def test_repeatable_bit_for_bit(self):
        model = point_mass_toy()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((21, 4))
        u = rng.standard_normal((21, 2))
        assert np.array_equal(record_force_signal(model, x, u),
                              record_force_signal(model, x, u))

    def test_one_input_row_per_state_row(self):
        model = pinned_y_model()
        for rows in (4, 6):
            with pytest.raises(ValueError):
                record_force_signal(model, np.zeros((5, 4)),
                                    np.zeros((rows, 2)))


class TestRedesignInput:
    def test_identity_perturbation_matches_total_force(self):
        # Inputs are only determined up to constraint-normal force, so the
        # redesigned u may differ from u; the motion it produces must not.
        model = point_mass_toy()
        rng = np.random.default_rng(7)
        for _ in range(20):
            q, qd, u = (rng.standard_normal(2) for _ in range(3))
            qdd, lam = constrained_accel(model, q, qd, u)
            A, _ = model.constraint_at(q)
            eta = u + A.T @ lam
            out = redesign_input(model, model.constraint_at, eta, q, qd)
            assert out.residual < 1e-9
            qdd2, lam2 = constrained_accel(model, q, qd, out.u)
            assert np.allclose(qdd2, qdd, atol=1e-9)
            assert np.allclose(out.u + A.T @ lam2, eta, atol=1e-9)

    def test_rank_preserving_rescale_feasible(self):
        # For admissible velocities the rescaled row constrains the same
        # motions, so the recorded force demand stays realizable.
        model = point_mass_toy()
        perturbed = rescaled_constraint(model, sine_factor)
        rng = np.random.default_rng(9)
        for _ in range(20):
            q, qd, u = (rng.standard_normal(2) for _ in range(3))
            A, _ = model.constraint_at(q)
            a = A[0]
            qd = qd - a * float(a @ qd) / float(a @ a)
            _, lam = constrained_accel(model, q, qd, u)
            eta = u + A.T @ lam
            out = redesign_input(model, perturbed, eta, q, qd)
            assert out.residual < 1e-9

    def test_underactuated_mismatch_flagged(self):
        model = pinned_y_model(B=np.array([[1.0], [0.0]]))
        eta = np.array([0.0, 0.5])  # demands force along the pinned axis
        out = redesign_input(model, model.constraint_at, eta,
                             np.zeros(2), np.zeros(2))
        assert out.residual > 1e-6


class TestClosedLoop:
    def u_desired(self, t):
        return np.array([0.8 * np.sin(2.0 * np.pi * t),
                         0.3 * np.cos(4.0 * np.pi * t)])

    def feasible_start(self):
        q0 = np.array([0.3, 0.0])
        qd0 = np.array([0.4, -0.4 * np.sin(0.3)])
        return q0, qd0

    def test_perturbed_plant_tracks_desired_motion(self):
        model = point_mass_toy()
        perturbed = rescaled_constraint(model, sine_factor)
        q0, qd0 = self.feasible_start()
        out = run_force_matching(model, perturbed, self.u_desired, q0, qd0,
                                 T=1.0, dt=1e-3, gauge=np.eye(2))
        assert out.tracking_error < 1e-6
        assert out.worst_match_residual < 1e-9

    def test_constraint_forces_do_no_work(self):
        model = point_mass_toy()
        q0, qd0 = self.feasible_start()
        traj = _integrate(model, lambda t, s: self.u_desired(t),
                          q0, qd0, 1.0, 1e-3)
        worst = 0.0
        for k in range(0, len(traj), 25):
            q, qd = traj.x[k, :2], traj.x[k, 2:]
            _, lam = constrained_accel(model, q, qd,
                                       self.u_desired(traj.t[k]))
            power = float(lam @ (model.constraint_at(q)[0] @ qd))
            worst = max(worst, abs(power))
        assert worst < 1e-9


class TestGaugeInvariance:
    def short_trajectory(self, model):
        """States and recorded force rows along a short driven motion."""
        q0 = np.array([0.3, 0.0])
        qd0 = np.array([0.4, -0.4 * np.sin(0.3)])

        def u(t):
            return np.array([np.sin(t), np.cos(2.0 * t)])

        traj = _integrate(model, lambda t, s: u(t), q0, qd0, 0.2, 1e-2)
        return traj.x, record_force_signal(model, traj.x,
                                           [u(t) for t in traj.t])

    def test_identity_and_scaling(self):
        model = point_mass_toy()
        x, eta = self.short_trajectory(model)
        rows = model.constraint_at
        assert gauge_invariance_check(model, np.eye(2), x, eta, rows)
        assert gauge_invariance_check(model, 2.0 * np.eye(2), x, eta, rows)
        # invertibility is judged by numerical rank, not by the size of det Q
        assert gauge_invariance_check(model, 1e-7 * np.eye(2), x, eta, rows)

    def test_random_well_conditioned_gauge(self):
        model = point_mass_toy()
        x, eta = self.short_trajectory(model)
        rng = np.random.default_rng(11)
        Q = rng.standard_normal((2, 2))
        while abs(np.linalg.det(Q)) < 0.3:
            Q = rng.standard_normal((2, 2))
        perturbed = rescaled_constraint(
            model, lambda q: (1.0 + 0.2 * np.cos(q[1]),
                              np.array([0.0, -0.2 * np.sin(q[1])])))
        assert gauge_invariance_check(model, Q, x, eta, perturbed)

    def test_singular_gauge_rejected(self):
        model = point_mass_toy()
        x, eta = self.short_trajectory(model)
        rows = model.constraint_at
        with pytest.raises(ValueError, match="invertible"):
            gauge_invariance_check(model, np.zeros((2, 2)), x, eta, rows)
        with pytest.raises(ValueError, match="invertible"):
            gauge_invariance_check(model, np.eye(3), x, eta, rows)
