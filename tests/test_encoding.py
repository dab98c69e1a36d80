import numpy as np
import pytest

from regait import encoding
from regait.crawler import (TEMPLATE_FORMS, shape_features,
                            template_encoding_map)
from regait.encoding import (learn_constraints, learned_block,
                             learned_from_json, learned_gamma,
                             learned_to_json, pullback, record_eta)
from regait.signals import PhaseEstimator, estimate_phases, eval_fourier
from regait.trajectory import Trajectory

from helpers import assert_fields_equal

TWO_PI = 2.0 * np.pi


def constant_jacobian(M):
    """Encoding map of the linear output x -> M x, over leading dims."""
    return lambda x: np.broadcast_to(M, np.shape(x)[:-1] + M.shape)


IDENTITY_2 = constant_jacobian(np.eye(2))


def circle_trajectory(n=256):
    """Unit circle with exact velocities; its PCA-plane phase equals t."""
    t = np.linspace(0.0, TWO_PI, n, endpoint=False)
    x = np.column_stack([np.cos(t), np.sin(t)])
    v = np.column_stack([-np.sin(t), np.cos(t)])
    return Trajectory(t=t, x=x), v


class TestPullback:
    def test_coordinate_projection(self):
        dphi = constant_jacobian(np.eye(3)[:2])
        row = pullback(dphi, [[1.0, 0.0]], np.zeros(3))
        assert np.allclose(row, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_linear_map_chain_rule(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((2, 4))
        omega = rng.standard_normal((3, 2))
        X = rng.standard_normal((5, 4))
        rows = pullback(constant_jacobian(M), omega, X)
        assert rows.shape == (5, 3, 4)
        assert np.allclose(rows, omega @ M, atol=1e-12)

    def test_linearity(self):
        # phi(x) = (x0^2 + x1, sin x2)
        def dphi(x):
            jac = np.zeros(x.shape[:-1] + (2, 3))
            jac[..., 0, 0] = 2.0 * x[..., 0]
            jac[..., 0, 1] = 1.0
            jac[..., 1, 2] = np.cos(x[..., 2])
            return jac

        rng = np.random.default_rng(1)
        x = rng.standard_normal(3)
        w1, w2 = rng.standard_normal(2), rng.standard_normal(2)
        a, b = 0.7, -1.3
        combo = pullback(dphi, [a * w1 + b * w2], x)
        parts = pullback(dphi, [a * w1, b * w2], x).sum(axis=0)
        assert np.allclose(combo[0], parts, atol=1e-12)

    def test_rank_loss_rejected(self):
        def dphi(x):   # phi(x) = (x0^2, x1)
            jac = np.zeros(x.shape[:-1] + (2, 2))
            jac[..., 0, 0] = 2.0 * x[..., 0]
            jac[..., 1, 1] = 1.0
            return jac

        for x in (np.array([0.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]])):
            with pytest.raises(ValueError, match="rank"):
                pullback(dphi, [[1.0, 0.0]], x)

    def test_form_length_checked(self):
        dphi = constant_jacobian(np.eye(3)[:2])
        with pytest.raises(ValueError, match="shape"):
            pullback(dphi, [[1.0, 0.0, 0.0]], np.zeros(3))


class TestRecordEta:
    def test_constant_velocity_line(self):
        t = np.linspace(0.0, 1.0, 33)
        traj = Trajectory(t=t, x=np.column_stack([t, 2.0 * t]))
        eta = record_eta(IDENTITY_2, np.eye(2), traj)
        assert eta.shape == (2, 33)
        assert np.allclose(eta[0], 1.0, atol=1e-10)
        assert np.allclose(eta[1], 2.0, atol=1e-10)

    def test_explicit_velocities_used(self):
        traj, v = circle_trajectory(64)
        eta = record_eta(IDENTITY_2, [[1.0, 0.0]], traj, velocities=v)
        assert np.allclose(eta[0], -np.sin(traj.t), atol=1e-12)

    def test_too_short_rejected(self):
        traj = Trajectory(t=np.array([0.0, 1.0]), x=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            record_eta(IDENTITY_2, [[1.0, 0.0]], traj)

    def test_two_samples_with_velocities_accepted(self):
        # nothing is differentiated when the velocities are given
        traj = Trajectory(t=np.array([0.0, 1.0]),
                          x=np.array([[0.0, 0.0], [1.0, 2.0]]))
        v = np.array([[1.0, 2.0], [1.0, 2.0]])
        eta = record_eta(IDENTITY_2, np.eye(2), traj, velocities=v)
        assert np.array_equal(eta, v.T)
        with pytest.raises(ValueError, match="need at least 3 samples"):
            record_eta(IDENTITY_2, np.eye(2), traj)

    def test_velocity_shape_checked(self):
        traj, v = circle_trajectory(16)
        with pytest.raises(ValueError,
                           match=r"shape \(15, 2\) but .* shape \(16, 2\)"):
            record_eta(IDENTITY_2, np.eye(2), traj, velocities=v[1:])


class TestLearnConstraints:
    def fit_circle(self, order=3, velocities=True):
        traj, v = circle_trajectory()
        phase = PhaseEstimator.fit(traj.x)
        lc = learn_constraints(IDENTITY_2, [[1.0, 0.0]], traj, phase,
                               order=order,
                               velocities=v if velocities else None)
        return traj, v, lc

    def test_exact_basis_member_recovered(self):
        # eta(phase) = -sin(phase) on the circle: one sine coefficient.
        _, _, lc = self.fit_circle()
        model = lc.eta_models[0]
        assert model.b[0] == pytest.approx(-1.0, abs=1e-10)
        assert abs(model.a0) < 1e-10
        assert np.all(np.abs(model.a) < 1e-10)
        assert np.all(np.abs(model.b[1:]) < 1e-10)

    def test_learned_gamma_queries(self):
        _, _, lc = self.fit_circle()
        assert learned_gamma(lc, 0.0)[0] == pytest.approx(0.0, abs=1e-10)
        assert learned_gamma(lc, np.pi / 2)[0] == pytest.approx(-1.0,
                                                                abs=1e-10)

    def test_finite_difference_velocities_cost_accuracy_not_correctness(self):
        _, _, lc = self.fit_circle(velocities=False)
        model = lc.eta_models[0]
        # Differencing error is O(dt^2), visible but small.
        assert model.b[0] == pytest.approx(-1.0, abs=1e-3)
        assert model.fit_residual_rms < 1e-3

    def test_self_consistency_bounded_by_fit_residual(self):
        traj, v, lc = self.fit_circle(order=2)
        eta = record_eta(IDENTITY_2, lc.forms, traj, velocities=v)[0]
        phases = estimate_phases(lc.phase_model, traj.x)
        fit_err = np.abs(eval_fourier(lc.eta_models[0], phases) - eta)
        block = learned_block(IDENTITY_2, lc)
        worst = 0.0
        for k in range(len(traj)):
            omega, gamma = block.rows(traj.t[k], traj.x[k])
            viol = abs(omega[0] @ v[k] - gamma[0])
            worst = max(worst, viol - fit_err[k])
        assert worst < 1e-10

    def test_crawler_fit_phase_is_the_query_phase(self, monkeypatch,
                                                  cparams, gait):
        # every training state is fitted at the phase learned_block
        # queries at that state, bit for bit
        traj = gait.full_grid()
        dphi = template_encoding_map(cparams)
        fit, estimate = encoding.fit_fourier, encoding.estimate_phases
        fitted, queried = [], []

        def recording_fit(phases, values, order):
            fitted.append(phases)
            return fit(phases, values, order)

        def recording_estimate(est, X):
            queried.append(estimate(est, X))
            return queried[-1]

        monkeypatch.setattr(encoding, "fit_fourier", recording_fit)
        lc = learn_constraints(dphi, TEMPLATE_FORMS, traj,
                               PhaseEstimator.fit(shape_features(traj.x)),
                               phase_features=shape_features)
        monkeypatch.setattr(encoding, "estimate_phases", recording_estimate)
        block = learned_block(dphi, lc, phase_features=shape_features)
        for k in range(len(traj)):
            block.rows(traj.t[k], traj.x[k])
        assert len(fitted) == len(TEMPLATE_FORMS)
        for phases in fitted:
            assert np.array_equal(phases, queried)

    def test_insufficient_samples_rejected(self):
        t = np.linspace(0.0, TWO_PI, 8, endpoint=False)
        x = np.column_stack([np.cos(t), np.sin(t)])
        v = np.column_stack([-np.sin(t), np.cos(t)])
        traj = Trajectory(t=t, x=x)
        phase = PhaseEstimator.fit(x)
        with pytest.raises(ValueError):
            learn_constraints(IDENTITY_2, [[1.0, 0.0]], traj, phase,
                              order=4, velocities=v)

    def test_backward_phase_rejected(self):
        # a circle that steps back for five samples still winds around its
        # center, so the estimator trains on it, but its phase turns back
        t = np.linspace(0.0, TWO_PI, 256, endpoint=False)
        angle = t.copy()
        angle[100:105] = angle[99] - 0.01 * np.arange(1, 6)
        x = np.column_stack([np.cos(angle), np.sin(angle)])
        phase = PhaseEstimator.fit(x)
        with pytest.raises(ValueError, match="not strictly monotone"):
            learn_constraints(IDENTITY_2, [[1.0, 0.0]],
                              Trajectory(t=t, x=x), phase, order=3)

    def test_json_round_trip(self):
        _, _, lc = self.fit_circle()
        back = learned_from_json(learned_to_json(lc))
        phases = np.linspace(0.0, TWO_PI, 17)
        assert np.allclose(learned_gamma(back, phases),
                           learned_gamma(lc, phases), atol=1e-12)
        assert np.allclose(back.forms[0], lc.forms[0], atol=1e-15)
        # every field comes back exactly, each series' fit residual too
        assert lc.eta_models[0].fit_residual_rms > 0.0
        assert_fields_equal(back, lc)

    @pytest.mark.parametrize("times", ["equal", "reversed", "nan"])
    def test_non_increasing_times_rejected(self, times):
        traj, _ = circle_trajectory()
        t = {"equal": np.zeros_like(traj.t), "reversed": -traj.t,
             "nan": np.r_[traj.t[0], np.nan, traj.t[2:]]}[times]
        phase = PhaseEstimator.fit(traj.x)
        with pytest.raises(ValueError, match="is not positive"):
            learn_constraints(IDENTITY_2, [[1.0, 0.0]],
                              Trajectory(t=t, x=traj.x), phase, order=3)
