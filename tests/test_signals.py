import numpy as np
import pytest

from regait.signals import (FourierSeries, PhaseEstimator, estimate_phases,
                            eval_fourier, fit_fourier, pca_fit)

TWO_PI = 2.0 * np.pi


def random_series(rng, order):
    return FourierSeries(order=order, a0=float(rng.standard_normal()),
                         a=rng.standard_normal(order),
                         b=rng.standard_normal(order))


class TestFitFourier:
    def test_pure_sine_recovered(self):
        phases = np.linspace(0.0, TWO_PI, 32, endpoint=False)
        fs = fit_fourier(phases, np.sin(phases), order=2)
        assert fs.b[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(fs.a0) < 1e-12
        assert np.all(np.abs(fs.a) < 1e-12)
        assert abs(fs.b[1]) < 1e-12

    def test_constant_goes_to_dc(self):
        phases = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        fs = fit_fourier(phases, np.full(16, 3.0), order=2)
        assert fs.a0 == pytest.approx(3.0, abs=1e-12)
        assert np.all(np.abs(fs.a) < 1e-12) and np.all(np.abs(fs.b) < 1e-12)

    def test_round_trip_recovers_coefficients(self):
        # Data generated from an order-3 series is matched exactly by an
        # order-4 fit; the extra harmonic must come back zero.
        rng = np.random.default_rng(3)
        truth = random_series(rng, 3)
        phases = rng.uniform(0.0, TWO_PI, 64)
        fit = fit_fourier(phases, eval_fourier(truth, phases), order=4)
        assert fit.a0 == pytest.approx(truth.a0, abs=1e-10)
        assert np.allclose(fit.a[:3], truth.a, atol=1e-10)
        assert np.allclose(fit.b[:3], truth.b, atol=1e-10)
        assert abs(fit.a[3]) < 1e-10 and abs(fit.b[3]) < 1e-10
        assert fit.fit_residual_rms < 1e-10

    def test_too_few_samples_rejected(self):
        phases = np.linspace(0.0, TWO_PI, 8, endpoint=False)
        with pytest.raises(ValueError):
            fit_fourier(phases, np.sin(phases), order=4)

    def test_degenerate_sampling_rejected(self):
        phases = np.zeros(20)
        with pytest.raises(ValueError, match="degenerate"):
            fit_fourier(phases, np.ones(20), order=2)

    def test_stored_residual_is_training_rms(self):
        rng = np.random.default_rng(11)
        phases = np.linspace(0.0, TWO_PI, 128, endpoint=False)
        values = np.sin(phases) + 0.01 * rng.standard_normal(128)
        fs = fit_fourier(phases, values, order=2)
        rms = np.sqrt(np.mean((eval_fourier(fs, phases) - values) ** 2))
        assert rms == pytest.approx(fs.fit_residual_rms, rel=1e-9)


class TestEvalDeriv:
    def test_periodicity(self):
        rng = np.random.default_rng(5)
        fs = random_series(rng, 4)
        phases = rng.uniform(0.0, TWO_PI, 20)
        assert np.allclose(eval_fourier(fs, phases),
                           eval_fourier(fs, phases + TWO_PI), atol=1e-12)

    def test_cosine_derivative_values(self):
        fs = FourierSeries(order=1, a0=0.0, a=np.array([1.0]),
                           b=np.array([0.0]))
        deriv = fs.derivative()
        assert deriv(0.0) == pytest.approx(0.0, abs=1e-15)
        assert deriv(np.pi / 2) == pytest.approx(-1.0, abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        h = 1e-4
        worst = 0.0
        for _ in range(100):
            fs = random_series(rng, int(rng.integers(1, 6)))
            phi = rng.uniform(0.0, TWO_PI, 10)
            fd = (eval_fourier(fs, phi + h)
                  - eval_fourier(fs, phi - h)) / (2.0 * h)
            worst = max(worst, np.max(np.abs(fs.derivative()(phi) - fd)))
        assert worst < 1e-6

    def test_derivative_series_consistent(self):
        rng = np.random.default_rng(9)
        fs = random_series(rng, 3)
        phi = rng.uniform(0.0, TWO_PI, 16)
        dseries = fs.derivative()
        k = np.arange(1, 4)
        assert dseries.order == fs.order and dseries.a0 == 0.0
        assert np.array_equal(dseries.a, k * fs.b)
        assert np.array_equal(dseries.b, -k * fs.a)
        assert np.array_equal(dseries(phi), eval_fourier(dseries, phi))


class TestPCA:
    def test_line_direction(self):
        t = np.linspace(-1.0, 1.0, 50)
        data = np.column_stack([t, 2.0 * t])
        basis, center, svals = pca_fit(data)
        direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert np.allclose(np.abs(basis[0] @ direction), 1.0, atol=1e-12)
        assert svals[1] < 1e-12
        assert np.allclose(center, 0.0, atol=1e-12)

    def test_isotropic_square(self):
        data = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        _, _, svals = pca_fit(data)
        assert svals[0] == pytest.approx(svals[1], rel=1e-12)

    def test_flat_coordinate_and_orthonormality(self):
        rng = np.random.default_rng(13)
        data = np.column_stack([rng.standard_normal(40),
                                rng.standard_normal(40), np.zeros(40)])
        basis, _, svals = pca_fit(data)
        assert svals[2] < 1e-12
        assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)


class TestPhaseEstimator:
    def circle(self, n=256):
        t = np.linspace(0.0, TWO_PI, n, endpoint=False)
        return t, np.column_stack([np.cos(t), np.sin(t)])

    def test_circle_phase_is_time(self):
        t, data = self.circle()
        est = PhaseEstimator.fit(data)
        phases = estimate_phases(est, data)
        assert np.allclose(phases, t, atol=1e-9)

    def test_training_cycle_monotone_winding_one(self):
        t, data = self.circle()
        est = PhaseEstimator.fit(data)
        unwrapped = np.unwrap(estimate_phases(est, data))
        assert np.all(np.diff(unwrapped) > 0)
        travel = unwrapped[-1] - unwrapped[0]
        assert travel == pytest.approx(TWO_PI * (len(t) - 1) / len(t),
                                       rel=1e-9)

    def test_reversed_cycle_still_increases(self):
        t, data = self.circle()
        est = PhaseEstimator.fit(data[::-1])
        unwrapped = np.unwrap(estimate_phases(est, data[::-1]))
        assert np.all(np.diff(unwrapped) > 0)

    def test_non_winding_data_rejected(self):
        # out-and-back along an arc: net angular travel about the centroid
        # cancels even though the samples are honestly two-dimensional
        t = np.linspace(0.0, 1.0, 65)
        theta = 1.25 * (1.0 - np.abs(1.0 - 2.0 * t))
        data = np.column_stack([np.cos(theta), np.sin(theta)])
        with pytest.raises(ValueError, match="wind"):
            PhaseEstimator.fit(data)

    def test_center_query_rejected(self):
        _, data = self.circle()
        est = PhaseEstimator.fit(data)
        with pytest.raises(ValueError, match="center"):
            estimate_phases(est, est.center)

    def test_batch_matches_scalar(self):
        # one sample gives a 0-d phase equal to its row of the block call,
        # and any leading dims are kept
        _, data = self.circle(64)
        est = PhaseEstimator.fit(data)
        batch = estimate_phases(est, data[:10])
        for k in range(10):
            one = estimate_phases(est, data[k])
            assert np.ndim(one) == 0 and one == batch[k]
        assert np.array_equal(
            estimate_phases(est, data[:10].reshape(2, 5, 2)),
            batch.reshape(2, 5))
        # random 6-dimensional rows and an order-8 series, where a
        # matrix-vector and a matrix-matrix product round differently
        rng = np.random.default_rng(23)
        plane = np.linalg.qr(rng.standard_normal((6, 2)))[0].T
        _, circle = self.circle(200)
        est = PhaseEstimator.fit(circle @ plane
                                 + 0.01 * rng.standard_normal((200, 6)))
        rows = rng.standard_normal((400, 6))
        batch = estimate_phases(est, rows)
        assert all(estimate_phases(est, r) == b for r, b in zip(rows, batch))
        fs = random_series(rng, 8)
        phases = rng.uniform(0.0, TWO_PI, 400)
        values = eval_fourier(fs, phases)
        assert all(eval_fourier(fs, p) == v for p, v in zip(phases, values))

