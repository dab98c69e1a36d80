import numpy as np
import pytest

from regait.trajectory import Trajectory, TrajectoryFormatError


def make_traj(n=64, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(t=np.linspace(0.0, 1.0, n),
                      x=rng.standard_normal((n, dim)))


class TestBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Trajectory(t=np.zeros(3), x=np.zeros((4, 2)))

    def test_scalar_states_promoted(self):
        traj = Trajectory(t=np.array([0.0, 1.0]), x=np.array([1.0, 2.0]))
        assert traj.x.shape == (2, 1)
        assert traj.dim == 1

    def test_dt_uniform(self):
        traj = make_traj()
        assert traj.dt == pytest.approx(1.0 / 63.0)

    def test_dt_rejects_nonuniform(self):
        traj = Trajectory(t=np.array([0.0, 0.1, 0.25]), x=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="uniform"):
            traj.dt


class TestVelocities:
    def test_exact_on_quadratics(self):
        # Second-order differences (including the one-sided endpoint
        # formulas) are exact for polynomials of degree <= 2.
        t = np.linspace(0.0, 2.0, 41)
        x = np.column_stack([1.0 + 2.0 * t + 3.0 * t ** 2, -t ** 2])
        traj = Trajectory(t=t, x=x)
        v = traj.velocities()
        assert np.allclose(v[:, 0], 2.0 + 6.0 * t, atol=1e-10)
        assert np.allclose(v[:, 1], -2.0 * t, atol=1e-10)

    def test_needs_three_samples(self):
        traj = Trajectory(t=np.array([0.0, 1.0]), x=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            traj.velocities()


class TestCsvRoundTrip:
    def test_bit_for_bit(self, tmp_path):
        traj = make_traj(seed=17)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        assert np.array_equal(back.t, traj.t)
        assert np.array_equal(back.x, traj.x)

    def test_header_format(self, tmp_path):
        traj = make_traj(dim=2)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        assert path.read_text().splitlines()[0] == "t,q_0,q_1"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,q_0\n0,1\n")
        with pytest.raises(TrajectoryFormatError, match="line 1"):
            Trajectory.from_csv(path)

    def test_field_count_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,q_0\n0,1\n0.5,2,3\n")
        with pytest.raises(TrajectoryFormatError, match="line 3"):
            Trajectory.from_csv(path)

    def test_non_numeric_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,q_0\n0,1\nnope,2\n")
        with pytest.raises(TrajectoryFormatError, match="line 3"):
            Trajectory.from_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TrajectoryFormatError, match="line 1"):
            Trajectory.from_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("t,q_0\n")
        with pytest.raises(TrajectoryFormatError, match="no data"):
            Trajectory.from_csv(path)
