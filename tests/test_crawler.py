import numpy as np
import pytest

from regait.constraints import solve_velocity
from regait.crawler import (CrawlerParams, angle_difference, apply_jam,
                            crawler_stack, design_constraints, foot_matrix,
                            foot_residual, foot_residual_series,
                            gait_perturbation_provider, group_velocity,
                            initial_configuration, limb_endpoints,
                            physical_constraints, playback_baseline, recover,
                            recovery_field, reference_gait, shape_jacobian,
                            template_jacobian, template_map, template_traces)
from regait.integrate import IntegrationError


def fd_rows(fn, state, h=1e-7):
    state = np.asarray(state, dtype=float)
    out0 = np.asarray(fn(state))
    jac = np.empty((len(out0), len(state)))
    for i in range(len(state)):
        dx = np.zeros_like(state)
        dx[i] = h
        jac[:, i] = (np.asarray(fn(state + dx))
                     - np.asarray(fn(state - dx))) / (2.0 * h)
    return jac


class TestKinematics:
    def test_default_geometry(self, cparams):
        assert cparams.l1 == 2.5 + 2.0j
        assert cparams.l2 == -2.5 + 2.0j
        assert cparams.h1 == 1.0 + 0.0j
        assert cparams.h2 == -1.0 + 0.0j

    def test_straight_arms(self, cparams):
        f1, f2 = limb_endpoints(cparams, np.zeros(9))
        assert f1 == pytest.approx(4.0 + 0.0j)
        assert f2 == pytest.approx(2.0 + 0.0j)

    def test_translation_equivariance(self, cparams):
        state = np.zeros(9)
        state[:2] = [0.7, -1.3]
        f1, f2 = limb_endpoints(cparams, state)
        assert f1 == pytest.approx(4.0 + 0.0j + (0.7 - 1.3j))
        assert f2 == pytest.approx(2.0 + 0.0j + (0.7 - 1.3j))

    def test_half_turn(self, cparams):
        state = np.zeros(9)
        state[2] = np.pi
        f1, f2 = limb_endpoints(cparams, state)
        assert f1 == pytest.approx(-4.0 + 0.0j, abs=1e-12)
        assert f2 == pytest.approx(-2.0 + 0.0j, abs=1e-12)

    def test_rigid_motion_invariance(self, cparams):
        rng = np.random.default_rng(0)
        state = np.concatenate([rng.standard_normal(3),
                                rng.uniform(-1.0, 1.0, 6)])
        phi, c = 0.8, 1.5 - 0.4j
        rot = np.exp(1j * phi)
        moved_params = CrawlerParams(l1=rot * cparams.l1 + c,
                                     l2=rot * cparams.l2 + c,
                                     h1=cparams.h1, h2=cparams.h2)
        moved = state.copy()
        z = rot * (state[0] + 1j * state[1]) + c
        moved[0], moved[1], moved[2] = z.real, z.imag, state[2] + phi
        r0 = np.linalg.norm(foot_residual(cparams, state))
        r1 = np.linalg.norm(foot_residual(moved_params, moved))
        assert r1 == pytest.approx(r0, abs=1e-12)
        t0 = template_map(cparams, state)
        t1 = template_map(moved_params, moved)
        assert t1.r == pytest.approx(t0.r, abs=1e-12)
        assert t1.alpha == pytest.approx(t0.alpha, abs=1e-12)


class TestPhysicalConstraints:
    def test_four_rows_zero_gamma(self, cparams):
        rows, res = physical_constraints(cparams, np.zeros(9))
        assert len(rows) == 4
        assert all(row.value == 0.0 for row in rows)
        assert res.shape == (4,)

    def test_rows_match_finite_difference(self, cparams):
        rng = np.random.default_rng(1)
        state = np.concatenate([rng.standard_normal(3),
                                rng.uniform(-1.0, 1.0, 6)])
        jac = foot_matrix(cparams, state)
        num = fd_rows(lambda s: foot_residual(cparams, s), state)
        assert np.allclose(jac, num, atol=1e-7)

    def test_arm_blocks_decoupled(self, cparams):
        rng = np.random.default_rng(2)
        state = rng.standard_normal(9)
        jac = foot_matrix(cparams, state)
        assert np.abs(jac[:2, 6:]).max() == 0.0  # arm 1 rows vs arm 2 joints
        assert np.abs(jac[2:, 3:6]).max() == 0.0

    def test_residual_zero_at_ik_solution(self, cparams):
        x0 = initial_configuration(cparams)
        assert np.abs(foot_residual(cparams, x0)).max() < 1e-10


class TestTemplateMap:
    def test_straight_arms_value(self, cparams):
        out = template_map(cparams, np.zeros(9))
        assert out.r == pytest.approx(3.0, abs=1e-12)
        assert out.alpha == pytest.approx(0.0, abs=1e-12)

    def test_start_configuration_value(self, cparams):
        x0 = initial_configuration(cparams)
        out = template_map(cparams, x0)
        # Both feet anchored at height 2 with the body at the origin: the
        # midpoint sits straight above the hips at distance 2.
        assert out.r == pytest.approx(2.0, abs=1e-9)
        assert out.alpha == pytest.approx(np.pi / 2, abs=1e-9)

    def test_arm_swap_symmetry(self, cparams):
        rng = np.random.default_rng(3)
        state = np.concatenate([np.zeros(3), rng.uniform(-1.0, 1.0, 6)])
        swapped_params = CrawlerParams(l1=cparams.l1, l2=cparams.l2,
                                       h1=cparams.h2, h2=cparams.h1)
        swapped = state.copy()
        swapped[3:6], swapped[6:9] = state[6:9].copy(), state[3:6].copy()
        a = template_map(cparams, state)
        b = template_map(swapped_params, swapped)
        assert b.r == pytest.approx(a.r, abs=1e-12)
        assert b.alpha == pytest.approx(a.alpha, abs=1e-12)

    def test_midpoint_at_origin_rejected(self, cparams):
        state = np.zeros(9)
        state[3] = np.pi  # arm 1 folds to -2, arm 2 reaches +2
        with pytest.raises(ValueError, match="midpoint"):
            template_map(cparams, state)

    def test_jacobians_match_finite_difference(self, cparams):
        rng = np.random.default_rng(4)
        state = np.concatenate([rng.standard_normal(3),
                                rng.uniform(-0.8, 0.8, 6)])

        def outputs(s):
            out = template_map(cparams, s)
            return np.array([out.r, out.alpha])

        num = fd_rows(outputs, state)
        assert np.allclose(shape_jacobian(cparams, state), num[:, 3:],
                           atol=1e-6)
        assert np.abs(num[:, :3]).max() < 1e-7  # body-frame: pose-invariant
        full = template_jacobian(cparams, state)
        assert np.allclose(full[3:], num, atol=1e-6)

    def test_batched_traces_match_scalar(self, cparams):
        rng = np.random.default_rng(5)
        X = np.concatenate([rng.standard_normal((7, 3)),
                            rng.uniform(-1.0, 1.0, (7, 6))], axis=1)
        r, a = template_traces(cparams, X)
        for k in range(7):
            out = template_map(cparams, X[k])
            assert r[k] == pytest.approx(out.r, abs=1e-12)
            assert a[k] == pytest.approx(out.alpha, abs=1e-12)


class TestDesignRows:
    def test_symmetry_direction_annihilated(self, cparams, gait):
        x0 = gait.initial_state
        des = design_constraints(cparams, x0)
        v = np.zeros(9)
        v[0] = 1.0  # unit x-velocity
        v[2] = 1.0  # with equal theta0 rate: the x-theta0 symmetry direction
        assert abs(des.rows[4] @ v) < 1e-12

    def test_template_rate_rows_definitional(self, cparams, gait):
        rng = np.random.default_rng(6)
        x0 = gait.initial_state
        v = rng.standard_normal(9)
        rdot, alphadot = shape_jacobian(cparams, x0) @ v[3:]
        des = design_constraints(cparams, x0, rates=(rdot, alphadot))
        assert abs(des.rows[2] @ v - des.gamma[2]) < 1e-12
        assert abs(des.rows[3] @ v - des.gamma[3]) < 1e-12

    def test_pose_block_rank_three_along_reference(self, cparams, gait):
        for k in range(0, len(gait.t), len(gait.t) // 16):
            des = design_constraints(cparams, gait.x[k])
            svals = np.linalg.svd(des.omega_g, compute_uv=False)
            assert svals[-1] > 1e-3

    def test_pose_block_determinant_at_start(self, cparams, gait):
        des = design_constraints(cparams, gait.initial_state)
        assert np.linalg.det(des.omega_g) == pytest.approx(1.0, abs=1e-9)

    def test_midpoint_rows_are_foot_row_averages(self, cparams, gait):
        # The template's first two rows differentiate the world-frame limb
        # midpoint, so they must equal the mean of the matching foot rows.
        for k in (0, len(gait.t) // 3, 2 * len(gait.t) // 3):
            A = foot_matrix(cparams, gait.x[k])
            des = design_constraints(cparams, gait.x[k])
            assert np.allclose(des.rows[0], 0.5 * (A[0] + A[2]), atol=1e-12)
            assert np.allclose(des.rows[1], 0.5 * (A[1] + A[3]), atol=1e-12)


class TestInitialConfiguration:
    def test_feasible(self, cparams):
        x0 = initial_configuration(cparams)
        assert x0.shape == (9,)
        assert np.allclose(x0[:3], 0.0)
        assert np.abs(foot_residual(cparams, x0)).max() < 1e-12

    def test_unreachable_anchors_rejected(self):
        far = CrawlerParams(l1=100.0 + 100.0j, l2=-2.5 + 2.0j,
                            h1=1.0, h2=-1.0)
        with pytest.raises(ValueError, match="kinematics"):
            initial_configuration(far)


class TestReferenceGait:
    def test_feet_pinned_throughout(self, cparams, gait):
        assert foot_residual_series(cparams, gait.x).max() < 1e-9

    def test_body_moves(self, gait):
        assert np.ptp(gait.x[:, 0]) > 1e-3
        assert np.ptp(gait.x[:, 2]) > 1e-3

    def test_recorded_rates_match_trace_derivative(self, gait):
        # rdot is recorded from the field; differencing r must agree.
        dt = gait.t[1] - gait.t[0]
        fd = (gait.r[2:] - gait.r[:-2]) / (2.0 * dt)
        assert np.abs(fd - gait.rdot[1:-1]).max() < 1e-5

    def test_rates_only_on_grid(self, gait):
        gait.rates_at(float(gait.t[3]))
        with pytest.raises(ValueError, match="grid"):
            gait.rates_at(float(gait.t[3]) + 0.3e-3)

    def test_full_grid_subsamples(self, gait):
        full = gait.full_grid()
        assert np.array_equal(full.x, gait.x[::2])
        assert full.dt == pytest.approx(gait.dt)

    def test_template_curves_vary(self, gait):
        assert np.ptp(gait.r) > 0.05
        assert np.ptp(gait.alpha) > 0.01


class TestJam:
    def test_row_is_joint_basis_vector(self):
        row = apply_jam(3)
        expected = np.zeros(9)
        expected[5] = 1.0
        assert np.array_equal(row.coefficients, expected)
        assert row.value == 0.0

    def test_index_validation(self):
        for bad in (0, 7, -1):
            with pytest.raises(ValueError):
                apply_jam(bad)

    def test_solve_velocity_freezes_joint(self, cparams, gait):
        stack = crawler_stack(cparams, gait, jam=1)
        out = solve_velocity(stack, 0.0, gait.initial_state)
        assert abs(out.velocity[3]) < 1e-12
        # feet + jam + template rows leave one slack direction (two of the
        # ten rows are midpoint combinations of foot rows)
        assert len(out.active_rows) == 8
        assert out.underdetermined


@pytest.fixture(scope="module")
def recovered(cparams, gait):
    return recover(cparams, gait, jam=1)


class TestRecovery:
    def test_template_traces_reproduced(self, gait, recovered):
        rms_r = np.sqrt(np.mean((recovered.r - gait.r[::2]) ** 2))
        rms_a = np.sqrt(np.mean(
            angle_difference(recovered.alpha, gait.alpha[::2]) ** 2))
        assert rms_r < 1e-6
        assert rms_a < 1e-6

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known limitation: under jam 3 the 7x6 joint-rate system of the "
        "recovery field turns near-singular at t ~ 0.019 s and the template "
        "r trace drifts to RMS 4.8e-4"))
    def test_jam3_template_traces_reproduced(self, cparams, gait):
        rec = recover(cparams, gait, jam=3)
        assert np.sqrt(np.mean((rec.r - gait.r[::2]) ** 2)) < 1e-6

    def test_feet_and_jam_enforced(self, cparams, recovered):
        X = recovered.trajectory.x
        assert foot_residual_series(cparams, X).max() < 1e-9
        assert np.abs(X[:, 3] - X[0, 3]).max() < 1e-9

    def test_designed_rows_satisfied(self, recovered):
        assert recovered.designed_residual.max() < 1e-6

    def test_joint_solution_differs_from_reference(self, gait, recovered):
        drift = np.abs(recovered.trajectory.x[:, 4:] - gait.x[::2, 4:])
        assert drift.max() > 1e-3

    def test_matches_stack_solve(self, cparams, gait, recovered):
        # The closed-form rate law must agree with the generic prioritized
        # velocity solve on the damaged stack, state by state.
        field = recovery_field(cparams, gait, 1)
        stack = crawler_stack(cparams, gait, jam=1)
        idx = range(0, len(recovered.trajectory.t),
                    len(recovered.trajectory.t) // 8)
        for k in idx:
            t = float(recovered.trajectory.t[k])
            x = recovered.trajectory.x[k]
            v_field = field(t, x)
            out = solve_velocity(stack, t, x)
            assert np.abs(v_field - out.velocity).max() < 1e-8

    def test_group_velocity_recovered(self, cparams, gait, recovered):
        desired = gait.v[::2, :3]
        achieved = group_velocity(recovered.trajectory)
        err = np.linalg.norm(achieved - desired, axis=1)
        assert np.sqrt(np.mean(err ** 2)) < 1e-4

    def test_jam_zero_returns_reference(self, cparams, gait):
        out = recover(cparams, gait, jam=0)
        full = gait.full_grid()
        assert np.array_equal(out.trajectory.x, full.x)
        assert np.array_equal(out.trajectory.t, full.t)
        assert np.array_equal(out.r, gait.r[::2])

    def test_invalid_jam_rejected(self, cparams, gait):
        with pytest.raises(ValueError, match="1..6"):
            recover(cparams, gait, jam=7)

    def test_rank_loss_detected(self, cparams, gait):
        # beta = theta0 + alpha with r*sin(beta) = 1 makes the pose block
        # singular; rotating the start body frame reaches that locus.
        x = gait.initial_state.copy()
        out = template_map(cparams, x)
        x[2] = np.arcsin(1.0 / out.r) - out.alpha
        field = recovery_field(cparams, gait, 1)
        with pytest.raises(IntegrationError, match="rank"):
            field(0.0, x)


class TestBaseline:
    def test_no_jam_reproduces_reference(self, cparams, gait):
        base = playback_baseline(cparams, gait, jam=0)
        assert np.abs(base.x - gait.x[::2]).max() < 1e-9

    def test_jam_degrades_group_motion(self, cparams, gait, recovered):
        base = playback_baseline(cparams, gait, jam=1)
        desired = gait.v[::2, :3]
        err_base = np.linalg.norm(group_velocity(base) - desired, axis=1)
        err_rec = np.linalg.norm(
            group_velocity(recovered.trajectory) - desired, axis=1)
        rms_base = np.sqrt(np.mean(err_base ** 2))
        rms_rec = np.sqrt(np.mean(err_rec ** 2))
        assert rms_base > 10.0 * rms_rec

    def test_jammed_joint_held(self, cparams, gait):
        base = playback_baseline(cparams, gait, jam=2)
        assert np.ptp(base.x[:, 4]) == 0.0

    def test_invalid_jam_rejected(self, cparams, gait):
        with pytest.raises(ValueError):
            playback_baseline(cparams, gait, jam=9)


class TestPerturbationProvider:
    def test_zero_amplitudes_match_baseline(self, cparams, gait):
        provider = gait_perturbation_provider(cparams, gait, jam=1, stride=4)
        traj = provider(np.zeros(5))
        base = playback_baseline(cparams, gait, jam=1)
        assert np.allclose(traj.x, base.x[::4], atol=1e-8)
        assert np.array_equal(traj.t, base.t[::4])

    def test_jammed_joint_ignores_commands(self, cparams, gait):
        provider = gait_perturbation_provider(cparams, gait, jam=1, stride=8)
        traj = provider(0.3 * np.ones(5))
        assert np.ptp(traj.x[:, 3]) == 0.0

    def test_start_state_unchanged(self, cparams, gait):
        provider = gait_perturbation_provider(cparams, gait, jam=1, stride=8)
        a = provider(np.zeros(5))
        b = provider(np.array([0.4, -0.2, 0.1, 0.3, -0.1]))
        assert np.allclose(a.x[0], b.x[0], atol=1e-10)
