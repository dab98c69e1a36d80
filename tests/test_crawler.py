import numpy as np
import pytest

from regait import crawler
from regait.constraints import (ConstraintStack, Priority, constant_block,
                                evaluate_with_classes, rank_report, residual,
                                solve_velocity)
from regait.encoding import learn_constraints, learned_block, record_eta
from regait.crawler import (CrawlerParams, angle_difference, apply_jam,
                            crawler_stack, design_constraints, foot_matrix,
                            foot_residual, foot_residual_series,
                            gait_perturbation_provider, group_velocity,
                            initial_configuration, limb_endpoints,
                            physical_block, playback_baseline, recover,
                            recovery_field, reference_gait,
                            template_encoding_map, template_traces)
from regait.integrate import IntegrationError
from regait.optimize import _trapz, constraint_violation_cost
from regait.signals import PhaseEstimator


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
        t0 = template_traces(cparams, state)
        t1 = template_traces(moved_params, moved)
        assert np.allclose(t1, t0, rtol=0.0, atol=1e-12)


class TestPhysicalConstraints:
    def test_four_rows_zero_gamma(self, cparams):
        omega, gamma = physical_block(cparams).rows(0.0, np.zeros(9))
        assert omega.shape == (4, 9)
        assert np.array_equal(gamma, np.zeros(4))
        assert np.array_equal(omega, foot_matrix(cparams, np.zeros(9)))

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
        (r,), (alpha,) = template_traces(cparams, np.zeros(9))
        assert r == pytest.approx(3.0, abs=1e-12)
        assert alpha == pytest.approx(0.0, abs=1e-12)

    def test_start_configuration_value(self, cparams):
        x0 = initial_configuration(cparams)
        (r,), (alpha,) = template_traces(cparams, x0)
        # Both feet anchored at height 2 with the body at the origin: the
        # midpoint sits straight above the hips at distance 2.
        assert r == pytest.approx(2.0, abs=1e-9)
        assert alpha == pytest.approx(np.pi / 2, abs=1e-9)

    def test_arm_swap_symmetry(self, cparams):
        rng = np.random.default_rng(3)
        state = np.concatenate([np.zeros(3), rng.uniform(-1.0, 1.0, 6)])
        swapped_params = CrawlerParams(l1=cparams.l1, l2=cparams.l2,
                                       h1=cparams.h2, h2=cparams.h1)
        swapped = state.copy()
        swapped[3:6], swapped[6:9] = state[6:9].copy(), state[3:6].copy()
        a = template_traces(cparams, state)
        b = template_traces(swapped_params, swapped)
        assert np.allclose(b, a, rtol=0.0, atol=1e-12)

    def test_midpoint_at_origin_rejected(self, cparams):
        state = np.zeros(9)
        state[3] = np.pi  # arm 1 folds to -2, arm 2 reaches +2
        for template in (template_encoding_map(cparams),
                         lambda s: template_traces(cparams, s)):
            with pytest.raises(ValueError, match="midpoint"):
                template(state)

    def test_jacobians_match_finite_difference(self, cparams):
        rng = np.random.default_rng(4)
        state = np.concatenate([rng.standard_normal(3),
                                rng.uniform(-0.8, 0.8, 6)])

        num = fd_rows(lambda s: np.concatenate(template_traces(cparams, s)),
                      state)
        assert np.allclose(template_encoding_map(cparams)(state), num,
                           atol=1e-6)
        assert np.abs(num[:, :3]).max() < 1e-7  # body-frame: pose-invariant

    def test_batched_traces_match_scalar(self, cparams):
        rng = np.random.default_rng(5)
        X = np.concatenate([rng.standard_normal((7, 3)),
                            rng.uniform(-1.0, 1.0, (7, 6))], axis=1)
        r, a = template_traces(cparams, X)
        for k in range(7):
            assert np.array_equal(template_traces(cparams, X[k]),
                                  ([r[k]], [a[k]]))
        # the body-frame foot midpoint, from the world-frame feet
        f1, f2 = limb_endpoints(cparams, X)
        w = np.exp(-1j * X[:, 2]) * (0.5 * (f1 + f2) - X[:, 0] - 1j * X[:, 1])
        assert np.allclose(r, np.abs(w), rtol=0.0, atol=1e-12)
        assert np.allclose(a, np.angle(w), rtol=0.0, atol=1e-12)

    def test_traces_match_recorded_gait(self, cparams, gait):
        # the recorded gait evaluates one state at a time; a block must give
        # the same bits
        r, alpha = template_traces(cparams, gait.x)
        assert np.array_equal(r, gait.r)
        assert np.array_equal(alpha, gait.alpha)

    def test_jacobian_block_slices_match_single_states(self, cparams, gait):
        dphi = template_encoding_map(cparams)
        X = gait.x[::97]
        block = dphi(X)
        assert block.shape == (len(X), 2, 9)
        for k in range(len(X)):
            one = dphi(X[k])
            assert one.shape == (2, 9)
            assert np.abs(block[k] - one).max() <= 1e-15 * np.abs(one).max()

    def test_record_eta_matches_per_sample_definition(self, cparams, gait):
        dphi = template_encoding_map(cparams)
        full = gait.full_grid()
        v = full.velocities()
        eta = record_eta(dphi, crawler.TEMPLATE_FORMS, full)
        want = np.array([[form @ dphi(x) @ vk for x, vk in zip(full.x, v)]
                         for form in crawler.TEMPLATE_FORMS])
        assert eta.shape == want.shape
        assert np.abs(eta - want).max() <= 1e-15 * np.abs(want).max()


class TestDesignRows:
    def test_symmetry_direction_annihilated(self, cparams, gait):
        x0 = gait.initial_state
        rows, _ = design_constraints(cparams, x0)
        v = np.zeros(9)
        v[0] = 1.0  # unit x-velocity
        v[2] = 1.0  # with equal theta0 rate: the x-theta0 symmetry direction
        assert abs(rows[4] @ v) < 1e-12

    def test_template_rate_rows_definitional(self, cparams, gait):
        rng = np.random.default_rng(6)
        x0 = gait.initial_state
        v = rng.standard_normal(9)
        rdot, alphadot = template_encoding_map(cparams)(x0) @ v
        rows, gamma = design_constraints(cparams, x0, rates=(rdot, alphadot))
        assert abs(rows[2] @ v - gamma[2]) < 1e-12
        assert abs(rows[3] @ v - gamma[3]) < 1e-12

    def test_pose_block_rank_three_along_reference(self, cparams, gait):
        for k in range(0, len(gait.t), len(gait.t) // 16):
            pose = design_constraints(cparams, gait.x[k])[0][[0, 1, 4], :3]
            svals = np.linalg.svd(pose, compute_uv=False)
            assert svals[-1] > 1e-3

    def test_pose_block_determinant_at_start(self, cparams, gait):
        rows, _ = design_constraints(cparams, gait.initial_state)
        pose = rows[[0, 1, 4], :3]  # pose block of rows 1, 2, 5
        assert np.linalg.det(pose) == pytest.approx(1.0, abs=1e-9)

    def test_midpoint_rows_are_foot_row_averages(self, cparams, gait):
        # The template's first two rows differentiate the world-frame limb
        # midpoint, so they must equal the mean of the matching foot rows.
        for k in (0, len(gait.t) // 3, 2 * len(gait.t) // 3):
            A = foot_matrix(cparams, gait.x[k])
            rows, _ = design_constraints(cparams, gait.x[k])
            assert np.allclose(rows[0], 0.5 * (A[0] + A[2]), atol=1e-12)
            assert np.allclose(rows[1], 0.5 * (A[1] + A[3]), atol=1e-12)


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

    @pytest.mark.parametrize("kw", [{"l1": complex(np.nan, 1.0)},
                                    {"l2": complex(2.0, np.inf)},
                                    {"h1": np.inf}, {"h2": np.nan}])
    def test_non_finite_points_rejected(self, kw):
        [name] = kw
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            CrawlerParams(**kw)


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
        rdot, alphadot = gait.rates_at(gait.t[:5])
        assert np.array_equal(rdot, gait.rdot[:5])
        assert np.array_equal(alphadot, gait.alphadot[:5])
        times = gait.t[:5].copy()
        times[3] += 0.3e-3
        with pytest.raises(ValueError,
                           match=f"time {times[3]} is not on the recorded"):
            gait.rates_at(times)
        with pytest.raises(ValueError, match="time nan is not on the"):
            gait.rates_at(np.array([0.0, np.nan]))

    def test_full_grid_subsamples(self, gait):
        full = gait.full_grid()
        assert np.array_equal(full.x, gait.x[::2])
        assert full.dt == pytest.approx(gait.dt)

    def test_template_curves_vary(self, gait):
        assert np.ptp(gait.r) > 0.05
        assert np.ptp(gait.alpha) > 0.01


class TestJam:
    def test_row_is_joint_basis_vector(self, cparams):
        row = apply_jam(3)
        expected = np.zeros(9)
        expected[5] = 1.0
        assert np.array_equal(row, expected)
        omega, gamma = physical_block(cparams, jam=3).rows(0.0, np.zeros(9))
        assert np.array_equal(omega[-1], expected)
        assert np.array_equal(gamma, np.zeros(5))

    def test_index_validation(self):
        # a non-integer index is rejected, not truncated to a joint
        for bad in (0, 7, -1, 2.9, 1.7, True):
            with pytest.raises(ValueError, match=f"got {bad!r}"):
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
        for bad in (7, 2.9):
            with pytest.raises(ValueError, match="1..6"):
                recover(cparams, gait, jam=bad)

    def test_rank_loss_detected(self, cparams, gait):
        # beta = theta0 + alpha with r*sin(beta) = 1 makes the pose block
        # singular; rotating the start body frame reaches that locus.
        x = gait.initial_state.copy()
        (r,), (alpha,) = template_traces(cparams, x)
        x[2] = np.arcsin(1.0 / r) - alpha
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

    def test_no_jam_matches_the_baseline(self, cparams, gait):
        # jam=0 used to freeze joint 6 through index -1
        provider = gait_perturbation_provider(cparams, gait, jam=0, stride=4)
        base = playback_baseline(cparams, gait, jam=0)
        assert np.array_equal(provider(np.zeros(6)).x, base.x[::4])

    def test_extra_amplitudes_rejected(self, cparams, gait):
        # at most one amplitude per free joint: a surplus raises, not dropped
        for jam, count in ((1, 6), (0, 7)):
            provider = gait_perturbation_provider(cparams, gait, jam=jam,
                                                  stride=8)
            with pytest.raises(ValueError,
                               match=f"{count} amplitudes for {count - 1} "
                                     "free joints"):
                provider(np.full(count, 9.0))

    def test_invalid_jam_rejected_when_built(self, cparams, gait):
        with pytest.raises(ValueError, match="1..6"):
            gait_perturbation_provider(cparams, gait, jam=7)


class TestPoseFit:
    # Amplitudes inside the search bounds whose feet stay far from their
    # anchors: an iterative Gauss-Newton fit converges only linearly here
    # and did not reach a 1e-12 step in 60 iterations at sample 188.
    HARD_MU = np.array([0.5, -0.44, -0.03, 0.96, 0.92])

    def test_hard_amplitudes_reach_the_least_squares_minimum(self, cparams,
                                                             gait):
        provider = gait_perturbation_provider(cparams, gait, jam=1, stride=4)
        X = provider(self.HARD_MU).x
        assert np.all(np.isfinite(X))
        grad = [foot_matrix(cparams, s)[:, :3].T @ foot_residual(cparams, s)
                for s in X]
        assert np.abs(grad).max() < 1e-10
        sq = np.array([foot_residual(cparams, s) @ foot_residual(cparams, s)
                       for s in X])
        # every heading on a grid, each with its best translation
        body = np.column_stack([np.zeros((len(X), 3)), X[:, 3:]])
        p1, p2 = limb_endpoints(cparams, body)
        rot = np.exp(1j * np.linspace(-np.pi, np.pi, 3600,
                                      endpoint=False))[:, None]
        z = 0.5 * (cparams.l1 + cparams.l2) - 0.5 * rot * (p1 + p2)
        grid = (np.abs(z + rot * p1 - cparams.l1) ** 2
                + np.abs(z + rot * p2 - cparams.l2) ** 2)
        assert np.all(sq <= grid.min(axis=0) + 1e-12)

    def test_hard_amplitudes_cost_is_not_the_penalty(self, cparams, gait):
        # The cost is one batched residual over the rollout; it must equal
        # its definition, the trapezoid integral of single-state residuals.
        stack = crawler_stack(cparams, gait, jam=1)
        provider = gait_perturbation_provider(cparams, gait, jam=1, stride=4)
        classes = (Priority.DESIGNED,)
        cost = constraint_violation_cost(stack, provider, classes=classes)
        value = cost(self.HARD_MU)
        assert np.isfinite(value) and value < 1e6
        for mu in (np.zeros(5), self.HARD_MU):
            traj = provider(mu)
            sq = [r @ r for r in (residual(stack, t, x, v, classes=classes)
                                  for t, x, v in zip(traj.t, traj.x,
                                                     traj.velocities()))]
            want = _trapz(sq, traj.t)
            assert abs(cost(mu) - want) <= 1e-13 * want

    @pytest.mark.parametrize("row", [
        # body-frame feet both at -2: 1 - 3 and -1 + (-1 + 1 - 1)
        (np.pi, 0.0, 0.0, np.pi, np.pi, np.pi),
        (np.nan,) * 6,
    ])
    def test_undefined_fit_names_the_sample(self, cparams, gait, row):
        thetas = np.repeat(gait.x[:1, 3:], 3, axis=0)
        thetas[1] = row
        with pytest.raises(ValueError, match="undefined at sample 1:"):
            crawler._pose_refit_rollout(cparams, thetas, gait.x[0, :3])


@pytest.fixture(scope="module")
def learned(cparams, gait):
    full = gait.full_grid()
    phase = PhaseEstimator.fit(crawler.shape_features(full.x))
    lc = learn_constraints(crawler.template_encoding_map(cparams),
                           crawler.TEMPLATE_FORMS, full, phase, order=4,
                           phase_features=crawler.shape_features)
    return learned_block(crawler.template_encoding_map(cparams), lc,
                         phase_features=crawler.shape_features)


class TestBatchedBlocks:
    @pytest.mark.parametrize("kind", ["constant", "feet", "feet + jam 1",
                                      "designed", "learned"])
    def test_batch_slices_match_single_states(self, cparams, gait, learned,
                                              kind):
        block = {
            "constant": lambda: constant_block(
                Priority.PHYSICAL, np.arange(18.0).reshape(2, 9), [1.0, 2.0]),
            "feet": lambda: physical_block(cparams),
            "feet + jam 1": lambda: physical_block(cparams, jam=1),
            "designed": lambda: crawler.designed_block(cparams, gait),
            "learned": lambda: learned,
        }[kind]()
        stack = ConstraintStack(ambient_dim=9, blocks=[block])
        T, X = gait.t[::97], gait.x[::97]
        omega, gamma, classes = evaluate_with_classes(stack, T, X)
        assert omega.shape[0] == gamma.shape[0] == len(T)
        for k in range(len(T)):
            one = evaluate_with_classes(stack, T[k], X[k])
            for got, want in zip((omega[k], gamma[k]), one[:2]):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
            assert classes == one[2]


class TestStackDiagnostics:
    def test_designed_residual_matches_full_evaluation(self, cparams, gait):
        stack = crawler_stack(cparams, gait, jam=1)
        for k in range(0, len(gait.t), 250):
            t, x, v = gait.t[k], gait.x[k], gait.v[k]
            omega, gamma, classes = evaluate_with_classes(stack, t, x)
            keep = [c == Priority.DESIGNED for c in classes]
            want = omega[keep] @ v - gamma[keep]
            got = residual(stack, t, x, v, classes=(Priority.DESIGNED,))
            assert np.array_equal(got, want)

    def test_rank_report_counts_rank_over_higher_classes(self, cparams, gait):
        stack = crawler_stack(cparams, gait, jam=1)
        x0 = gait.initial_state
        rep = rank_report(stack, 0.0, x0)
        assert (rep.rank_physical, rep.rank_designed,
                rep.rank_learned) == (5, 3, 0)
        assert rep.rank_physical + rep.rank_designed <= 9
        assert not rep.damage_condition_holds

        omega, _, _ = evaluate_with_classes(stack, 0.0, x0)
        outside = np.linalg.svd(omega)[2][-1]   # orthogonal to [P; D]
        learned = constant_block(Priority.LEARNED, outside[None, :])
        rep = rank_report(ConstraintStack(
            ambient_dim=9, blocks=[*stack.blocks, learned]), 0.0, x0)
        assert rep.rank_learned == 1
        assert rep.damage_condition_holds
