import numpy as np
import pytest

from regait import constraints
from regait.constraints import (ConstraintBlock, ConstraintStack, Priority,
                                RankDeficiencyError, augment_random_rank,
                                completion_check, constant_block,
                                control_affine_to_spec, evaluate, rank_report,
                                residual, select_active_rows, solve_velocity)


def stack_of(*blocks, n=None):
    if n is None:
        n = blocks[0].rows(0.0, np.zeros(1))[0].shape[1]
    return ConstraintStack(ambient_dim=n, blocks=list(blocks))


class TestEvaluate:
    def test_single_physical_row(self):
        stack = stack_of(constant_block(Priority.PHYSICAL, [[1.0, 0.0]]))
        omega, gamma = evaluate(stack, 0.0, np.array([0.3, -0.7]))
        assert np.array_equal(omega, [[1.0, 0.0]])
        assert np.array_equal(gamma, [0.0])

    def test_empty_learned_block_is_neutral(self):
        base = constant_block(Priority.PHYSICAL, np.eye(2))
        empty = ConstraintBlock(priority=Priority.LEARNED,
                                rows=lambda t, x: (np.zeros((0, 2)),
                                                   np.zeros(0)))
        with_empty = stack_of(base, empty, n=2)
        omega, gamma = evaluate(with_empty, 0.0, np.zeros(2))
        assert omega.shape == (2, 2)
        assert gamma.shape == (2,)

    def test_priority_order_enforced(self):
        learned = constant_block(Priority.LEARNED, [[1.0, 0.0]])
        physical = constant_block(Priority.PHYSICAL, [[0.0, 1.0]])
        with pytest.raises(ValueError, match="order"):
            ConstraintStack(ambient_dim=2, blocks=[learned, physical])

    def test_dimension_mismatch_names_block(self):
        bad = constant_block(Priority.PHYSICAL, [[1.0, 0.0, 0.0]],
                             label="feet")
        stack = ConstraintStack(ambient_dim=2, blocks=[bad])
        with pytest.raises(ValueError, match="feet"):
            evaluate(stack, 0.0, np.zeros(2))

    @pytest.mark.parametrize("omega, t, x, expected", [
        (np.array([1.0, 0.0]), 0.0, np.zeros(2), r"\(2,\), expected \(k, 2\)"),
        (np.eye(2)[:1], np.zeros(3), np.zeros((3, 2)),
         r"\(1, 2\), expected \(3, k, 2\)"),
    ], ids=["one-dimensional", "not-batched"])
    def test_misshapen_rows_report_shape(self, omega, t, x, expected):
        bad = ConstraintBlock(priority=Priority.PHYSICAL, label="one row",
                              rows=lambda t, x: (omega, np.zeros(1)))
        stack = ConstraintStack(ambient_dim=2, blocks=[bad])
        with pytest.raises(ValueError, match="block 'one row' produced omega "
                                             "of shape " + expected):
            evaluate(stack, t, x)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_names_block(self, value):
        # A NaN value used to pass the Physical check (NaN comparisons are
        # False) and come back as a NaN velocity without a warning.
        bad = constant_block(Priority.PHYSICAL, [[1.0, 0.0]], [value],
                             label="feet")
        stack = ConstraintStack(ambient_dim=2, blocks=[bad])
        with pytest.raises(ValueError, match="'feet'.*non-finite values"):
            solve_velocity(stack, 0.0, np.zeros(2))


class TestResidual:
    def test_exact_satisfaction(self):
        v = np.array([0.4, -1.1])
        stack = stack_of(constant_block(Priority.DESIGNED, np.eye(2), v))
        assert np.allclose(residual(stack, 0.0, np.zeros(2), v), 0.0)

    def test_direct_arithmetic(self):
        stack = stack_of(constant_block(Priority.DESIGNED, [[1.0, 0.0]],
                                        [1.0]))
        r = residual(stack, 0.0, np.zeros(2), np.array([0.0, 5.0]))
        assert np.allclose(r, [-1.0])

    def test_class_selection(self):
        phys = constant_block(Priority.PHYSICAL, [[1.0, 0.0]], [0.0])
        des = constant_block(Priority.DESIGNED, [[0.0, 1.0]], [2.0])
        stack = stack_of(phys, des, n=2)
        v = np.array([3.0, 0.0])
        # Default classes exclude Physical rows.
        assert np.allclose(residual(stack, 0.0, np.zeros(2), v), [-2.0])
        full = residual(stack, 0.0, np.zeros(2), v,
                        classes=(Priority.PHYSICAL, Priority.DESIGNED))
        assert np.allclose(full, [3.0, -2.0])

    def test_unrequested_blocks_not_evaluated(self):
        def unreachable(t, x):
            raise AssertionError("Physical block evaluated")

        phys = ConstraintBlock(priority=Priority.PHYSICAL, rows=unreachable)
        des = constant_block(Priority.DESIGNED, [[1.0, 2.0]], [0.5])
        stack = stack_of(phys, des, n=2)
        r = residual(stack, 0.0, np.zeros(2), np.array([1.0, 1.0]),
                     classes=(Priority.DESIGNED,))
        assert np.array_equal(r, [2.5])


class TestSelectActiveRows:
    def test_duplicate_row_rejected(self):
        stack = stack_of(constant_block(Priority.PHYSICAL,
                                        [[1.0, 0.0], [1.0, 0.0]]))
        assert select_active_rows(stack, 0.0, np.zeros(2)) == [0]

    def test_full_rank_physical_blocks_learned(self):
        phys = constant_block(Priority.PHYSICAL, np.eye(3))
        learned = constant_block(Priority.LEARNED,
                                 [[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        stack = stack_of(phys, learned, n=3)
        assert select_active_rows(stack, 0.0, np.zeros(3)) == [0, 1, 2]

    def test_greedy_respects_declaration_order(self):
        # Lower-priority rows fill only the rank the earlier rows left open.
        phys = constant_block(Priority.PHYSICAL, [[1.0, 0.0, 0.0]])
        des = constant_block(Priority.DESIGNED,
                             [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                              [0.0, 0.0, 1.0]])
        stack = stack_of(phys, des, n=3)
        assert select_active_rows(stack, 0.0, np.zeros(3)) == [0, 2, 3]

    def test_stops_at_ambient_dim(self):
        rng = np.random.default_rng(0)
        block = constant_block(Priority.PHYSICAL, rng.standard_normal((6, 4)))
        stack = stack_of(block, n=4)
        assert len(select_active_rows(stack, 0.0, np.zeros(4))) == 4


class TestSolveVelocity:
    def test_identity_system(self):
        stack = stack_of(constant_block(Priority.PHYSICAL, np.eye(3),
                                        [1.0, 2.0, 3.0]))
        out = solve_velocity(stack, 0.0, np.zeros(3))
        assert np.allclose(out.velocity, [1.0, 2.0, 3.0], atol=1e-12)
        assert not out.underdetermined

    def test_diagonal_solve(self):
        stack = stack_of(constant_block(Priority.PHYSICAL,
                                        [[2.0, 0.0], [0.0, 4.0]],
                                        [2.0, 4.0]))
        out = solve_velocity(stack, 0.0, np.zeros(2))
        assert np.allclose(out.velocity, [1.0, 1.0], atol=1e-12)

    def test_underdetermined_minimum_norm(self):
        stack = stack_of(constant_block(Priority.PHYSICAL, [[1.0, 1.0]],
                                        [2.0]))
        out = solve_velocity(stack, 0.0, np.zeros(2))
        assert out.underdetermined
        assert np.allclose(out.velocity, [1.0, 1.0], atol=1e-12)

    def test_overconstrained_physical_raises_with_report(self):
        # Two contradictory Physical rows on the same direction: no velocity
        # can satisfy the physics, whatever the active subset says.
        stack = stack_of(constant_block(Priority.PHYSICAL,
                                        [[1.0, 0.0], [1.0, 0.0]],
                                        [1.0, -1.0]))
        with pytest.raises(RankDeficiencyError) as err:
            solve_velocity(stack, 0.0, np.zeros(2))
        assert err.value.report.rank_physical == 1

    def test_active_rows_satisfied_to_tol(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            omega = rng.standard_normal((3, 3))
            gamma = rng.standard_normal(3)
            stack = stack_of(constant_block(Priority.DESIGNED, omega, gamma))
            out = solve_velocity(stack, 0.0, np.zeros(3))
            err = np.abs(omega @ out.velocity - gamma).max()
            assert err < 1e-10 * max(1.0, np.abs(gamma).max()) * \
                max(1.0, out.condition_number)

    @pytest.mark.parametrize("solve", [solve_velocity, select_active_rows,
                                       rank_report])
    def test_batch_of_states_rejected(self, solve):
        stack = stack_of(constant_block(Priority.PHYSICAL, np.eye(2)))
        with pytest.raises(ValueError, match="one state"):
            solve(stack, np.zeros(3), np.zeros((3, 2)))


class TestCompletionCheck:
    def test_examples(self):
        assert completion_check(9, 5, 3, 2) is True
        assert completion_check(9, 7, 3, 2) is False
        assert completion_check(9, 5, 3, 0) is False

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            completion_check(9, -1, 3, 2)

    def test_rank_report_uses_it(self):
        phys = constant_block(Priority.PHYSICAL, np.eye(2))
        stack = stack_of(phys, n=2)
        rep = rank_report(stack, 0.0, np.zeros(2))
        assert rep.rank_physical == 2
        assert rep.damage_condition_holds


class TestControlAffine:
    def test_basis_column(self):
        omega, gamma = control_affine_to_spec(np.array([1.0, 2.0]),
                                              np.array([[1.0], [0.0]]))
        assert np.allclose(omega, np.diag([0.0, 1.0]), atol=1e-12)
        assert np.allclose(gamma, [0.0, 2.0], atol=1e-12)

    def test_square_invertible_gives_nothing(self):
        rng = np.random.default_rng(4)
        G = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        omega, gamma = control_affine_to_spec(rng.standard_normal(3), G)
        assert np.abs(omega).max() < 1e-10
        assert np.abs(gamma).max() < 1e-10

    def test_projector_identities(self):
        rng = np.random.default_rng(6)
        G = rng.standard_normal((5, 2))
        omega, _ = control_affine_to_spec(rng.standard_normal(5), G)
        assert np.abs(omega @ G).max() < 1e-10
        assert np.abs(omega @ omega - omega).max() < 1e-10

    def test_any_reachable_velocity_satisfies_rows(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n, r = 4, 2
            f = rng.standard_normal(n)
            G = rng.standard_normal((n, r))
            u = rng.standard_normal(r)
            omega, gamma = control_affine_to_spec(f, G)
            xdot = f + G @ u
            assert np.abs(omega @ xdot - gamma).max() < 1e-9


class TestAugmentRandomRank:
    def test_vacuous_base(self):
        A = lambda s: np.zeros((0, 3))
        samples = np.random.default_rng(0).standard_normal((5, 3))
        assert augment_random_rank(A, samples, N=1, seed=1) == 1.0

    def test_standard_basis_rows(self):
        n, k = 5, 3
        base = np.eye(n)[:k]
        samples = np.random.default_rng(1).standard_normal((10, n))
        rate = augment_random_rank(lambda s: base, samples, N=4, seed=2,
                                   trials=20)
        assert rate >= 0.995

    def test_adversarial_duplicate_rows(self, monkeypatch):
        n, k = 4, 2
        base = np.eye(n)[:k]

        def duplicate_first(rng, sample, dim, count):
            return np.tile(base[0], (count, 1))

        monkeypatch.setattr(constraints, "_fourier_feature_rows",
                            duplicate_first)
        samples = np.random.default_rng(3).standard_normal((5, n))
        rate = augment_random_rank(lambda s: base, samples, N=3, seed=4,
                                   trials=5)
        assert rate == 0.0

    def test_no_room_to_augment(self):
        base = np.eye(3)
        samples = [np.zeros(3)]
        with pytest.raises(ValueError, match="no room"):
            augment_random_rank(lambda s: base, samples, N=1, seed=0)

    def test_deterministic_given_seed(self):
        n, k = 6, 4
        base = np.eye(n)[:k]
        samples = np.random.default_rng(5).standard_normal((8, n))
        r1 = augment_random_rank(lambda s: base, samples, N=2, seed=9,
                                 trials=10)
        r2 = augment_random_rank(lambda s: base, samples, N=2, seed=9,
                                 trials=10)
        assert r1 == r2

