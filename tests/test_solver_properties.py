"""Property tests for the greedy priority solve on random stacks.

Stacks mix generic rows with rows that are exact or nearly exact
combinations of earlier ones, so the rank tests in the active-row scan see
both clear and marginal cases.
"""
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regait.constraints import (DEFAULT_RANK_TOL, ConstraintStack, Priority,
                                RankDeficiencyError, evaluate_with_classes,
                                rank_report, select_active_rows,
                                solve_velocity)

from helpers import constant_block

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                             derandomize=True, database=None)

coefficient = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
# 0 gives an exact combination; the others sit near the rank tolerance
near_dependence = st.sampled_from([0.0, 1e-14, 1e-11, 1e-9, 1e-6])


@st.composite
def row_blocks(draw, n, count):
    """(count, n) rows; some are combinations of the rows drawn before."""
    rows = []
    for _ in range(count):
        if rows and draw(st.booleans()):
            weights = draw(st.lists(coefficient, min_size=len(rows),
                                    max_size=len(rows)))
            eps = draw(near_dependence)
            noise = draw(st.lists(coefficient, min_size=n, max_size=n))
            rows.append(np.asarray(weights) @ np.asarray(rows)
                        + eps * np.asarray(noise))
        else:
            rows.append(np.asarray(draw(st.lists(coefficient, min_size=n,
                                                 max_size=n))))
    return np.asarray(rows).reshape(count, n)


@st.composite
def stacks(draw, at_least_n=False):
    """(n, physical, designed, learned) as (rows, values) pairs.

    With ``at_least_n`` the Physical and Designed blocks together hold at
    least n rows.
    """
    n = draw(st.integers(2, 5))
    n_phys = draw(st.integers(0, n + 1))
    n_des = draw(st.integers(max(0, n - n_phys) if at_least_n else 0, n + 1))
    n_learned = draw(st.integers(0, 3))
    rows = draw(row_blocks(n, n_phys + n_des + n_learned))
    # Physical values either admit a common solution or are arbitrary
    if draw(st.booleans()):
        v_true = np.asarray(draw(st.lists(coefficient, min_size=n,
                                          max_size=n)))
        phys_values = rows[:n_phys] @ v_true
    else:
        phys_values = np.asarray(draw(st.lists(coefficient, min_size=n_phys,
                                               max_size=n_phys)))
    other = np.asarray(draw(st.lists(coefficient,
                                     min_size=n_des + n_learned,
                                     max_size=n_des + n_learned)))
    cut = n_phys + n_des
    return (n, (rows[:n_phys], phys_values),
            (rows[n_phys:cut], other[:n_des]),
            (rows[cut:], other[n_des:]))


def stack_from(n, *blocks):
    return ConstraintStack(ambient_dim=n, blocks=[
        constant_block(priority, rows.reshape(-1, n), values)
        for priority, (rows, values) in zip(Priority, blocks) if len(rows)])


def condition(matrix):
    svals = np.linalg.svd(matrix, compute_uv=False)
    return svals[0] / svals[-1] if svals[-1] > 0 else np.inf


# Physical rows 0 . v = 0 and 0 . v = 1, which no velocity satisfies, under a
# tiny Learned row that makes the active system ill-conditioned: a Physical
# tolerance scaled by that condition number lets the violated row through.
HIDDEN_BY_LEARNED_ROW = (
    3, (np.zeros((2, 3)), np.array([0.0, 1.0])),
    (np.array([[0.0, 0.0, 1.0]]), np.array([0.0])),
    (np.array([[0.0, 5.96e-8, 0.0]]), np.array([0.0])))


@PROPERTY_SETTINGS
@given(stacks())
@example(HIDDEN_BY_LEARNED_ROW)
def test_physical_rows_hold_or_solve_raises(case):
    """Physical rows hold to a tolerance set by the Physical rows alone."""
    n, phys, des, learned = case
    try:
        out = solve_velocity(stack_from(n, phys, des, learned), 0.0,
                             np.zeros(n))
    except RankDeficiencyError:
        return
    rows, values = phys
    if not len(rows):
        return
    kept = [i for i in out.active_rows if i < len(rows)]
    cond = condition(rows[kept]) if kept else 1.0
    scale = max(1.0, float(np.abs(values).max()))
    size = np.abs(rows) @ np.abs(out.velocity) + scale
    err = np.abs(rows @ out.velocity - values)
    assert np.all(err <= 1e3 * DEFAULT_RANK_TOL * max(1.0, cond) * size)


@PROPERTY_SETTINGS
@given(stacks(at_least_n=True))
def test_learned_rows_never_move_a_determined_velocity(case):
    n, phys, des, learned = case
    try:
        base = solve_velocity(stack_from(n, phys, des), 0.0, np.zeros(n))
    except RankDeficiencyError:
        base = None
    assume(base is not None and not base.underdetermined)
    full = solve_velocity(stack_from(n, phys, des, learned), 0.0,
                          np.zeros(n))
    assert full.active_rows == base.active_rows
    assert np.array_equal(full.velocity, base.velocity)


@st.composite
def scaled_stacks(draw):
    """A stack plus one power-of-two exponent in -20..20 per row."""
    case = draw(stacks())
    count = sum(len(rows) for rows, _ in case[1:])
    return case, draw(st.lists(st.integers(-20, 20), min_size=count,
                               max_size=count))


# Physical row [1, 0] then Designed row [1, 1e-9]: scanned raw, scaling the
# Physical row by 1024 dropped the Designed row from the active set.
SCALED_PHYSICAL_HIDES_DESIGNED = (
    (2, (np.array([[1.0, 0.0]]), np.array([0.0])),
     (np.array([[1.0, 1e-9]]), np.array([0.0])),
     (np.zeros((0, 2)), np.zeros(0))),
    [10, 0])


@PROPERTY_SETTINGS
@given(scaled_stacks())
@example(SCALED_PHYSICAL_HIDES_DESIGNED)
def test_row_scaling_keeps_the_active_set(scaled):
    (n, *blocks), exponents = scaled
    scales = np.ldexp(1.0, np.asarray(exponents, dtype=int))
    scaled_blocks, start = [], 0
    for rows, values in blocks:
        s = scales[start:start + len(rows)]
        scaled_blocks.append((rows * s[:, None], values * s))
        start += len(rows)
    x = np.zeros(n)
    assert (select_active_rows(stack_from(n, *scaled_blocks), 0.0, x)
            == select_active_rows(stack_from(n, *blocks), 0.0, x))


# The former active-row scan, one SVD per candidate row, kept verbatim as the
# oracle of the ordered-QR selection.
def _select_rows(omega: np.ndarray, tol: float) -> list[int]:
    """Greedy scan of ``omega``'s rows in order, keeping each row that raises
    the numerical rank of the rows kept so far, until n are kept.

    Rows are compared as unit vectors, so scaling a row never changes the
    selection; zero rows are never kept.
    """
    n = omega.shape[1]
    norms = np.linalg.norm(omega, axis=1)
    unit = omega / np.where(norms > 0, norms, 1.0)[:, None]
    kept: list[int] = []
    for i in np.flatnonzero(norms > 0):
        if len(kept) == n:
            break
        svals = np.linalg.svd(unit[kept + [i]], compute_uv=False)
        if svals[-1] > tol * svals[0]:
            kept.append(int(i))
    return kept


def oracle_ratios(omega, kept):
    """sigma_min / sigma_max of each candidate the oracle scan tested, over
    the unit rows it had kept before that candidate."""
    norms = np.linalg.norm(omega, axis=1)
    unit = omega / np.where(norms > 0, norms, 1.0)[:, None]
    ratios = []
    for i in np.flatnonzero(norms > 0):
        before = [k for k in kept if k < i]
        if len(before) == omega.shape[1]:
            break
        svals = np.linalg.svd(unit[before + [i]], compute_uv=False)
        ratios.append(svals[-1] / svals[0])
    return np.asarray(ratios)


@PROPERTY_SETTINGS
@given(stacks())
def test_selection_matches_the_svd_scan(case):
    """Away from the tolerance, the QR pivots and the SVD scan agree; a
    candidate whose ratio lies within 10^3 of tol may fall either way."""
    n, *blocks = case
    stack, x = stack_from(n, *blocks), np.zeros(n)
    omega, _, _ = evaluate_with_classes(stack, 0.0, x)
    want = _select_rows(omega, DEFAULT_RANK_TOL)
    ratios = oracle_ratios(omega, want)
    assume(not np.any((ratios > 1e-3 * DEFAULT_RANK_TOL)
                      & (ratios < 1e3 * DEFAULT_RANK_TOL)))
    assert select_active_rows(stack, 0.0, x) == want


def ranks(report):
    return (report.rank_physical, report.rank_designed, report.rank_learned)


# Physical row [1e11, 0] then Designed row [0, 1]: ranks taken on the raw rows
# with a tolerance scaled by the largest row reported r_D = 0, while the solve
# keeps both rows.
LARGE_PHYSICAL_ROW = (
    (2, (np.array([[1e11, 0.0]]), np.array([0.0])),
     (np.array([[0.0, 1.0]]), np.array([0.0])),
     (np.zeros((0, 2)), np.zeros(0))),
    [0, 0])


@PROPERTY_SETTINGS
@given(scaled_stacks())
@example(LARGE_PHYSICAL_ROW)
def test_rank_report_counts_the_kept_rows(scaled):
    (n, *blocks), exponents = scaled
    omega = np.concatenate([rows for rows, _ in blocks])
    rescaled = np.ldexp(1.0, np.asarray(exponents, dtype=int))[:, None] * omega
    classes = np.repeat(list(Priority), [len(rows) for rows, _ in blocks])
    x = np.zeros(n)
    stack = stack_from(n, *blocks)
    active = select_active_rows(stack, 0.0, x)
    counts = tuple(int(np.sum(classes[active] == c)) for c in Priority)
    assert ranks(rank_report(stack, 0.0, x)) == counts
    scaled_stack = ConstraintStack(ambient_dim=n, blocks=[
        constant_block(Priority(c), rescaled[classes == c])
        for c in Priority if np.any(classes == c)])
    assert ranks(rank_report(scaled_stack, 0.0, x)) == counts
