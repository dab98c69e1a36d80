"""Priority-ranked differential constraint stacks.

A behavior is specified as blocks of rows ``omega_i(x) . xdot = gamma_i(t, x)``
in three priority classes: Physical (the plant, including damage), Designed
(the behavior's defining relations), and Learned (rows fitted from an example
trajectory). A block is a priority class plus a function returning its rows
at (t, x) as one pair of arrays ``(omega (..., k, n), gamma (..., k))``: at
one state (``t`` a scalar, ``x`` of shape (n,)) or at each of a block of
states (``t`` of shape (N,), ``x`` of shape (N, n)), so the residual along a
whole trajectory is one evaluation. Solving for a feasible velocity keeps
the first ``n`` linearly independent rows scanned in class order, so
lower-priority rows can never displace higher-priority ones. One ordered QR
factor of the kept rows gives the selection, the velocity, the condition
numbers and the per-class ranks; the solves take one state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

DEFAULT_RANK_TOL = 1e-10


class Priority(enum.IntEnum):
    PHYSICAL = 0
    DESIGNED = 1
    LEARNED = 2


@dataclass(frozen=True)
class ConstraintBlock:
    """A priority class plus a function yielding ``(omega, gamma)`` at (t, x).

    ``rows(t, x)`` takes one state (``t`` a scalar, ``x`` (n,)) and returns
    ``omega`` (k, n) and ``gamma`` (k,), or takes a block of states (``t``
    (N,), ``x`` (N, n)) and returns ``omega`` (N, k, n) and ``gamma`` (N, k).
    """

    priority: Priority
    rows: Callable[[float | np.ndarray, np.ndarray],
                   tuple[np.ndarray, np.ndarray]]
    label: str = ""


def constant_block(priority: Priority, matrix, values=None,
                   label: str = "") -> ConstraintBlock:
    """Block whose rows do not depend on (t, x), broadcast over the states."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if values is None:
        values = np.zeros(matrix.shape[0])
    values = np.asarray(values, dtype=float)
    if values.shape != (matrix.shape[0],):
        raise ValueError("one value per row required")

    def rows(t, x):
        lead = np.shape(t)
        return (np.broadcast_to(matrix, lead + matrix.shape),
                np.broadcast_to(values, lead + values.shape))

    return ConstraintBlock(priority=priority, rows=rows, label=label)


@dataclass(frozen=True)
class ConstraintStack:
    """Ordered constraint blocks over an ambient space of dimension n."""

    ambient_dim: int
    blocks: tuple[ConstraintBlock, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        order = [b.priority for b in self.blocks]
        if order != sorted(order):
            raise ValueError("blocks must be ordered Physical, Designed, Learned")


@dataclass(frozen=True)
class RankReport:
    rank_physical: int
    rank_designed: int
    rank_learned: int
    condition_number: float
    damage_condition_holds: bool


class RankDeficiencyError(RuntimeError):
    """A velocity solve failed; carries the rank analysis of the stack."""

    def __init__(self, message: str, report: RankReport):
        super().__init__(message)
        self.report = report


@dataclass
class SolveResult:
    """Velocity solve outcome with diagnostics.

    ``underdetermined`` is set when fewer than n independent rows were
    available and the returned velocity is the minimum-norm solution.
    """

    velocity: np.ndarray
    active_rows: list[int]
    condition_number: float
    underdetermined: bool = False
    warnings: list[str] = field(default_factory=list)


def evaluate(stack: ConstraintStack, t, x) -> tuple[np.ndarray, np.ndarray]:
    """All rows concatenated in priority order: omega (..., m, n) and
    gamma (..., m), at one state or a block of states."""
    omega, gamma, _ = evaluate_with_classes(stack, t, x)
    return omega, gamma


def evaluate_with_classes(stack: ConstraintStack, t, x,
                          only: Sequence[Priority] | None = None):
    """As evaluate(), plus each row's class; skips blocks outside ``only``.

    ``t`` is a scalar with ``x`` of shape (n,), or ``t`` (N,) with ``x``
    (N, n). Each block's output shape and finiteness is checked once.
    """
    x = np.asarray(x, dtype=float)
    n = stack.ambient_dim
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError(f"state has shape {x.shape}, expected ({n},) or "
                         f"(N, {n})")
    lead = x.shape[:-1]
    if np.shape(t) != lead:
        raise ValueError(f"times have shape {np.shape(t)}, expected {lead} "
                         f"for states of shape {x.shape}")
    omegas, gammas, classes = [], [], []
    for block in stack.blocks:
        if only is not None and block.priority not in only:
            continue
        omega, gamma = block.rows(t, x)
        omega = np.asarray(omega, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        name = block.label or block.priority.name
        if (omega.ndim != len(lead) + 2 or omega.shape[:-2] != lead
                or omega.shape[-1] != n):
            expected = ", ".join(map(str, (*lead, "k", n)))
            raise ValueError(f"block {name!r} produced omega of shape "
                             f"{omega.shape}, expected ({expected})")
        if gamma.shape != omega.shape[:-1]:
            raise ValueError(f"block {name!r} produced omega of shape "
                             f"{omega.shape} but gamma of shape "
                             f"{gamma.shape}, expected {omega.shape[:-1]}")
        if not np.isfinite(omega).all():
            raise ValueError(f"block {name!r} produced non-finite coefficients")
        if not np.isfinite(gamma).all():
            raise ValueError(f"block {name!r} produced non-finite values")
        omegas.append(omega)
        gammas.append(gamma)
        classes += [block.priority] * omega.shape[-2]
    if not omegas:
        return np.zeros(lead + (0, n)), np.zeros(lead + (0,)), []
    return (np.concatenate(omegas, axis=-2), np.concatenate(gammas, axis=-1),
            classes)


def residual(stack: ConstraintStack, t, x, v,
             classes: Sequence[Priority] = (Priority.DESIGNED, Priority.LEARNED),
             ) -> np.ndarray:
    """omega . v - gamma over the blocks of the requested classes only: shape
    (m,) at one state, (N, m) at a block of states with velocities (N, n)."""
    omega, gamma, _ = evaluate_with_classes(stack, t, x, only=classes)
    v = np.asarray(v, dtype=float)
    return (omega @ v[..., None])[..., 0] - gamma


def _greedy_qr(omega: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Greedy priority scan as one ordered QR factor of the kept rows.

    The first n nonzero rows, as unit vectors (so row scaling never changes
    the selection), are factored; the first whose pivot |R_ii| is at most
    ``DEFAULT_RANK_TOL`` is dropped and the next candidate joins, until no
    pivot is small.
    Returns the kept indices, lower-triangular ``low`` and orthonormal ``q``
    with ``omega[kept] = low @ q.T``. Only the rows of one state are taken.
    """
    if omega.ndim != 2:
        raise ValueError(f"rows of shape {omega.shape}: the priority solve "
                         "takes one state")
    n = omega.shape[1]
    norms = np.linalg.norm(omega, axis=1)
    candidates = np.flatnonzero(norms > 0)
    while True:
        kept = candidates[:n]
        q, r = np.linalg.qr((omega[kept] / norms[kept, None]).T)
        small = np.flatnonzero(np.abs(np.diagonal(r)) <= DEFAULT_RANK_TOL)
        if not small.size:
            return kept.tolist(), norms[kept, None] * r.T, q
        candidates = np.delete(candidates, small[0])


def select_active_rows(stack: ConstraintStack, t: float, x) -> list[int]:
    """Greedy scan in priority order keeping rows that raise numerical rank.

    Stops once n rows are kept. May return fewer than n indices when the
    stack does not determine the velocity (under-determined; not an error).
    """
    omega, _, _ = evaluate_with_classes(stack, t, x)
    return _greedy_qr(omega)[0]


def solve_velocity(stack: ConstraintStack, t: float, x) -> SolveResult:
    """Velocity satisfying the first n independent rows of the stack.

    Fully determined stacks yield the unique solution of the active square
    system. With fewer than n active rows the minimum-norm solution is
    returned and flagged. If the solution leaves Physical rows violated, the
    stack is over-constrained and a RankDeficiencyError carrying the
    RankReport is raised.
    """
    omega, gamma, classes = evaluate_with_classes(stack, t, x)
    n = stack.ambient_dim
    active, low, q = _greedy_qr(omega)
    # v in the span of q solves low @ q.T @ v = gamma with minimum norm
    v = q @ np.linalg.solve(low, gamma[active])
    cond = _condition(low)
    warnings = [] if active else ["no active rows"]
    if cond > 1.0 / DEFAULT_RANK_TOL:
        warnings.append(f"ill-conditioned active system: cond={cond:.3e}")

    # Physical rows must hold whether or not they made the active cut; a
    # violated inactive Physical row means the physics itself is inconsistent.
    # It depends on active Physical rows only (the leading block of the
    # factor), so rows of lower priority never enter the tolerance.
    phys = [i for i, c in enumerate(classes) if c == Priority.PHYSICAL]
    if phys:
        p = sum(classes[i] == Priority.PHYSICAL for i in active)
        cond_phys = _condition(low[:p, :p])
        scale = max(1.0, float(np.abs(gamma[phys]).max()))
        size = np.abs(omega[phys]) @ np.abs(v) + scale
        err = np.abs(omega[phys] @ v - gamma[phys])
        if np.any(err > 1e3 * DEFAULT_RANK_TOL * max(1.0, cond_phys) * size):
            raise RankDeficiencyError(
                f"over-constrained Physical rows: residual {err.max():.3e}",
                _rank_report(n, classes, active, cond))

    return SolveResult(velocity=v, active_rows=active, condition_number=cond,
                       underdetermined=len(active) < n, warnings=warnings)


def rank_report(stack: ConstraintStack, t: float, x) -> RankReport:
    """Per-class numerical ranks, each counted over the classes above it as
    the greedy solve sees them, plus the damage-rank condition."""
    omega, _, classes = evaluate_with_classes(stack, t, x)
    active, low, _ = _greedy_qr(omega)
    return _rank_report(stack.ambient_dim, classes, active, _condition(low))


def _rank_report(n: int, classes: list[Priority], active: list[int],
                 cond: float) -> RankReport:
    """A class's rank is the number of its rows the greedy scan kept."""
    ranks = [sum(classes[i] == cls for i in active) for cls in Priority]
    return RankReport(*ranks, condition_number=cond,
                      damage_condition_holds=completion_check(n, *ranks))


def _condition(low: np.ndarray) -> float:
    if not low.size:       # no active rows
        return 0.0
    svals = np.linalg.svd(low, compute_uv=False)
    return float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf


def _scale(matrix: np.ndarray) -> float:
    if matrix.size == 0:
        return 1.0
    top = float(np.linalg.norm(matrix, 2))
    return top if top > 0 else 1.0


def completion_check(n: int, rank_physical_damaged: int, rank_designed: int,
                     rank_learned: int) -> bool:
    """n - r_L <= r_P + r_D <= n: learned rows can absorb the damage."""
    args = (n, rank_physical_damaged, rank_designed, rank_learned)
    if any((not isinstance(a, (int, np.integer))) or a < 0 for a in args):
        raise ValueError(f"arguments must be non-negative integers, got {args}")
    return n - rank_learned <= rank_physical_damaged + rank_designed <= n


def control_affine_to_spec(f, G) -> tuple[np.ndarray, np.ndarray]:
    """Constraint rows equivalent to xdot = f + G u for unconstrained u.

    Directions outside the input column space cannot be commanded, so they
    must agree with the drift: Omega = I - G G+, gamma = Omega f.
    """
    f = np.asarray(f, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    n = G.shape[0]
    if f.shape != (n,):
        raise ValueError("drift length must match rows of G")
    omega = np.eye(n) - G @ np.linalg.pinv(G, rcond=DEFAULT_RANK_TOL)
    return omega, omega @ f


def _fourier_feature_rows(rng: np.random.Generator, sample: np.ndarray,
                          n: int, count: int) -> np.ndarray:
    """Gradients of ``count`` random smooth functions R^n -> R at ``sample``.

    Each function is a sum of 16 random Fourier features
    f(s) = sum_m c_m sin(w_m . s + b_m) with standard-normal weights, so its
    gradient rows are sum_m c_m cos(w_m . s + b_m) w_m.
    """
    n_features = 16
    w = rng.standard_normal((n_features, n))
    bias = rng.uniform(0.0, 2.0 * np.pi, n_features)
    c = rng.standard_normal((count, n_features)) / np.sqrt(n_features)
    return (c * np.cos(w @ sample + bias)) @ w


def augment_random_rank(A: Callable[[np.ndarray], np.ndarray], samples,
                        N: int, seed: int, trials: int = 1) -> float:
    """Empirical rate at which N random rows raise the rank of A past k.

    For each trial a fresh bundle of N random smooth functions is drawn; at
    every sample the gradients are appended to A(sample) and success is
    recorded when the stacked matrix reaches rank >= k+1. Returns the success
    fraction over trials x samples.
    """
    samples = [np.atleast_1d(np.asarray(s, dtype=float)) for s in samples]
    if not samples:
        raise ValueError("need at least one sample")
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = np.random.default_rng(seed)
    hits = 0
    total = 0
    for _ in range(trials):
        for s in samples:
            base = np.atleast_2d(np.asarray(A(s), dtype=float))
            if base.size == 0:
                base = base.reshape(0, len(s))
            k, n = base.shape
            if k >= n:
                raise ValueError(f"no room to augment: k={k} >= n={n}")
            extra = _fourier_feature_rows(rng, s, n, N)
            stacked = np.vstack([base, extra]) if k else extra
            rank = np.linalg.matrix_rank(stacked,
                                         DEFAULT_RANK_TOL * _scale(stacked))
            hits += int(rank >= k + 1)
            total += 1
    return hits / total
