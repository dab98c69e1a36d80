"""Reference for the crawler's recovery, gait and pose refit.

The functions below are a direct, unoptimised transcription of the crawler:
every kinematic quantity is recomputed from the joint angles wherever it is
used. The gait's chart frame comes from a pseudoinverse and cross products,
and each chart point takes pseudoinverse Newton steps, warm-started from the
previous point, to the round-off floor. The recovery field builds the full
designed-row pullback and hands it to a pseudoinverse. The pose refit runs
Gauss-Newton. The integrator evaluates RK4's first stage inside the step,
and the sample velocities come from a second pass over the stored samples.
The package computes each state's kinematics once, takes the sample
velocities from the integrator, solves the chart's Newton steps for all
samples in one block, and solves the gait frame, those steps, the recovery
field and the pose fit in closed form or by LU. It must reproduce the
sample times exactly and every other output to the round-off bounds below.
"""
import numpy as np
import pytest

from regait.crawler import (_IK_GUESSES, GAIT_AMPLITUDES, GAIT_PHASES, G_DIM,
                            N_JOINTS, STATE_DIM, gait_perturbation_provider,
                            playback_baseline, recover, template_traces)
from regait.integrate import IntegrationError, project


# ------------------------------------------------------------- kinematics

def _arm(h, angles):
    links = np.exp(1j * np.cumsum(angles))
    tails = np.cumsum(links[::-1])[::-1]
    return h + links.sum(), tails


def _limb_endpoints(params, state):
    state = np.asarray(state, dtype=float)
    z = state[0] + 1j * state[1]
    rot = np.exp(1j * state[2])
    p1, _ = _arm(params.h1, state[3:6])
    p2, _ = _arm(params.h2, state[6:9])
    return z + rot * p1, z + rot * p2


def _limb_rows(params, state):
    state = np.asarray(state, dtype=float)
    rot = np.exp(1j * state[2])
    p1, s1 = _arm(params.h1, state[3:6])
    p2, s2 = _arm(params.h2, state[6:9])
    J1 = np.zeros(STATE_DIM, dtype=complex)
    J2 = np.zeros(STATE_DIM, dtype=complex)
    J1[0] = J2[0] = 1.0
    J1[1] = J2[1] = 1j
    J1[2] = 1j * rot * p1
    J2[2] = 1j * rot * p2
    J1[3:6] = 1j * rot * s1
    J2[6:9] = 1j * rot * s2
    return J1, J2


def _foot_matrix(params, state):
    J1, J2 = _limb_rows(params, state)
    return np.array([J1.real, J1.imag, J2.real, J2.imag])


def _foot_residual(params, state):
    f1, f2 = _limb_endpoints(params, state)
    d1, d2 = f1 - params.l1, f2 - params.l2
    return np.array([d1.real, d1.imag, d2.real, d2.imag])


def _midpoint(params, state):
    p1, s1 = _arm(params.h1, state[3:6])
    p2, s2 = _arm(params.h2, state[6:9])
    return 0.5 * (p1 + p2), 0.5j * np.concatenate([s1, s2])


def _template_map(params, state, tol=1e-12):
    state = np.asarray(state, dtype=float)
    w, _ = _midpoint(params, state)
    r = abs(w)
    if r < tol:
        raise ValueError("template undefined: limb midpoint at the body origin")
    return float(r), float(np.angle(w))


def _shape_jacobian(params, state):
    w, dw = _midpoint(params, np.asarray(state, dtype=float))
    r = abs(w)
    if r < 1e-12:
        raise ValueError("template undefined: limb midpoint at the body origin")
    prod = np.conj(w) * dw
    return np.vstack([prod.real / r, prod.imag / (r * r)])


def _template_jacobian(params, state):
    out = np.zeros((5, STATE_DIM))
    out[:3, :3] = np.eye(3)
    out[3:, 3:] = _shape_jacobian(params, state)
    return out


def _design_constraints(params, state, rates=(0.0, 0.0)):
    """(rows, gamma, omega_g, omega_ra) of the five designed rows."""
    state = np.asarray(state, dtype=float)
    r, alpha = _template_map(params, state)
    beta = state[2] + alpha
    cb, sb = np.cos(beta), np.sin(beta)
    tmpl = np.array([
        [1.0, 0.0, -r * sb, cb, -r * sb],
        [0.0, 1.0, r * cb, sb, r * cb],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, -1.0, 0.0, 0.0],
    ])
    gamma = np.array([0.0, 0.0, float(rates[1]), float(rates[0]), 0.0])
    rows = tmpl @ _template_jacobian(params, state)
    keep = [0, 1, 4]
    return rows, gamma, tmpl[keep, :3], tmpl[keep, 3:]


def _initial_configuration(params, tol=1e-12, max_iters=200):
    for guess in _IK_GUESSES:
        theta = np.array(guess, dtype=float)
        for _ in range(max_iters):
            state = np.concatenate([np.zeros(G_DIM), theta])
            res = _foot_residual(params, state)
            err = np.linalg.norm(res, ord=np.inf)
            if err < tol:
                return state
            J = _foot_matrix(params, state)[:, G_DIM:]
            full = np.linalg.pinv(J, rcond=1e-10) @ res
            scale, base = 1.0, np.linalg.norm(res)
            while scale > 1e-4:
                cand = theta - scale * full
                cres = _foot_residual(params,
                                      np.concatenate([np.zeros(G_DIM), cand]))
                if np.linalg.norm(cres) < base:
                    theta = cand
                    break
                scale *= 0.5
            else:
                break
    raise ValueError("inverse kinematics failed for every initial guess")


# ------------------------------------------------------------- integrator

def _step(f, t, x, h):
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(f(t, x), dtype=float)
    k2 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(f(t + h, x + h * k3), dtype=float)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationError(f"non-finite state after step at t={t}: {out}")
    return out


def _integrate_projected(f, c, t0, x0, t1, dt, tol):
    """Stored times and states; no velocities."""
    x = np.asarray(x0, dtype=float)
    res0, _ = c(x)
    if np.linalg.norm(np.asarray(res0), ord=np.inf) >= tol:
        raise IntegrationError(f"initial state violates constraints: {res0}")
    nsteps = int(round((t1 - t0) / dt))
    ts = [t0]
    xs = [x.copy()]
    t = t0
    for k in range(nsteps):
        x = _step(f, t, x, dt)
        x = project(lambda s: c(s)[0], lambda s: c(s)[1], x, tol)
        t = t0 + (k + 1) * dt
        ts.append(t)
        xs.append(x.copy())
    return np.array(ts), np.array(xs)


# ----------------------------------------------------------- reference gait

def _start_frame(params, state):
    """(9, 4) frame of the gait's chart at a state: the two pose
    directions (x' = theta0' = 1, then y' = 1), each with the minimum-norm
    joint rates that keep the feet pinned, by Gram-Schmidt, then each arm's
    unit normal, the cross product of its tail sums' real and imaginary
    parts."""
    state = np.asarray(state, dtype=float)
    A = _foot_matrix(params, state)
    pose, joints = A[:, :G_DIM], np.linalg.pinv(A[:, G_DIM:])
    cols = [np.concatenate([d, -joints @ (pose @ d)])
            for d in (np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))]
    q1 = cols[0] / np.linalg.norm(cols[0])
    c2 = cols[1] - (q1 @ cols[1]) * q1
    frame = np.zeros((STATE_DIM, 4))
    frame[:, 0], frame[:, 1] = q1, c2 / np.linalg.norm(c2)
    for k, (h, arm) in enumerate(((params.h1, slice(3, 6)),
                                  (params.h2, slice(6, 9)))):
        _, tails = _arm(h, state[arm])
        n = np.cross(tails.real, tails.imag)
        frame[arm, 2 + k] = n / np.linalg.norm(n)
    return frame


def _gait_rows(params, state):
    """Residual (5,) and rows (5, 9) of the feet and x - theta0."""
    state = np.asarray(state, dtype=float)
    res = np.concatenate([_foot_residual(params, state),
                          [state[0] - state[2]]])
    rows = np.vstack([_foot_matrix(params, state),
                      _design_constraints(params, state)[0][4]])
    return res, rows


def _chart_velocity(params, frame, W, period, t, state):
    """The chart curve's rate at a state on it: c'(t) = frame @ weights,
    moved along W = G0^T onto the tangent space there."""
    cdot = frame @ (GAIT_AMPLITUDES
                    * np.sin(2.0 * np.pi * t / period + GAIT_PHASES))
    G = _gait_rows(params, state)[1]
    return cdot - W @ (np.linalg.pinv(G @ W) @ (G @ cdot))


def oracle_reference_gait(params, period=1.0, dt=1e-3, tol=1e-14,
                          max_iters=50):
    """(t, x, v, r, alpha, rdot, alphadot) of the default gait: the chart
    point x0 + N0 c(t) + G0^T lam at each sample, c the integral of the
    weights and lam from Newton on the feet and x - theta0, and its
    velocity."""
    x0 = _initial_configuration(params)
    frame = _start_frame(params, x0)
    W = _gait_rows(params, x0)[1].T
    n = int(round(period / (0.5 * dt))) + 1
    t = np.arange(n) * (0.5 * dt)
    x = np.empty((n, STATE_DIM))
    v = np.empty((n, STATE_DIM))
    r = np.empty(n)
    alpha = np.empty(n)
    rdot = np.empty(n)
    alphadot = np.empty(n)
    lam = np.zeros(W.shape[1])
    for k in range(n):
        ph = 2.0 * np.pi * t[k] / period + GAIT_PHASES
        c = frame @ (GAIT_AMPLITUDES * period / (2.0 * np.pi)
                     * (np.cos(GAIT_PHASES) - np.cos(ph)))
        converged = False
        for _ in range(max_iters):
            x[k] = x0 + c + W @ lam
            res, G = _gait_rows(params, x[k])
            if converged:
                break
            # one more step once below tol takes the point to the round-off
            # floor, so the oracle does not stop wherever tol is first met
            converged = np.abs(res).max() < tol
            lam = lam - np.linalg.pinv(G @ W) @ res
        else:
            raise IntegrationError(f"chart point did not converge at t={t[k]}")
        v[k] = _chart_velocity(params, frame, W, period, t[k], x[k])
        r[k], alpha[k] = _template_map(params, x[k])
        rdot[k], alphadot[k] = _shape_jacobian(params, x[k]) @ v[k, G_DIM:]
    return t, x, v, r, alpha, rdot, alphadot


# ----------------------------------------------------------------- recovery

def _recovery_field(params, reference, jam):
    e_jam = np.zeros(N_JOINTS)
    e_jam[jam - 1] = 1.0

    def field(t, state):
        rates = np.asarray(reference.rates_at(t))
        _, _, omega_g, omega_ra = _design_constraints(params, state,
                                                      rates=rates)
        svals = np.linalg.svd(omega_g, compute_uv=False)
        if svals[-1] < 1e-10 * svals[0]:
            raise IntegrationError(
                f"pose block of the template rows lost rank at t={t}")
        gd = np.linalg.solve(omega_g, -omega_ra @ rates)
        A = _foot_matrix(params, state)
        stacked = np.vstack([A[:, G_DIM:], _shape_jacobian(params, state),
                             e_jam])
        rhs = np.concatenate([-A[:, :G_DIM] @ gd, rates, [0.0]])
        theta_dot = np.linalg.pinv(stacked, rcond=1e-10) @ rhs
        return np.concatenate([gd, theta_dot])

    return field


def _designed_residuals(params, reference, t, x, v):
    out = np.empty(len(t))
    for k in range(len(t)):
        rows, gamma, _, _ = _design_constraints(
            params, x[k], rates=reference.rates_at(t[k]))
        out[k] = np.linalg.norm(rows @ v[k] - gamma)
    return out


def oracle_recover(params, reference, jam):
    """(t, x, r, alpha, designed_residual) of one jammed recovery."""
    x0 = reference.initial_state
    locked = x0[G_DIM - 1 + jam]
    jam_grad = np.zeros((1, STATE_DIM))
    jam_grad[0, G_DIM - 1 + jam] = 1.0

    def c(state):
        res = np.concatenate([_foot_residual(params, state),
                              [state[G_DIM - 1 + jam] - locked]])
        return res, np.vstack([_foot_matrix(params, state), jam_grad])

    field = _recovery_field(params, reference, jam)
    t, x = _integrate_projected(field, c, 0.0, x0, reference.period,
                                reference.dt, 1e-11)
    v = np.array([field(t[k], x[k]) for k in range(len(t))])
    rr, aa = template_traces(params, x)
    return t, x, rr, aa, _designed_residuals(params, reference, t, x, v)


# --------------------------------------------------------------- pose refit

def _pose_refit_rollout(params, thetas, g0, max_iters=60, tol=1e-12):
    out = np.empty((len(thetas), STATE_DIM))
    g = np.array(g0, dtype=float)
    for k in range(len(thetas)):
        state = np.concatenate([g, thetas[k]])
        for _ in range(max_iters):
            res = _foot_residual(params, state)
            J = _foot_matrix(params, state)[:, :G_DIM]
            delta = np.linalg.lstsq(J, res, rcond=None)[0]
            state[:G_DIM] -= delta
            if not np.all(np.isfinite(state[:G_DIM])) or \
                    np.linalg.norm(state[:G_DIM]) > 1e6:
                raise ValueError(f"pose fit diverged at sample {k}")
            if np.linalg.norm(delta, ord=np.inf) < tol:
                break
        else:
            raise ValueError(f"pose fit did not converge at sample {k}")
        out[k] = state
        g = state[:G_DIM].copy()
    return out


def oracle_perturbed_rollout(params, reference, jam, mu, stride=4):
    base = reference.x[::2, G_DIM:][::stride].copy()
    t = reference.t[::2][::stride]
    free = [j for j in range(N_JOINTS) if j != jam - 1]
    lobe = np.sin(2.0 * np.pi * t / reference.period)
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    thetas = base.copy()
    for i, j in enumerate(free[:len(mu)]):
        thetas[:, j] += mu[i] * lobe
    thetas[:, jam - 1] = base[0, jam - 1]
    return t, _pose_refit_rollout(params, thetas, reference.x[0, :G_DIM])


# -------------------------------------------------------------------- tests

# The package samples the same chart curve with a closed-form start frame
# and one block of LU Newton steps over all samples, which iterates until
# every sample is below the residual tolerance; the oracle uses
# pseudoinverses and per-sample loops, and takes each point one step past
# the tolerance, to the round-off floor. The two gaits differ by round-off.
# Measured worst |package - oracle|: x 8.9e-16, v 2.8e-16, r 1.1e-15, alpha
# 8.9e-16, rdot 3.1e-16, alphadot 1.5e-16; t is identical. At the package's
# own states the oracle's chart velocity is within 1.7e-16 of the recorded
# one.
GAIT_BOUND = 1e-14


def test_reference_gait_matches_oracle(cparams, gait):
    want = oracle_reference_gait(cparams)
    got = (gait.t, gait.x, gait.v, gait.r, gait.alpha, gait.rdot,
           gait.alphadot)
    assert np.array_equal(got[0], want[0]), "t"
    for name, a, b in zip(("x", "v", "r", "alpha", "rdot", "alphadot"),
                          got[1:], want[1:]):
        assert np.abs(a - b).max() <= GAIT_BOUND, name


@pytest.mark.parametrize("k", range(0, 2001, 100))
def test_gait_field_matches_oracle(cparams, gait, k):
    # the recorded velocity is the chart curve's rate at the recorded state:
    # the oracle's, evaluated at the package's own state, so this isolates
    # the velocity from the states' round-off
    x0 = _initial_configuration(cparams)
    want = _chart_velocity(cparams, _start_frame(cparams, x0),
                           _gait_rows(cparams, x0)[1].T, 1.0, gait.t[k],
                           gait.x[k])
    assert np.abs(gait.v[k] - want).max() <= GAIT_BOUND


# The package's recovery field is the closed form of the system the oracle
# hands to a pseudoinverse, so the two differ by round-off, amplified where
# the jammed arm's 2x2 system is ill-conditioned. Bounds on |package -
# oracle| for (x, r, alpha, designed residual); measured worst: 6.7e-16,
# 8.9e-16, 4.4e-16, 2.2e-15 on jams 1, 2, 4, 5, 6 and 3.2e-7, 5.2e-9,
# 1.4e-10, 3.4e-13 on jam 3, whose arm 1 passes near rank loss.
RECOVER_BOUNDS = {"x": 1e-14, "r": 1e-14, "alpha": 1e-14, "residual": 1e-14}
JAM3_BOUNDS = {"x": 1e-6, "r": 2e-8, "alpha": 1e-9, "residual": 1e-12}


@pytest.mark.parametrize("jam", range(1, N_JOINTS + 1))
def test_recover_matches_oracle(cparams, gait, jam):
    rec = recover(cparams, gait, jam)
    t, x, r, alpha, residual = oracle_recover(cparams, gait, jam)
    assert np.array_equal(rec.trajectory.t, t)
    bound = JAM3_BOUNDS if jam == 3 else RECOVER_BOUNDS
    assert np.abs(rec.trajectory.x - x).max() <= bound["x"]
    assert np.abs(rec.r - r).max() <= bound["r"]
    assert np.abs(rec.alpha - alpha).max() <= bound["alpha"]
    # one batched evaluation of the designed rows against the oracle's
    # per-sample loop
    assert np.abs(rec.designed_residual - residual).max() <= bound["residual"]


def test_playback_baseline_matches_oracle(cparams, gait):
    thetas = gait.x[::2, G_DIM:].copy()
    thetas[:, 0] = thetas[0, 0]
    want = _pose_refit_rollout(cparams, thetas, gait.x[0, :G_DIM])
    got = playback_baseline(cparams, gait, jam=1)
    assert np.array_equal(got.t, gait.t[::2])
    # the package fits the pose in closed form, the oracle by Gauss-Newton
    assert np.abs(got.x - want).max() <= 1e-12


@pytest.mark.parametrize("mu", [
    np.zeros(5),
    np.array([0.05, -0.08, 0.02, 0.0, 0.1]),
    np.array([0.6, -0.35, 0.8, -1.0, 0.45]),
])
def test_perturbation_provider_matches_oracle(cparams, gait, mu):
    provider = gait_perturbation_provider(cparams, gait, jam=1)
    got = provider(mu)
    t, want = oracle_perturbed_rollout(cparams, gait, 1, mu)
    assert np.array_equal(got.t, t)
    assert np.abs(got.x - want).max() <= 1e-12

