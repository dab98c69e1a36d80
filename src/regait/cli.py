"""Command-line front end: reproducible end-to-end runs with CSV/JSON/SVG
outputs and a manifest per run.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O failure.
Every run writes exactly one manifest.json into the output directory; all
randomness flows from the manifest seed, and numeric outputs are written with
%.17g so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .constraints import RankDeficiencyError, augment_random_rank
from .crawler import (N_JOINTS, STATE_DIM, TEMPLATE_FORMS, CrawlerParams,
                      angle_difference, foot_residual_series, group_velocity,
                      playback_baseline, recover, reference_gait,
                      shape_features, template_encoding_map)
from .ctslip import (FREE_PARAM_BOUNDS, FREE_PARAM_STEPS, BuehlerClock,
                     CTSlipParams, SimConfig, build_reference,
                     count_completing, energy_outputs, make_ensemble,
                     nominal_ic, recover_parameters, recovery_cost,
                     simulate_hybrid)
from .encoding import learn_constraints, learned_to_json, record_eta
from .integrate import IntegrationError
from .manipulator import point_mass_toy, rescaled_constraint, run_force_matching
from .optimize import NMConfig
from .signals import PhaseEstimator, eval_fourier
from .svgplot import Figure, save_svg
from .trajectory import Trajectory, TrajectoryFormatError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


class IOFailure(Exception):
    """Unreadable/unwritable or unparseable file; maps to exit code 4."""


def _ensure_out(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IOFailure(f"cannot create output directory {path}: {exc}")
    return path


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise IOFailure(f"{path}: line {exc.lineno}: {exc.msg}")
    except OSError as exc:
        raise IOFailure(f"cannot read {path}: {exc}")


def _write_json(path: str, obj) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}")


def _write_csv(path: str, header: str, columns) -> None:
    cols = [np.asarray(c) for c in columns]
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for k in range(len(cols[0])):
                fh.write(",".join(f"{float(c[k]):.17g}" for c in cols) + "\n")
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}")


def _write_manifest(out: str, subcommand: str, params_path, seed: int,
                    t_start: float) -> None:
    _write_json(os.path.join(out, "manifest.json"), {
        "subcommand": subcommand,
        "params": params_path,
        "seed": seed,
        "out_dir": os.path.abspath(out),
        "tool_version": __version__,
        "duration_seconds": time.perf_counter() - t_start,
    })


def _rms(arr) -> float:
    return float(np.sqrt(np.mean(np.square(np.asarray(arr)))))


# ---------------------------------------------------------------- crawler

def _crawler_params(path: str | None) -> CrawlerParams:
    if path is None:
        return CrawlerParams()
    raw = _load_json(path)
    allowed = {"l1", "l2", "h1", "h2"}
    unknown = set(raw) - allowed
    if unknown:
        raise UsageError(f"unknown crawler parameter(s): {sorted(unknown)}")

    def c(key, default):
        if key not in raw:
            return default
        v = raw[key]
        return complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)

    base = CrawlerParams()
    return CrawlerParams(l1=c("l1", base.l1), l2=c("l2", base.l2),
                         h1=c("h1", base.h1), h2=c("h2", base.h2))


def cmd_crawler(args) -> int:
    t_start = time.perf_counter()
    if not 0 <= args.jam <= N_JOINTS:
        raise UsageError(f"--jam must be in 0..{N_JOINTS}, got {args.jam}")
    out = _ensure_out(args.out)
    params = _crawler_params(args.params)

    reference = reference_gait(params, period=args.period, dt=args.dt)
    full = reference.full_grid()
    full.to_csv(os.path.join(out, "reference.csv"))

    # learn the template constraints back from the generated gait
    emap = template_encoding_map(params)
    phase = PhaseEstimator.fit(shape_features(full.x))
    lc = learn_constraints(emap, TEMPLATE_FORMS, full, phase,
                           order=args.order, phase_features=shape_features)
    try:
        with open(os.path.join(out, "learned.json"), "w") as fh:
            fh.write(learned_to_json(lc))
    except OSError as exc:
        raise IOFailure(f"cannot write learned.json: {exc}")

    rec = recover(params, reference, args.jam)
    rec.trajectory.to_csv(os.path.join(out, "recovered.csv"))

    ref_r, ref_a = reference.r[::2], reference.alpha[::2]
    metrics = {
        "jam": args.jam,
        "rms_r": _rms(rec.r - ref_r),
        "rms_alpha": _rms(angle_difference(rec.alpha, ref_a)),
        "max_designed_residual": float(rec.designed_residual.max()),
        "max_foot_residual_reference": float(
            foot_residual_series(params, full.x).max()),
        "max_foot_residual_recovered": float(
            foot_residual_series(params, rec.trajectory.x).max()),
        "learned_fit_residual_rms": max(
            m.fit_residual_rms for m in lc.eta_models),
    }

    fig = Figure(title=f"template traces (jam={args.jam})", xlabel="t",
                 ylabel="r, alpha", xlim=(0.0, args.period), ylim=(0.0, 3.0))
    fig.add(full.t, ref_r, label="r ref")
    fig.add(full.t, ref_a, label="a ref")
    fig.add(rec.trajectory.t, rec.r, label="r rec")
    fig.add(rec.trajectory.t, rec.alpha, label="a rec")

    if args.jam:
        baseline = playback_baseline(params, reference, args.jam)
        baseline.to_csv(os.path.join(out, "baseline.csv"))
        gv_ref = group_velocity(full)
        err_rec = _rms(group_velocity(rec.trajectory) - gv_ref)
        err_base = _rms(group_velocity(baseline) - gv_ref)
        jam_col = 2 + args.jam
        metrics.update({
            "group_velocity_rms_recovered": err_rec,
            "group_velocity_rms_baseline": err_base,
            "group_velocity_ratio": err_rec / err_base if err_base else math.inf,
            "max_jam_drift_recovered": float(np.abs(
                rec.trajectory.x[:, jam_col]
                - rec.trajectory.x[0, jam_col]).max()),
            "max_foot_residual_baseline": float(
                foot_residual_series(params, baseline.x).max()),
        })
    else:
        metrics["identical_to_reference"] = bool(
            np.array_equal(rec.trajectory.x, full.x))

    metrics["runtime_seconds"] = time.perf_counter() - t_start
    _write_json(os.path.join(out, "metrics.json"), metrics)
    save_svg(fig, os.path.join(out, "traces.svg"))
    _write_manifest(out, "crawler", args.params, args.seed, t_start)
    print(f"crawler jam={args.jam}: template rms "
          f"r={metrics['rms_r']:.3e} alpha={metrics['rms_alpha']:.3e}")
    return EXIT_OK


# ----------------------------------------------------------------- ctslip

_CLOCK_KEYS = ("duty_factor", "sweep_angle", "touchdown_angle", "frequency")
_PLANT_KEYS = ("eta", "mu", "L", "t_s", "K", "gravity", "kp", "kd")


def _ctslip_params(path: str | None) -> CTSlipParams:
    if path is None:
        return CTSlipParams()
    raw = _load_json(path)
    unknown = set(raw) - set(_CLOCK_KEYS) - set(_PLANT_KEYS)
    if unknown:
        raise UsageError(f"unknown ctslip parameter(s): {sorted(unknown)}")
    clock = BuehlerClock(**{k: float(raw[k]) for k in _CLOCK_KEYS if k in raw})
    plant = {k: float(raw[k]) for k in _PLANT_KEYS if k in raw}
    return CTSlipParams(clock=clock, **plant)


def _params_dict(p: CTSlipParams) -> dict:
    d = {k: getattr(p, k) for k in _PLANT_KEYS}
    d.update({k: getattr(p.clock, k) for k in _CLOCK_KEYS})
    return d


def cmd_ctslip(args) -> int:
    t_start = time.perf_counter()
    out = _ensure_out(args.out)
    params = _ctslip_params(args.params)
    cfg = SimConfig(dt=args.dt)

    if args.action == "simulate":
        res = simulate_hybrid(params, nominal_ic(params), args.T, cfg)
        _write_csv(os.path.join(out, "com.csv"),
                   "t,x,y,xdot,ydot,zeta,psi,mode",
                   [res.t, res.com[:, 0], res.com[:, 1], res.com[:, 2],
                    res.com[:, 3], res.zeta, res.psi, res.mode])
        elastic, total = energy_outputs(params, res)
        _write_csv(os.path.join(out, "energy.csv"), "t,elastic,total",
                   [res.t, elastic, total])
        metrics = {
            "strides": res.strides,
            "crashed": res.crashed,
            "touchdowns": sum(1 for e in res.events if e.kind == "touchdown"),
            "final_time": float(res.t[-1]),
            "runtime_seconds": time.perf_counter() - t_start,
        }
        fig = Figure(title="hopper height", xlabel="t", ylabel="y",
                     xlim=(0.0, args.T), ylim=(0.0, 100.0))
        fig.add(res.t, res.com[:, 1], label="y")
        save_svg(fig, os.path.join(out, "hop.svg"))
        _write_json(os.path.join(out, "metrics.json"), metrics)
        _write_manifest(out, "ctslip simulate", args.params, args.seed, t_start)
        print(f"ctslip simulate: strides={res.strides} crashed={res.crashed}")
        return EXIT_OK

    damaged = replace(params, t_s=args.ts)
    ensemble = make_ensemble(params, n=10, seed=args.seed)

    if args.action == "damage":
        rows = []
        for label, p in (("nominal", params), ("damaged", damaged)):
            for i, ic in enumerate(ensemble):
                r = simulate_hybrid(p, ic, args.T, cfg)
                rows.append((label, i, r.strides, r.crashed))
        _write_csv(os.path.join(out, "strides.csv"),
                   "member,nominal_strides,damaged_strides",
                   [np.arange(10),
                    np.array([r[2] for r in rows[:10]]),
                    np.array([r[2] for r in rows[10:]])])
        nominal_count = sum(1 for r in rows[:10] if r[2] >= args.strides)
        damaged_count = sum(1 for r in rows[10:] if r[2] >= args.strides)
        metrics = {
            "t_s_nominal": params.t_s, "t_s_damaged": args.ts,
            "strides_required": args.strides,
            "nominal_completing": nominal_count,
            "damaged_completing": damaged_count,
            "runtime_seconds": time.perf_counter() - t_start,
        }
        _write_json(os.path.join(out, "metrics.json"), metrics)
        _write_manifest(out, "ctslip damage", args.params, args.seed, t_start)
        print(f"ctslip damage: completing {args.strides} strides: "
              f"nominal {nominal_count}/10, damaged {damaged_count}/10")
        return EXIT_OK

    # recover
    reference = build_reference(params, ensemble, T=args.T, cfg=cfg)
    initial_cost = recovery_cost(damaged, ensemble, reference)
    nm = NMConfig(initial_step=np.asarray(FREE_PARAM_STEPS),
                  max_iters=args.iters, f_tol=0.0, x_tol=0.0,
                  bounds=FREE_PARAM_BOUNDS)
    recovered, trace = recover_parameters(damaged, reference, ensemble,
                                          nm_config=nm)
    trace.to_csv(os.path.join(out, "cost_trace.csv"))
    _write_json(os.path.join(out, "recovered_params.json"),
                _params_dict(recovered))
    final_cost = min(trace.best_so_far)
    counts = {label: count_completing(p, ensemble, args.strides, args.T, cfg)
              for label, p in (("damaged", damaged), ("recovered", recovered))}
    metrics = {
        "initial_cost": initial_cost,
        "final_cost": final_cost,
        "cost_ratio": final_cost / initial_cost,
        "damaged_completing": counts["damaged"],
        "recovered_completing": counts["recovered"],
        "nm_iterations": trace.iterations,
        "runtime_seconds": time.perf_counter() - t_start,
    }
    _write_json(os.path.join(out, "metrics.json"), metrics)
    fig = Figure(title="recovery cost", xlabel="evaluation",
                 ylabel="log10 best cost", xlim=(0.0, float(len(trace.costs))),
                 ylim=(-4.0, 8.0))
    best = np.maximum(np.array(trace.best_so_far), 1e-300)
    fig.add(np.arange(len(best), dtype=float), np.log10(best), label="best")
    save_svg(fig, os.path.join(out, "cost.svg"))
    _write_manifest(out, "ctslip recover", args.params, args.seed, t_start)
    print(f"ctslip recover: cost {initial_cost:.4g} -> {final_cost:.4g} "
          f"({100.0 * metrics['cost_ratio']:.1f}%), completing "
          f"{counts['damaged']} -> {counts['recovered']}")
    return EXIT_OK


# ------------------------------------------------------------ manipulator

def cmd_manipulator(args) -> int:
    t_start = time.perf_counter()
    out = _ensure_out(args.out)
    model = point_mass_toy()
    perturbed = rescaled_constraint(
        model, lambda q: (1.0 + 0.5 * math.sin(q[0] + 0.7),
                          np.array([0.5 * math.cos(q[0] + 0.7), 0.0])))
    rng = np.random.default_rng(args.seed)
    Q = rng.standard_normal((2, 2))
    while abs(np.linalg.det(Q)) < 0.3:
        Q = rng.standard_normal((2, 2))

    def u_desired(t):
        return np.array([0.8 * math.sin(2.0 * math.pi * t),
                         0.3 * math.cos(4.0 * math.pi * t)])

    outcome = run_force_matching(model, perturbed, u_desired,
                                 q0=(0.3, 0.0), qd0=(0.4, -0.4 * math.sin(0.3)),
                                 T=args.T, dt=args.dt, gauge=Q)
    des, red = outcome.desired, outcome.redesigned
    _write_csv(os.path.join(out, "tracking.csv"),
               "t,q0_des,q1_des,q0_red,q1_red",
               [red.t, des.x[::2, 0], des.x[::2, 1], red.x[:, 0], red.x[:, 1]])
    metrics = {
        "tracking_error": outcome.tracking_error,
        "worst_match_residual": outcome.worst_match_residual,
        "gauge_ok": outcome.gauge_ok,
        "runtime_seconds": time.perf_counter() - t_start,
    }
    _write_json(os.path.join(out, "metrics.json"), metrics)
    fig = Figure(title="force matching", xlabel="t", ylabel="q",
                 xlim=(0.0, args.T), ylim=(-1.5, 1.5))
    fig.add(red.t, des.x[::2, 0], label="q0 des")
    fig.add(red.t, red.x[:, 0], label="q0 red")
    fig.add(red.t, des.x[::2, 1], label="q1 des")
    fig.add(red.t, red.x[:, 1], label="q1 red")
    save_svg(fig, os.path.join(out, "tracking.svg"))
    _write_manifest(out, "manipulator", args.params, args.seed, t_start)
    print(f"manipulator: tracking error {outcome.tracking_error:.3e}, "
          f"gauge_ok={outcome.gauge_ok}")
    return EXIT_OK


# ------------------------------------------------------------------ learn

def cmd_learn(args) -> int:
    t_start = time.perf_counter()
    out = _ensure_out(args.out)
    try:
        traj = Trajectory.from_csv(args.traj)
    except FileNotFoundError:
        raise IOFailure(f"cannot read {args.traj}: no such file")
    if traj.dim != STATE_DIM:
        raise UsageError(
            f"expected a crawler trajectory with {STATE_DIM} state columns, "
            f"got {traj.dim}")
    params = _crawler_params(args.params)
    emap = template_encoding_map(params)
    feats = shape_features(traj.x)
    phase = PhaseEstimator.fit(feats)
    lc = learn_constraints(emap, TEMPLATE_FORMS, traj, phase,
                           order=args.order, phase_features=shape_features)
    try:
        with open(os.path.join(out, "learned.json"), "w") as fh:
            fh.write(learned_to_json(lc))
    except OSError as exc:
        raise IOFailure(f"cannot write learned.json: {exc}")

    # worst-case bound of the fit vs rms of re-evaluating the learned rows
    series = record_eta(emap, TEMPLATE_FORMS, traj)
    phases = np.mod(phase.training_phases(feats), 2.0 * math.pi)
    fit_max = 0.0
    self_sq = np.zeros(len(traj))
    for s, model in zip(series, lc.eta_models):
        err = s - eval_fourier(model, phases)
        fit_max = max(fit_max, float(np.abs(err).max()))
        self_sq += err ** 2
    self_rms = float(np.sqrt(self_sq.mean()))
    metrics = {
        "fit_residual_max": fit_max,
        "self_residual_rms": self_rms,
        "self_below_fit": self_rms < fit_max,
        "order": args.order,
        "samples": len(traj),
        "runtime_seconds": time.perf_counter() - t_start,
    }
    _write_json(os.path.join(out, "metrics.json"), metrics)
    _write_manifest(out, "learn", args.params, args.seed, t_start)
    print(f"learn: self-residual {self_rms:.3e} < fit residual {fit_max:.3e}"
          f": {self_rms < fit_max}")
    return EXIT_OK


# ------------------------------------------------------------------- rank

def cmd_rank(args) -> int:
    t_start = time.perf_counter()
    if not 1 <= args.k < args.n:
        raise UsageError(f"need 1 <= k < n, got n={args.n} k={args.k}")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    out = _ensure_out(args.out)
    n, k = args.n, args.k
    bound = n / (n - k)
    minimal = int(math.floor(bound)) + 1
    rng = np.random.default_rng(args.seed)
    base = rng.standard_normal((k, n))
    samples = rng.standard_normal((10, n))
    per = max(1, args.trials // len(samples))

    n_values = list(range(1, max(minimal + 1, 4) + 1))
    rates = []
    print(f"n={n} k={k}: need N > n/(n-k) = {bound:.4g} "
          f"(minimal integer N = {minimal})")
    print(" N   success   exceeds bound")
    for N in n_values:
        rate = augment_random_rank(lambda s: base, samples, N,
                                   seed=args.seed * 7919 + N, trials=per)
        rates.append(rate)
        print(f"{N:2d}   {rate:7.4f}   {'yes' if N > bound else 'no'}")
    _write_csv(os.path.join(out, "rank_table.csv"),
               "N,success_rate,exceeds_bound",
               [np.array(n_values, dtype=float), np.array(rates),
                np.array([float(N > bound) for N in n_values])])
    _write_json(os.path.join(out, "metrics.json"), {
        "n": n, "k": k, "bound": bound, "minimal_N": minimal,
        "trials_per_N": per * len(samples),
        "success_rates": dict(zip(map(str, n_values), rates)),
        "rate_at_minimal": rates[n_values.index(minimal)],
        "runtime_seconds": time.perf_counter() - t_start,
    })
    _write_manifest(out, "rank", args.params, args.seed, t_start)
    return EXIT_OK


# ------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regait",
        description="constraint-stack behavior recovery toolbox")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument("--params", default=None, help="parameter JSON file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crawler", parents=[common],
                       help="reference gait, jam, baseline, recovery")
    p.add_argument("--jam", type=int, default=1,
                   help="joint to jam (1..6), 0 for no damage")
    p.add_argument("--period", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--order", type=int, default=4,
                   help="Fourier order for the learned rows")
    p.set_defaults(func=cmd_crawler)

    p = sub.add_parser("ctslip", parents=[common],
                       help="hopper simulation, damage study, recovery")
    p.add_argument("action", choices=("simulate", "damage", "recover"))
    p.add_argument("--T", type=float, default=12.0, help="horizon")
    p.add_argument("--dt", type=float, default=2e-3)
    p.add_argument("--ts", type=float, default=0.02,
                   help="damaged hip gain t_s")
    p.add_argument("--strides", type=int, default=10,
                   help="strides that count as completing")
    p.add_argument("--iters", type=int, default=40,
                   help="Nelder-Mead iteration budget for recover")
    p.set_defaults(func=cmd_ctslip)

    p = sub.add_parser("manipulator", parents=[common],
                       help="force matching on the constrained point mass")
    p.add_argument("--T", type=float, default=2.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(func=cmd_manipulator)

    p = sub.add_parser("learn", parents=[common],
                       help="learn constraints from a trajectory CSV")
    p.add_argument("--traj", required=True, help="trajectory CSV file")
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("rank", parents=[common],
                       help="randomized rank-augmentation study")
    p.add_argument("--n", type=int, default=9)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=cmd_rank)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    fresh_out = not os.path.exists(args.out)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrajectoryFormatError, IOFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (IntegrationError, RankDeficiencyError, np.linalg.LinAlgError,
            ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        # a failed run leaves no empty output directory of its own making;
        # rmdir refuses a directory that holds any output
        if fresh_out:
            with contextlib.suppress(OSError):
                os.rmdir(args.out)


if __name__ == "__main__":
    sys.exit(main())
