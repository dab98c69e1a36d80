"""Command-line front end: reproducible end-to-end runs with CSV/JSON/SVG
outputs and a manifest per run.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O failure.
Each subcommand writes its own artifacts into ``--out`` and returns its
metrics; ``main`` creates the directory, times the run and writes
metrics.json and then manifest.json, last. All randomness flows from the
manifest seed, and numeric outputs are written with %.17g so identical runs
produce identical bytes.
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
from .constraints import augment_random_rank
from .crawler import (N_JOINTS, STATE_DIM, TEMPLATE_FORMS, CrawlerParams,
                      angle_difference, foot_residual_series, group_velocity,
                      playback_baseline, recover, reference_gait,
                      shape_features, template_encoding_map)
from .ctslip import (RECOVERY_SEARCH, SIM_DT, BuehlerClock, CTSlipParams,
                     build_reference, count_completing, energy_outputs,
                     make_ensemble, nominal_ic, recover_parameters,
                     simulate_hybrid)
from .encoding import learn_constraints, learned_to_json
from .integrate import span_steps
from .manipulator import point_mass_toy, rescaled_constraint, run_force_matching
from .signals import PhaseEstimator
from .svgplot import Figure, save_svg
from .trajectory import Trajectory, TrajectoryFormatError, write_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


class IOFailure(Exception):
    """Unreadable or unparseable input file; maps to exit code 4."""


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_params(path: str, kind: str, keys) -> dict:
    """The JSON object of a ``--params`` file; every key must be in ``keys``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise IOFailure(f"{path}: line {exc.lineno}: {exc.msg}")
    except OSError as exc:
        raise IOFailure(f"cannot read {path}: {exc}")
    if not isinstance(raw, dict):
        raise UsageError(f"{path}: {kind} parameters must be a JSON object, "
                         f"got {type(raw).__name__}")
    unknown = set(raw) - set(keys)
    if unknown:
        raise UsageError(f"unknown {kind} parameter(s): {sorted(unknown)}")
    return raw


def _number(kind: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{kind} parameter {key!r} must be a number, "
                         f"got {value!r}")
    return float(value)


def _flag_type(convert, positive: bool, what: str):
    """argparse type of a numeric flag: ``convert(text)``, finite and above
    zero (at or above it unless ``positive``), so that a bad value is a
    usage error that names the flag."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        # written so that NaN fails the comparison
        if not ((0 < value if positive else 0 <= value) and value < math.inf):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive = _flag_type(float, True, "a finite positive number")
_non_negative = _flag_type(float, False, "a finite non-negative number")
_count = _flag_type(int, False, "a non-negative integer")


def _rms(arr) -> float:
    return float(np.sqrt(np.mean(np.square(np.asarray(arr)))))


@contextlib.contextmanager
def _timed(seconds: dict, stage: str):
    """Record the wall time of the ``with`` body as ``<stage>_seconds``."""
    start = time.perf_counter()
    yield
    seconds[f"{stage}_seconds"] = time.perf_counter() - start


# ---------------------------------------------------------------- crawler

def _crawler_params(path: str | None) -> CrawlerParams:
    if path is None:
        return CrawlerParams()
    raw = _load_params(path, "crawler", ("l1", "l2", "h1", "h2"))

    def point(key):
        v = raw[key]
        if not isinstance(v, list):
            return complex(_number("crawler", key, v))
        if len(v) != 2:
            raise UsageError(f"crawler parameter {key!r} must be a number or "
                             f"[re, im], got {v!r}")
        return complex(_number("crawler", key, v[0]),
                       _number("crawler", key, v[1]))

    values = {k: point(k) for k in raw}
    try:
        return CrawlerParams(**values)
    except ValueError as exc:
        raise UsageError(f"crawler parameter(s) {sorted(raw)}: {exc}")


def _learn(args, params: CrawlerParams, traj: Trajectory) -> float:
    """Learn the template rows back from ``traj`` and write learned.json;
    returns the worst of the learned series' fit residual rms."""
    phase = PhaseEstimator.fit(shape_features(traj.x))
    lc = learn_constraints(template_encoding_map(params), TEMPLATE_FORMS, traj,
                           phase, order=args.order,
                           phase_features=shape_features)
    with open(os.path.join(args.out, "learned.json"), "w") as fh:
        fh.write(learned_to_json(lc))
    return max(m.fit_residual_rms for m in lc.eta_models)


def cmd_crawler(args) -> dict:
    if not 0 <= args.jam <= N_JOINTS:
        raise UsageError(f"--jam must be in 0..{N_JOINTS}, got {args.jam}")
    out = args.out
    params = _crawler_params(args.params)
    span_steps(0.0, args.period, args.dt)   # recover's span, before any output

    seconds = {}
    with _timed(seconds, "reference"):
        reference = reference_gait(params, period=args.period, dt=args.dt)
    full = reference.full_grid()
    with _timed(seconds, "learn"):
        fit_rms = _learn(args, params, full)
    full.to_csv(os.path.join(out, "reference.csv"))   # only once learned

    with _timed(seconds, "recover"):
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
        "learned_fit_residual_rms": fit_rms,
    }

    fig = Figure(title=f"template traces (jam={args.jam})", xlabel="t",
                 ylabel="r, alpha", xlim=(0.0, args.period), ylim=(0.0, 3.0))
    fig.add(full.t, ref_r, label="r ref")
    fig.add(full.t, ref_a, label="a ref")
    fig.add(rec.trajectory.t, rec.r, label="r rec")
    fig.add(rec.trajectory.t, rec.alpha, label="a rec")

    if args.jam:
        with _timed(seconds, "baseline"):
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

    save_svg(fig, os.path.join(out, "traces.svg"))
    print(f"crawler jam={args.jam}: template rms "
          f"r={metrics['rms_r']:.3e} alpha={metrics['rms_alpha']:.3e}")
    metrics.update(seconds)
    return metrics


# ----------------------------------------------------------------- ctslip

_CLOCK_KEYS = ("duty_factor", "sweep_angle", "touchdown_angle", "frequency")
_PLANT_KEYS = ("eta", "mu", "L", "t_s", "K", "gravity", "kp", "kd")


def _ctslip_params(path: str | None) -> CTSlipParams:
    if path is None:
        return CTSlipParams()
    raw = _load_params(path, "ctslip", _CLOCK_KEYS + _PLANT_KEYS)
    values = {k: _number("ctslip", k, v) for k, v in raw.items()}
    try:
        clock = BuehlerClock(**{k: values[k] for k in _CLOCK_KEYS
                                if k in values})
        return CTSlipParams(clock=clock, **{k: values[k] for k in _PLANT_KEYS
                                            if k in values})
    except ValueError as exc:
        raise UsageError(f"ctslip parameter(s) {sorted(raw)}: {exc}")


def _params_dict(p: CTSlipParams) -> dict:
    d = {k: getattr(p, k) for k in _PLANT_KEYS}
    d.update({k: getattr(p.clock, k) for k in _CLOCK_KEYS})
    return d


def cmd_ctslip(args) -> dict:
    out = args.out
    params = _ctslip_params(args.params)

    if args.action == "simulate":
        res = simulate_hybrid(params, nominal_ic(params), args.T, args.dt)
        write_csv(os.path.join(out, "com.csv"),
                  "t,x,y,xdot,ydot,zeta,psi,mode",
                  [res.t, res.com, res.zeta, res.psi, res.mode])
        elastic, total = energy_outputs(params, res)
        write_csv(os.path.join(out, "energy.csv"), "t,elastic,total",
                  [res.t, elastic, total])
        metrics = {
            "strides": res.strides,
            "crashed": res.crashed,
            "touchdowns": sum(1 for e in res.events if e.kind == "touchdown"),
            "final_time": float(res.t[-1]),
        }
        fig = Figure(title="hopper height", xlabel="t", ylabel="y",
                     xlim=(0.0, args.T), ylim=(0.0, 100.0))
        fig.add(res.t, res.com[:, 1], label="y")
        save_svg(fig, os.path.join(out, "hop.svg"))
        print(f"ctslip simulate: strides={res.strides} crashed={res.crashed}")
        return metrics

    damaged = replace(params, t_s=args.ts)
    ensemble = make_ensemble(params, n=10, seed=args.seed)

    if args.action == "damage":
        strides = [[simulate_hybrid(p, ic, args.T, args.dt).strides
                    for ic in ensemble] for p in (params, damaged)]
        write_csv(os.path.join(out, "strides.csv"),
                  "member,nominal_strides,damaged_strides",
                  [np.arange(len(ensemble)), *strides])
        nominal_count, damaged_count = (
            sum(1 for s in run if s >= args.strides) for run in strides)
        metrics = {
            "t_s_nominal": params.t_s, "t_s_damaged": args.ts,
            "strides_required": args.strides,
            "nominal_completing": nominal_count,
            "damaged_completing": damaged_count,
        }
        print(f"ctslip damage: completing {args.strides} strides: "
              f"nominal {nominal_count}/10, damaged {damaged_count}/10")
        return metrics

    # recover
    seconds = {}
    with _timed(seconds, "reference"):
        reference = build_reference(params, ensemble, T=args.T, dt=args.dt)
    with _timed(seconds, "search"):
        recovered, trace = recover_parameters(
            damaged, reference, ensemble,
            nm_config=replace(RECOVERY_SEARCH, max_iters=args.iters))
    # the search's first evaluation is the damaged plant, clipped to bounds
    initial_cost = trace.costs[0]
    trace.to_csv(os.path.join(out, "cost_trace.csv"))
    _write_json(os.path.join(out, "recovered_params.json"),
                _params_dict(recovered))
    final_cost = min(trace.best_so_far)
    with _timed(seconds, "count"):
        counts = {label: count_completing(p, ensemble, args.strides, args.T,
                                           args.dt)
                  for label, p in (("damaged", damaged),
                                   ("recovered", recovered))}
    metrics = {
        "initial_cost": initial_cost,
        "final_cost": final_cost,
        "cost_ratio": final_cost / initial_cost,
        "damaged_completing": counts["damaged"],
        "recovered_completing": counts["recovered"],
        "nm_iterations": trace.iterations,
        **seconds,
    }
    fig = Figure(title="recovery cost", xlabel="evaluation",
                 ylabel="log10 best cost", xlim=(0.0, float(len(trace.costs))),
                 ylim=(-4.0, 8.0))
    best = np.maximum(np.array(trace.best_so_far), 1e-300)
    fig.add(np.arange(len(best), dtype=float), np.log10(best), label="best")
    save_svg(fig, os.path.join(out, "cost.svg"))
    print(f"ctslip recover: cost {initial_cost:.4g} -> {final_cost:.4g} "
          f"({100.0 * metrics['cost_ratio']:.1f}%), completing "
          f"{counts['damaged']} -> {counts['recovered']}")
    return metrics


# ------------------------------------------------------------ manipulator

def cmd_manipulator(args) -> dict:
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
    write_csv(os.path.join(args.out, "tracking.csv"),
              "t,q0_des,q1_des,q0_red,q1_red",
              [red.t, des.x[::2, :2], red.x[:, :2]])
    metrics = {
        "tracking_error": outcome.tracking_error,
        "worst_match_residual": outcome.worst_match_residual,
        "gauge_ok": outcome.gauge_ok,
    }
    fig = Figure(title="force matching", xlabel="t", ylabel="q",
                 xlim=(0.0, args.T), ylim=(-1.5, 1.5))
    fig.add(red.t, des.x[::2, 0], label="q0 des")
    fig.add(red.t, red.x[:, 0], label="q0 red")
    fig.add(red.t, des.x[::2, 1], label="q1 des")
    fig.add(red.t, red.x[:, 1], label="q1 red")
    save_svg(fig, os.path.join(args.out, "tracking.svg"))
    print(f"manipulator: tracking error {outcome.tracking_error:.3e}, "
          f"gauge_ok={outcome.gauge_ok}")
    return metrics


# ------------------------------------------------------------------ learn

def cmd_learn(args) -> dict:
    try:
        traj = Trajectory.from_csv(args.traj)
    except FileNotFoundError:
        raise IOFailure(f"cannot read {args.traj}: no such file")
    if traj.dim != STATE_DIM:
        raise UsageError(
            f"expected a crawler trajectory with {STATE_DIM} state columns, "
            f"got {traj.dim}")
    # an order-n Fourier series has 2n + 1 coefficients
    if len(traj) < 2 * args.order + 1:
        raise TrajectoryFormatError(
            f"{args.traj}: {len(traj)} rows; an order-{args.order} Fourier "
            f"fit needs at least {2 * args.order + 1}")
    params = _crawler_params(args.params)
    fit_rms = _learn(args, params, traj)
    print(f"learn: fit residual rms {fit_rms:.3e} at order {args.order} "
          f"over {len(traj)} samples")
    return {"learned_fit_residual_rms": fit_rms, "order": args.order,
            "samples": len(traj)}


# ------------------------------------------------------------------- rank

def cmd_rank(args) -> dict:
    if not 1 <= args.k < args.n:
        raise UsageError(f"need 1 <= k < n, got n={args.n} k={args.k}")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
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
    write_csv(os.path.join(args.out, "rank_table.csv"),
              "N,success_rate,exceeds_bound",
              [n_values, rates, [N > bound for N in n_values]])
    return {
        "n": n, "k": k, "bound": bound, "minimal_N": minimal,
        "trials_per_N": per * len(samples),
        "success_rates": dict(zip(map(str, n_values), rates)),
        "rate_at_minimal": rates[n_values.index(minimal)],
    }


# ------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regait",
        description="constraint-stack behavior recovery toolbox")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=_count, default=0,
                        help="master RNG seed")
    with_params = argparse.ArgumentParser(add_help=False, parents=[common])
    with_params.add_argument("--params", default=None,
                             help="parameter JSON file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crawler", parents=[with_params],
                       help="reference gait, jam, baseline, recovery")
    p.add_argument("--jam", type=int, default=1,
                   help="joint to jam (1..6), 0 for no damage")
    p.add_argument("--period", type=_positive, default=1.0)
    p.add_argument("--dt", type=_positive, default=1e-3)
    p.add_argument("--order", type=_count, default=4,
                   help="Fourier order for the learned rows")
    p.set_defaults(func=cmd_crawler)

    p = sub.add_parser("ctslip", parents=[with_params],
                       help="hopper simulation, damage study, recovery")
    p.add_argument("action", choices=("simulate", "damage", "recover"))
    p.add_argument("--T", type=_positive, default=12.0, help="horizon")
    p.add_argument("--dt", type=_positive, default=SIM_DT)
    p.add_argument("--ts", type=_non_negative, default=0.02,
                   help="damaged hip gain t_s")
    p.add_argument("--strides", type=_count, default=10,
                   help="strides that count as completing")
    p.add_argument("--iters", type=_count, default=40,
                   help="Nelder-Mead iteration budget for recover")
    p.set_defaults(func=cmd_ctslip)

    p = sub.add_parser("manipulator", parents=[common],
                       help="force matching on the constrained point mass")
    p.add_argument("--T", type=_positive, default=2.0)
    p.add_argument("--dt", type=_positive, default=1e-3)
    p.set_defaults(func=cmd_manipulator)

    p = sub.add_parser("learn", parents=[with_params],
                       help="learn constraints from a trajectory CSV")
    p.add_argument("--traj", required=True, help="trajectory CSV file")
    p.add_argument("--order", type=_count, default=4)
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
        t_start = time.perf_counter()
        os.makedirs(args.out, exist_ok=True)
        metrics = args.func(args)
        metrics["runtime_seconds"] = time.perf_counter() - t_start
        _write_json(os.path.join(args.out, "metrics.json"), metrics)
        action = getattr(args, "action", None)
        _write_json(os.path.join(args.out, "manifest.json"), {
            "subcommand": f"{args.command} {action}" if action else args.command,
            "params": getattr(args, "params", None),
            "seed": args.seed,
            "out_dir": os.path.abspath(args.out),
            "tool_version": __version__,
            "duration_seconds": time.perf_counter() - t_start,
        })
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrajectoryFormatError, IOFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, RuntimeError) as exc:
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
