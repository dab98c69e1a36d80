"""Recovery benchmark for regait: crawler-recover, gait-repair, hopper-recover.

    python3 bench/run.py --workload crawler-recover --seed 0 --seconds 25 \
        --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones (set-up time, round time,
median operation time, peak memory); with ``--trace 1`` the public functions
of the package are wrapped and the metrics are the per-layer ones. Without
``--workload`` every workload runs in a child process of its own and a table
is printed. Results and traces are written under ``bench/out/``.

The package is imported from ``src/`` next to this directory, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("crawler-recover", "gait-repair", "hopper-recover")
SETUPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "REGAIT_THREADS")
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("op_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="one workload in this process (default: all, "
                         "each in a child process)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measure whole rounds for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def check_layout():
    """The checkout must hold the package sources and BENCHMARK.json."""
    if not (ROOT / "src" / "regait" / "__init__.py").is_file():
        return f"no package sources at {ROOT / 'src' / 'regait'}"
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read BENCHMARK.json: {exc}"
    from layers import PER_LAYER
    e2e = [(m["name"], m["unit"]) for m in spec.get("end_to_end", [])]
    layer = [(m["name"], m["unit"], m["better"])
             for m in spec.get("per_layer", [])]
    if e2e != list(END_TO_END) or layer != list(PER_LAYER):
        return "BENCHMARK.json metrics differ from the ones this code reports"
    return None


def run_all(args) -> int:
    """Each workload in a child process; prints a table of the results."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:<36} {m['value']:>14.6g} {m['unit']}")
        status |= not result["correct"]
    return status


def measure(args) -> tuple[dict, dict]:
    import numpy as np

    import layers
    import regait
    from workloads import WORKLOADS, OpLog

    src = (ROOT / "src").resolve()
    if src not in Path(regait.__file__).resolve().parents:
        raise SystemExit(fail(f"regait imported from {regait.__file__}, "
                              f"not from {src}"))
    wl = WORKLOADS[args.workload]
    probe = None
    if args.trace:
        probe = layers.Probe()
        probe.install()

    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    ops = OpLog()
    round_times = []
    first = None
    same = True
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = wl.round(state, ops)
        round_times.append(time.perf_counter() - t0)
        if first is None:
            first = out
        else:
            same = same and wl.same(first, out)
        # stop at the round boundary nearest to the requested length
        if time.perf_counter() - begin >= args.seconds - 0.5 * round_times[-1]:
            break
    end = time.perf_counter()
    if probe is not None:
        probe.tracer.restore()

    problems, facts = wl.check(state, first)
    if not same:
        problems.append("rounds gave different outputs")
    rounds = len(round_times)
    if probe is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(round_times),
            "op_p50_ms": 1e3 * statistics.median(ops.times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        target = wl.target and (lambda costs: wl.target(state, costs))
        values = probe.metrics(begin, end, rounds, target)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}

    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
        "round_s": round_times, "setup_s": setup_times,
        "ops_per_round": len(ops.times) // rounds,
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "problems": problems, "facts": facts,
    }
    if probe is not None:
        OUT.mkdir(exist_ok=True)
        stem = f"trace-{args.workload}-seed{args.seed}"
        probe.tracer.save(str(OUT / f"{stem}.npz"))
        info["absent"] = probe.tracer.absent
        info["traced_run_s"] = statistics.median(round_times)
    result = {
        "correct": not problems,
        "attempted": len(ops.times),
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    return info, result


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"     # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    problem = check_layout()
    if problem:
        return fail(problem)
    if args.workload is None:
        return run_all(args)
    info, result = measure(args)
    OUT.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    for problem in info["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    if info.get("absent"):
        print(f"absent: {', '.join(info['absent'])}")
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
