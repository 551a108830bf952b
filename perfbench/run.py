"""Session benchmark for onnkit.

    python3 perfbench/run.py --workload conv-tape --seed 1 --seconds 40 --trace 0

Runs whole onnkit sessions (see session.py) on one workload for about
--seconds seconds, each session in a fresh Python process, and combines
them with session.summarize. Human-readable lines come first; the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end figures. With --trace 1,
traced and untraced sessions alternate: the metrics are the per-layer
figures of the traced ones (means over those sessions) plus
trace.overhead_frac, the traced sessions' mean wall time over the
untraced ones' minus one.

Run it from the root of an onnkit checkout: onnkit is imported from its
src/ directory and the sessions write under .perfbench_work/. It exits
non-zero without a result when that source tree is missing.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# a ref-hetero session takes about 15 s; one that takes this long hangs
SESSION_TIMEOUT_S = 120

# one BLAS thread per process: the README runs each fold single-threaded,
# and ref-hetero trains its two folds on two threads of one process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "verify_s": "s",
    "gradcheck_s": "s",
    "peak_rss_mib": "MiB",
}
# printed with the end-to-end figures but not part of the result: the
# SNR sits near 0 dB on two workloads, and failed_fraction is 0 when the
# program is right, so neither can be judged as a share of its median
REPORTED = {"best_val_snr_db": "dB", "train_loss_ratio": "ratio",
            "failed_fraction": "fraction"}

PER_LAYER_UNITS = {
    "network.tape_nodes_per_step": "count",
    "oplib.nodal_elems": "elems-computed",
    "patchops.patch_bytes": "bytes-computed",
    "autograd.grad_bytes": "bytes-computed",
    "optim.steps": "count",
    "checkpoint.archive_bytes": "bytes",
    "cli.fold_overlap": "ratio",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "s")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks sample and epoch counts for smoke tests")
    p.add_argument("--fault", choices=("tamper-archive",), default=None,
                   help="inject a failure, to test that the checks catch it")
    # internal: run one session and write its result here as JSON
    p.add_argument("--session-out", type=Path, default=None,
                   help=argparse.SUPPRESS)
    p.add_argument("--session-index", type=int, default=0,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _session_process(args, workdir: Path, index: int, trace: bool):
    """Run one session in a fresh process, so that its peak RSS is its
    own, and return its SessionResult and Checks."""
    from session import Checks, SessionResult
    out = workdir / "session.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", str(int(trace)),
           "--scale", args.scale, "--session-out", str(out),
           "--session-index", str(index)]
    if args.fault:
        cmd += ["--fault", args.fault]
    subprocess.run(cmd, stdout=sys.stderr, timeout=SESSION_TIMEOUT_S,
                   check=True)
    data = json.loads(out.read_text())
    return SessionResult(**data["result"]), Checks(**data["checks"])


def _environment(jobs: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "fold_jobs": jobs,
        **{v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, make_instance
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        import onnkit
    except ImportError as e:
        print(f"error: cannot import onnkit from {SRC}: {e}", file=sys.stderr)
        return 2
    if not Path(onnkit.__file__).resolve().is_relative_to(SRC):
        print(f"error: onnkit resolves to {onnkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from session import Checks, run_session, summarize
    max_jobs = len(os.sched_getaffinity(0))
    inst = make_instance(args.workload, args.seed, args.scale, max_jobs,
                         args.session_index)
    if args.session_out is not None:
        checks = Checks()
        result = run_session(inst, args.session_out.parent / "session",
                             checks, bool(args.trace), args.fault)
        args.session_out.write_text(json.dumps(
            {"result": dataclasses.asdict(result),
             "checks": dataclasses.asdict(checks)}))
        return 0

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    checks = Checks()
    done, spent = [], []
    started = time.perf_counter()
    try:
        while True:
            # traced and untraced sessions alternate, the traced one first
            trace_this = bool(args.trace) and len(done) % 2 == 0
            t0 = time.perf_counter()
            result, session_checks = _session_process(
                args, workdir, len(done), trace_this)
            spent.append(time.perf_counter() - t0)
            done.append(result)
            checks.absorb(session_checks)
            enough = len(done) >= 2 if args.trace else True
            typical = statistics.mean(spent)
            if enough and time.perf_counter() - started + typical > args.seconds:
                break
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"error: session {len(done) + 1} failed: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain = [r for r in done if r.layers is None]
    traced = [r for r in done if r.layers is not None]

    env = _environment(inst.jobs)
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"sessions {len(plain)} untraced, {len(traced)} traced")
    print("session wall s: " + ", ".join(
        f"{r.wall_s:.3f}{' (traced)' if r.layers else ''}" for r in done))
    print("peak rss MiB of each session: " + ", ".join(
        f"{r.peak_rss_mib:.1f}" for r in done))
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    figures = summarize(plain)
    checks.record("every end-to-end figure is finite",
                  all(math.isfinite(v) for v in figures.values()))
    figures["failed_fraction"] = checks.failed / checks.attempted
    for line in checks.failures:
        print(f"FAILED {line}")
    units = {**END_TO_END, **REPORTED}
    for name, unit in units.items():
        print(f"{name:28s} {figures[name]:.6g} {unit}")
    if args.trace:
        layers = {name: statistics.mean(r.layers[name] for r in traced)
                  for name in traced[0].layers}
        layers["trace.overhead_frac"] = (
            statistics.mean(r.wall_s for r in traced)
            / statistics.mean(r.wall_s for r in plain) - 1.0)
        for name, value in layers.items():
            print(f"{name:28s} {value:.6g} {per_layer_unit(name)}")
        metrics = {n: {"value": v, "unit": per_layer_unit(n)}
                   for n, v in layers.items()}
    else:
        metrics = {n: {"value": figures[n], "unit": u}
                   for n, u in END_TO_END.items()}
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
