"""tmotive benchmark: seeded workloads through the public library API.

    python3 perfbench/run.py --workload iso-q3 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  Each run starts fresh worker
processes with one BLAS/OpenMP thread and the checkout's src/ on the
import path.  With --trace 0 it prints the end-to-end metrics; set-up
time is the median over five processes (four that only set up, then
the measured one).  With --trace 1 it prints the per-layer metrics of
a traced run and the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it holds the full record (environment, seed,
output digest, failures by class, tail percentile).  See
perfbench/README.md for the workloads, metrics and seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

WORKLOADS = ("iso-q3", "lattice-q3", "iso-q5")
END_TO_END = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mib")
SETUP_PROBES = 4
# figures for a change come from DEFAULT_SEED; a claimed gain must also
# hold on HOLDOUT_SEED, which no change may be tuned on
DEFAULT_SEED = 1
HOLDOUT_SEED = 7
# a worker must end well inside the 180 s a whole run may take
WORKER_TIMEOUT_S = 150
THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    """A run that cannot produce a result."""


def _env():
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(args):
    """Run one worker to completion and return its JSON record."""
    cmd = [sys.executable, str(WORKER), "--spawn-t", repr(time.monotonic())] + args
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no record")
    return json.loads(lines[-1])


def run(workload, seed, seconds, trace, max_ops=None):
    """One benchmark run; returns (full record, result line object)."""
    if not (SRC / "tmotive" / "__init__.py").is_file():
        raise BenchError(f"no tmotive sources under {SRC}")
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if max_ops is not None:
        args += ["--max-ops", str(max_ops)]
    setups = []
    if not trace:
        setups = [_spawn(args + ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
    rec = _spawn(args)
    metrics = rec["metrics"]
    if not trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        rec["setup_samples_s"] = setups
        metrics = {k: metrics[k] for k in END_TO_END}
    return rec, {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                 "failed": rec["failed"], "metrics": metrics}


def smoke():
    """One op per workload, untraced and traced; raise on any broken promise."""
    for workload in WORKLOADS:
        rec, res = run(workload, DEFAULT_SEED, 1, 0, max_ops=1)
        if set(res["metrics"]) != set(END_TO_END):
            raise BenchError(f"{workload}: end-to-end metrics {sorted(res['metrics'])}")
        trec, tres = run(workload, DEFAULT_SEED, 1, 1, max_ops=1)
        for r, record in ((res, rec), (tres, trec)):
            if not r["correct"] or record["digest_checked"] < 1:
                raise BenchError(f"{workload}: op failed or digest unchecked: {record['failures']}")
            for name, m in r["metrics"].items():
                if set(m) != {"value", "unit"} or not m["unit"]:
                    raise BenchError(f"{workload}: metric {name} lacks a unit")
        for wall, self_sum in zip(trec["op_wall_s"], trec["op_self_sum_s"]):
            if self_sum > wall:
                raise BenchError(f"{workload}: traced self time {self_sum} > op wall {wall}")
        print(json.dumps({"workload": workload, "untraced": res, "traced": tres}))


def main(argv=None):
    ap = argparse.ArgumentParser(description="tmotive benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one op per workload, untraced and traced, with checks")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            smoke()
            return 0
        if args.workload is None or args.seed is None or args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        rec, res = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": rec}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
