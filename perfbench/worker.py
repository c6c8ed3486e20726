"""One measured process: set up a workload, replay its op stream, report.

Started by run.py, which sets the thread variables and PYTHONPATH and
passes the monotonic time at which it spawned this process, so set-up
time runs from process start to the first timed op.  Prints one JSON
record as its last line.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tmotive
from tmotive.errors import TMotiveError

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
# a percentile counts as the tail when at least this many samples lie beyond it
TAIL_BEYOND = 10


def _commit():
    """HEAD of the checkout, read without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else None
    return ref


def _source_digest():
    """Hash of the library sources, which names the code even without git."""
    h = hashlib.sha256()
    src = Path(tmotive.__file__).parent
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    return {"commit": _commit(), "source_digest": _source_digest(),
            "kernel_backend": tmotive.KERNEL_BACKEND,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")}}


def _expected(name, seed):
    if not EXPECTED.is_file():
        return []
    return json.loads(EXPECTED.read_text()).get(name, {}).get(str(seed), [])


class Stream:
    """Replays ops, checks each one, keeps the per-op record."""

    def __init__(self, inputs, expected):
        self.inputs = inputs
        self.expected = expected
        self.durations = []
        self.correct = 0
        self.failures = {}
        self.literal_mismatches = 0
        self.digests = []
        self.digest_mismatches = 0

    def _fail(self, tag):
        self.failures[tag] = self.failures.get(tag, 0) + 1

    def more(self, budget_s, max_ops):
        """Whether another op fits: inputs left, under max_ops and budget_s."""
        n = len(self.durations)
        return (n < len(self.inputs.ops) and (max_ops is None or n < max_ops)
                and (n == 0 or sum(self.durations) < budget_s))

    def step(self, tracer=None):
        """Run, time and check the next op; its spans carry its index."""
        i = len(self.durations)
        op = self.inputs.ops[i]
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = workloads.run_op(self.inputs.spec, op)
            err = None
        except TMotiveError as exc:
            err = type(exc).__name__
        except Exception as exc:
            traceback.print_exc()
            err = type(exc).__name__
        self.durations.append(time.perf_counter() - t0)
        if err is not None:
            self._fail(err)
        else:
            self._check(i, op, out)

    def _check(self, i, op, out):
        spec = self.inputs.spec
        failed, literal = workloads.check(spec, op, out)
        self.literal_mismatches += literal
        dig = workloads.digest(workloads.serialize(spec, out))
        self.digests.append(dig)
        if i < len(self.expected) and self.expected[i] != dig:
            self.digest_mismatches += 1
            failed.append("digest")
        if failed:
            for tag in failed:
                self._fail(tag)
        else:
            self.correct += 1

    def summary(self):
        attempted = len(self.durations)
        return {"attempted": attempted, "failed": attempted - self.correct,
                "failures": self.failures,
                "digest": workloads.digest(self.digests),
                "op_digests": self.digests,
                "digest_checked": min(len(self.expected), len(self.digests)),
                "digest_mismatches": self.digest_mismatches,
                "det_literal_mismatch": self.literal_mismatches}


def tail(durations):
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the maximum, with zero samples beyond.
    """
    xs = sorted(durations)
    n = len(xs)
    j = max(0, n - TAIL_BEYOND - 1) if n > TAIL_BEYOND else n - 1
    return xs[j], 100.0 * (j + 1) / n, n - 1 - j


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, inputs, setup_s):
    stream = Stream(inputs, _expected(args.workload, args.seed))
    while stream.more(args.seconds, args.max_ops):
        stream.step()
    rec = stream.summary()
    d = stream.durations
    value, pct, beyond = tail(d)
    rec["metrics"] = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": stream.correct / sum(d), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(d), "unit": "s"},
        "op_tail_s": {"value": value, "unit": "s"},
        "fail_ratio": {"value": rec["failed"] / rec["attempted"], "unit": "ratio"},
        "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
    }
    rec["tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": len(d)}
    rec["durations"] = d
    return rec


def measure_traced(args, inputs):
    """Each op traced, then again untraced, until both together fill --seconds.

    Running the pair back to back keeps the tracing overhead apart from
    drift in machine speed, which moves a whole run.
    """
    expected = _expected(args.workload, args.seed)
    tracer = Tracer()
    traced = Stream(inputs, expected)
    plain = Stream(inputs, expected)
    while traced.more(args.seconds - sum(plain.durations), args.max_ops):
        tracer.install(callers=[workloads])
        try:
            traced.step(tracer)
        finally:
            tracer.uninstall()
        plain.step()
    n = len(traced.durations)
    rec = traced.summary()
    plain_rec = plain.summary()
    rec["attempted"] += plain_rec["attempted"]
    rec["failed"] += plain_rec["failed"]
    for tag, count in plain_rec["failures"].items():
        rec["failures"][tag] = rec["failures"].get(tag, 0) + count
    layers = tracer.layer_metrics(n, traced.literal_mismatches)
    self_sums = tracer.op_self_sums(n)
    overhead = sum(traced.durations) / sum(plain.durations) - 1.0
    layers["trace.overhead"] = (overhead, "ratio")
    layers["trace.self_share"] = (sum(self_sums) / sum(traced.durations), "ratio")
    rec["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    rec["traced_ops_per_s"] = traced.correct / sum(traced.durations)
    rec["untraced_ops_per_s"] = plain.correct / sum(plain.durations)
    rec["op_wall_s"] = traced.durations
    rec["op_self_sum_s"] = self_sums
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.dump(path)
    rec["spans_file"] = str(path.relative_to(ROOT))
    rec["spans"] = len(tracer.name)
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--spawn-t", type=float, required=True,
                    help="time.monotonic() of the launcher when it spawned this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    inputs = workloads.setup(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawn_t
    if args.setup_only:
        rec = {"setup_s": setup_s}
    elif args.trace:
        rec = measure_traced(args, inputs)
    else:
        rec = measure(args, inputs, setup_s)
    rec.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "env": environment()})
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
