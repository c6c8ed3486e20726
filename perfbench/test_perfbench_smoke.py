"""Smoke test of the benchmark: one op per workload, untraced and traced.

run.py --smoke itself checks that every op is correct, that its output
digest matches the stored one, and that the traced self times of an op
sum to no more than its wall time.  This test also holds the printed
metrics to the names and units that BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_smoke_mode():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-4000:]
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [r["workload"] for r in rows] == [w["name"] for w in spec["workloads"]]
    for row in rows:
        for mode, kind in (("untraced", "end_to_end"), ("traced", "per_layer")):
            res = row[mode]
            assert res["correct"] and res["failed"] == 0
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == _declared(kind), (row["workload"], mode)
