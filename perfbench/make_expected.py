"""Record the expected per-op output digests for the documented seeds.

    python3 perfbench/make_expected.py

Runs the first workloads.DIGEST_OPS ops of every workload at the default
and the holdout seed and writes perfbench/expected.json.  Refuses when
an op fails or when the two seeds share an op.  Run it only on code
whose outputs are known good: every later run compares against it.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))
from workloads import DIGEST_OPS  # noqa: E402  (imports tmotive from src/)


def main():
    out = {}
    for name in run.WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HOLDOUT_SEED):
            rec, res = run.run(name, seed, float("inf"), 0, max_ops=DIGEST_OPS)
            # digests that differ from the file being rewritten are no failure here
            failures = {k: v for k, v in rec["failures"].items() if k != "digest"}
            if failures or res["attempted"] != DIGEST_OPS:
                raise SystemExit(f"{name} seed {seed}: {failures}")
            out.setdefault(name, {})[str(seed)] = rec["op_digests"]
            print(name, seed, rec["digest"], flush=True)
        shared = set.intersection(*(set(d) for d in out[name].values()))
        if shared:
            raise SystemExit(f"{name}: default and holdout seed share ops {sorted(shared)}")
    (run.HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
