"""Opt-in spans around the calls into each tmotive layer.

Tracer.install() replaces each traced function with a wrapper in every
tmotive module namespace that bound it (so ``from .cinf import c_inv``
in anderson, latticemap and isomsolver is caught too), and on the class
for methods.  A span records its name, start, end, parent span and op
id; spans stay in memory until the run ends.  Extra per-call counters
(kernel operand sizes, solver steps) are computed outside the timed
interval of the span, and their cost is subtracted from every enclosing
span, so they do not show up as self time of the caller.

Layer metrics are reported per op over the traced ops: a count is calls
per op, a time is seconds per op.  Self time is a span's duration minus
the time its child spans cover.
"""

import gzip
import importlib
import json
import time

import numpy as np

# the pure kernel's dense accumulation cap, above which it pairs sparsely
from tmotive._kernels.pure import _DENSE_WINDOW

# (module, attribute or Class.method), in layer order
TRACED = [
    ("tmotive._kernels", "series_mul"),
    ("tmotive._kernels", "series_add_merge"),
    ("tmotive.ffield", "omega_split"),
    ("tmotive.ffield", "ffpoly_det"),
    ("tmotive.ffield", "find_root_in_field"),
    ("tmotive.cinf", "c_inv"),
    ("tmotive.cinf", "c_root"),
    ("tmotive.cinf", "q_twist"),
    ("tmotive.linalg", "mat_solve"),
    ("tmotive.linalg", "mat_mul"),
    ("tmotive.linalg", "pm_det"),
    ("tmotive.anderson", "exp_coeffs"),
    ("tmotive.anderson", "exp_eval"),
    ("tmotive.latticemap", "Lattice._check"),
    ("tmotive.latticemap", "perturbed_root"),
    ("tmotive.latticemap", "lattice_of"),
    ("tmotive.latticemap", "siegel_of"),
    ("tmotive.latticemap", "mobius"),
    ("tmotive.latticemap", "recover_change_of_basis"),
    # one call per degree cap the recovery tries
    ("tmotive.latticemap", "_fp_nullspace"),
    ("tmotive.isomsolver", "build_linear_system"),
    ("tmotive.isomsolver", "solve_iso"),
    ("tmotive.isomsolver", "morphism_residual"),
]

_MODULES = ["tmotive._kernels", "tmotive.ffield", "tmotive.cinf", "tmotive.linalg",
            "tmotive.anderson", "tmotive.latticemap", "tmotive.isomsolver",
            "tmotive.acceptance", "tmotive.cli"]

# per-op statistics reported from the spans of one traced function:
# calls (or calls_per_op), self_s, or s for the whole span
PER_OP = [
    ("kernels.series_add_merge", ("calls", "self_s")),
    ("cinf.c_inv", ("calls", "self_s")),
    ("cinf.c_root", ("calls", "self_s")),
    ("cinf.q_twist", ("calls", "self_s")),
    ("linalg.mat_solve", ("calls", "self_s")),
    ("linalg.mat_mul", ("calls", "self_s")),
    ("linalg.pm_det", ("self_s",)),
    ("ffield.omega_split", ("calls",)),
    ("ffield.ffpoly_det", ("calls", "self_s")),
    ("ffield.find_root_in_field", ("calls",)),
    ("anderson.exp_coeffs", ("calls_per_op", "self_s")),
    ("anderson.exp_eval", ("calls", "self_s")),
    ("latticemap.Lattice._check", ("s",)),
    ("latticemap.perturbed_root", ("calls", "self_s")),
    ("latticemap.lattice_of", ("calls_per_op",)),
    ("latticemap.siegel_of", ("self_s",)),
    ("latticemap.mobius", ("self_s",)),
    ("latticemap.recover_change_of_basis", ("self_s",)),
    ("isomsolver.build_linear_system", ("self_s",)),
    ("isomsolver.solve_iso", ("self_s",)),
    ("isomsolver.morphism_residual", ("self_s",)),
]

SIZE_BUCKETS = (("le64", 64), ("65-400", 400), ("gt400", None))


def _label(module, attr):
    return f"{module.split('.')[-1].lstrip('_')}.{attr}"


def _bucket(shorter):
    for name, top in SIZE_BUCKETS:
        if top is None or shorter <= top:
            return name


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.lost = []          # probe seconds spent inside the span
        self.kernel = []        # per series_mul: (span, bucket, pairs, kept, bytes, sparse)
        self.steps = {}         # span index -> solver steps
        self.op_id = 0          # index of the op being traced
        self._stack = []
        self._lost_total = 0.0
        self._restore = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, label, fn, probe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(label)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.lost.append(0.0)
            tracer._stack.append(idx)
            lost0 = tracer._lost_total
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.lost[idx] = tracer._lost_total - lost0
            if probe is not None:
                probe(idx, args, out)
                tracer._lost_total += time.perf_counter() - t1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _probe_mul(self, idx, args, out):
        e1, e2, cap = args[0], args[2], int(args[11])
        pairs = len(e1) * len(e2)
        if pairs == 0:
            self.kernel.append((idx, "le64", 0, 0, 0, False))
            return
        window = cap - (int(e1[0]) + int(e2[0]))
        kept = int(np.searchsorted(e2, cap - e1, side="left").sum()) if window > 0 else 0
        sparse = window > _DENSE_WINDOW
        window_bytes = 8 * window if 0 < window <= _DENSE_WINDOW else 0
        self.kernel.append((idx, _bucket(min(len(e1), len(e2))), pairs, kept,
                            window_bytes, sparse))

    def _probe_steps(self, idx, args, out):
        self.steps[idx] = out.steps

    def install(self, callers=()):
        """Wrap every traced function in every module that bound it.

        callers: further modules whose bindings are wrapped too, such as
        the benchmark's own module that calls the entry points.
        """
        mods = [importlib.import_module(m) for m in _MODULES] + list(callers)
        for module, attr in TRACED:
            label = _label(module, attr)
            probe = {"series_mul": self._probe_mul,
                     "solve_iso": self._probe_steps}.get(attr)
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(label, orig, probe))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(label, orig, probe)
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, orig))

    def uninstall(self):
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------------

    def arrays(self):
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start - np.asarray(self.lost)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur, dur - child, parent

    def layer_metrics(self, n_ops, literal_mismatches):
        """Per-op layer metrics over the spans of n_ops traced ops."""
        dur, self_s, parent = self.arrays()
        names = np.asarray(self.name)
        par_names = np.where(parent >= 0, names[np.maximum(parent, 0)], "")
        per = 1.0 / max(1, n_ops)

        def count(sel):
            return float(sel.sum())

        m = {}
        for label, stats in PER_OP:
            sel = names == label
            for stat in stats:
                if stat in ("calls", "calls_per_op"):
                    m[f"{label}.{stat}"] = (count(sel) * per, "1/op")
                else:  # self_s, or s for the whole span
                    t = self_s if stat == "self_s" else dur
                    m[f"{label}.{stat}"] = (float(t[sel].sum()) * per, "s/op")

        # kernels, by the shorter operand length
        kern = {b: [0, 0.0] for b, _ in SIZE_BUCKETS}
        pairs = kept = wbytes = sparse = 0
        for idx, b, p, k, w, sp in self.kernel:
            kern[b][0] += 1
            kern[b][1] += self_s[idx]
            pairs += p
            kept += k
            wbytes += w
            sparse += sp
        for b, _ in SIZE_BUCKETS:
            m[f"kernels.series_mul.{b}.calls"] = (kern[b][0] * per, "1/op")
            m[f"kernels.series_mul.{b}.self_s"] = (kern[b][1] * per, "s/op")
        m["kernels.series_mul.sparse_path.calls"] = (sparse * per, "1/op")
        m["kernels.series_mul.pairs"] = (pairs * per, "1/op")
        m["kernels.series_mul.pairs_kept_ratio"] = (kept / pairs if pairs else 0.0, "ratio")
        m["kernels.series_mul.window_bytes"] = (wbytes * per, "B/op")

        kernel = np.isin(names, ["kernels.series_mul", "kernels.series_add_merge"])
        m["cinf.c_inv.kernel_calls"] = (count(kernel & (par_names == "cinf.c_inv")) * per,
                                        "1/op")
        # each fixed-point step is one exp_eval after the initial residual
        roots = count(names == "latticemap.perturbed_root")
        evals = count((names == "anderson.exp_eval")
                      & (par_names == "latticemap.perturbed_root"))
        m["latticemap.fixed_point.steps"] = ((evals - roots) * per, "1/op")
        recov = count(names == "latticemap.recover_change_of_basis")
        caps = count((names == "latticemap._fp_nullspace")
                     & (par_names == "latticemap.recover_change_of_basis"))
        m["latticemap.recover_change_of_basis.caps_tried"] = (
            caps / recov if recov else 0.0, "1/call")
        steps = sum(self.steps.values())
        m["isomsolver.picard_steps"] = (steps * per, "1/op")
        m["isomsolver.det_literal_mismatch"] = (literal_mismatches * per, "1/op")
        return m

    def op_self_sums(self, n_ops):
        """Per op, the summed self time of its spans (= its root spans' time)."""
        _, self_s, _ = self.arrays()
        sums = np.zeros(n_ops)
        np.add.at(sums, np.asarray(self.op, dtype=np.int64), self_s)
        return sums.tolist()

    def dump(self, path):
        """Write every span as one JSON object per line, gzipped."""
        with gzip.open(path, "wt") as fh:
            for i, nm in enumerate(self.name):
                fh.write(json.dumps({"name": nm, "start": self.start[i], "end": self.end[i],
                                     "parent": self.parent[i], "op": self.op[i]}) + "\n")
