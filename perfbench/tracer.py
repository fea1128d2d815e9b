"""Span tracing of ndscope's public functions, installed from outside.

The tracer replaces each target function with a wrapper in every
``ndscope`` module namespace that binds it by name (``sim``,
``identifiability`` and ``cli`` import ``check_nds_regular``, ``cli``
imports ``tau_sweep``, the package root re-exports most of them), and
patches the target methods on their classes.  Each call records a span
(function, start, end, parent span, op id) in memory; ``restore`` puts
every original back.  Span names are ``module.function`` or
``module.Class.method``.

Targets are the functions at layer boundaries.  Scalar arithmetic
(``Poly``/``RatFun`` operators, ``poly_gcd``) and the copy/shape helpers
of ``ratmat`` (``zeros``, ``add``, ``freeze`` ...) are not wrapped: time
spent in them counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time

LAYERS = ("polymat", "ratmat", "model", "identifiability", "reconstruction",
          "sim", "cli", "svgplot")

TARGETS = {
    "polymat": ("smith_form", "smith_mcmillan", "right_coprime_mfd",
                "proper_split", "normal_rank", "rank_at_point",
                "unimodular_inverse", "is_coprime_right",
                "RatFunMat.det", "RatFunMat.inverse", "PolyMat.det"),
    "ratmat": ("rref", "rank", "null_space", "left_null_space", "det", "inv",
               "matmul", "solve"),
    "model": ("parse_model", "parse_constraints", "check_subsystem_regular",
              "subsystem_tfms", "assemble_block_tfms", "check_nds_regular",
              "check_well_posed", "nds_tfm", "tfm_equal", "transpose_nds"),
    "identifiability": ("classify_case", "build_xy_pencil",
                        "build_xy_pencil_hat", "stacked_u2",
                        "check_identifiable_at", "undiff_region",
                        "verify_region_by_tfm",
                        "check_identifiable_known_entries",
                        "check_identifiable_parameterized",
                        "check_identifiable_augmented",
                        "StackedCoeffMatrix.is_fcr",
                        "StackedCoeffMatrix.null_basis",
                        "UndiffRegion.contains", "UndiffRegion.member"),
    "reconstruction": ("lump", "lump_descriptor", "check_reconstructible",
                       "check_consistency", "lumped_tfm", "recover_scm"),
    "sim": ("eig", "svd", "expm", "stm", "stability_margins", "is_stable",
            "choose_sampling", "prbs", "zoh_discretize", "simulate",
            "relative_error", "distance_time", "exact_tfm", "distance_freq",
            "hinf_norm", "distance_scm", "tau_sweep"),
    "cli": ("main", "cmd_sweep", "atomic_write", "write_csv", "load_model",
            "load_scm"),
    "svgplot": ("line_plot",),
}


def _prbs_samples(args, kwargs, result):
    return int(result.size)


def _simulate_samples(args, kwargs, result):
    return int(len(result.times))


def _write_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8"))


def _sweep_rows(args, kwargs, result):
    return len(result)


def _sweep_skipped(args, kwargs, result):
    return sum(1 for r in result if r.skipped)


# name -> [(counter name, f(args, kwargs, result) -> number)]
COUNTERS = {
    "sim.prbs": [("sim.prbs.samples", _prbs_samples)],
    "sim.simulate": [("sim.simulate.samples", _simulate_samples)],
    "cli.atomic_write": [("cli.atomic_write.bytes", _write_bytes)],
    "sim.tau_sweep": [("sim.sweep.rows", _sweep_rows),
                      ("sim.sweep.rows_skipped", _sweep_skipped)],
}


class Tracer:
    """Records spans of wrapped ndscope functions while installed."""

    def __init__(self):
        self.names = []            # function id -> span name
        self.spans = []            # (fid, t0, t1, parent, op, outermost)
        self.counters = {}
        self.op = -1
        self._stack = []
        self._active = []          # per function id: calls in progress
        self._patches = []         # (owner, attribute, original)

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        spans, stack, active = self.spans, self._stack, self._active
        counters = COUNTERS.get(name, ())
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            outer = active[fid] == 0
            active[fid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[fid] -= 1
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self.op, outer)
            for cname, f in counters:
                self.counters[cname] = self.counters.get(cname, 0) + \
                    f(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ndscope" or key.startswith("ndscope.")]
        for layer, names in TARGETS.items():
            mod = importlib.import_module("ndscope." + layer)
            for target in names:
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth,
                            self._wrap(f"{layer}.{target}", original))
                    continue
                original = getattr(mod, target)
                wrapper = self._wrap(f"{layer}.{target}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self, path):
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, (fid, t0, t1, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": self.names[fid],
                                     "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")

    # ------------------------------------------------------ aggregation

    def summary(self):
        """Per-function calls, total_s (outermost calls only) and self_s;
        per-layer self_s; spans per op and names by span."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        self_t = [0.0] * n
        child = [0.0] * len(self.spans)
        for fid, t0, t1, parent, _, outer in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, (fid, t0, t1, parent, _, outer) in enumerate(self.spans):
            calls[fid] += 1
            if outer:
                total[fid] += t1 - t0
            self_t[fid] += (t1 - t0) - child[idx]
        funcs = {self.names[i]: {"calls": calls[i], "total_s": total[i],
                                 "self_s": self_t[i]} for i in range(n)}
        layers = {layer: 0.0 for layer in LAYERS}
        for name, f in funcs.items():
            layers[name.split(".")[0]] += f["self_s"]
        return funcs, layers

    def share_within(self, outer_name, inner_name):
        """Share of the outermost ``outer_name`` time spent in outermost
        ``inner_name`` calls made underneath it."""
        fid_outer = self.names.index(outer_name)
        fid_inner = self.names.index(inner_name)
        spans = self.spans
        inside = {}
        base = 0.0
        for idx, (fid, t0, t1, parent, _, outer) in enumerate(spans):
            if fid == fid_outer and outer:
                base += t1 - t0
            p = parent
            anc = False
            while p >= 0:
                if spans[p][0] == fid_outer:
                    anc = True
                    break
                p = spans[p][3]
            inside[idx] = anc
        part = sum(t1 - t0 for idx, (fid, t0, t1, _, _, outer) in
                   enumerate(spans) if fid == fid_inner and outer
                   and inside[idx])
        return part / base if base > 0 else 0.0

    def op_totals(self, name):
        """Outermost duration of ``name`` summed per op id."""
        fid = self.names.index(name)
        out = {}
        for f, t0, t1, _, op, outer in self.spans:
            if f == fid and outer:
                out[op] = out.get(op, 0.0) + (t1 - t0)
        return out
