"""Outside-in layer trace for the jetcalc benchmark.

The tracer wraps public functions of the jetcalc modules from here, without
touching the package: methods are replaced on their class, functions in
every jetcalc module that holds them under their own name (a module that
did `from .fields import levi_civita` looks the name up in its own
namespace, so that binding is replaced too).  Each call records a span
(name, start, end, parent span, run id) in memory; `write_jsonl` writes the
spans out when the run ends.

Counts that are not times are derived from call arguments and result
shapes and are labelled as computed (`madds`, `pairs`, `max_out_mb`,
`map_mfloats`): they describe the work the arguments ask for, not a
measurement inside the kernel.

The trace assumes one thread: the parent of a span is the innermost open
span.  The benchmark runs jetcalc with `JETCALC_THREADS=1`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import sys
import time

from workloads import CHECK_SUITES

#: per-layer metrics, in the order they are printed; the unit and better
#: direction are repeated in BENCHMARK.json
LAYER_METRICS = [
    ("taylor.contract.calls", "count"),
    ("taylor.contract.pairs", "count"),
    ("taylor.contract.self_s", "s"),
    ("taylor.contract.madds", "count"),
    ("taylor.contract.max_out_mb", "MB"),
    ("taylor.mul.calls", "count"),
    ("taylor.mul.self_s", "s"),
    ("taylor.derive.calls", "count"),
    ("taylor.derive.self_s", "s"),
    ("taylor.expand.calls", "count"),
    ("taylor.expand.self_s", "s"),
    ("tensor_core.norm.calls", "count"),
    ("tensor_core.norm.self_s", "s"),
    ("tensor_core.symmetrize.calls", "count"),
    ("tensor_core.symmetrize.self_s", "s"),
    ("fields.cov.calls", "count"),
    ("fields.cov.self_s", "s"),
    ("fields.levi_civita.calls", "count"),
    ("fields.levi_civita.self_s", "s"),
    ("fields.matrix_inverse.self_s", "s"),
    ("fields.product.self_s", "s"),
    ("fields.substitute.self_s", "s"),
    ("fields.apply_map.self_s", "s"),
    ("jets.decompose.calls", "count"),
    ("jets.decompose.self_s", "s"),
    ("total_space.setup.calls", "count"),
    ("total_space.setup.self_s", "s"),
    ("total_space.b_tensor.calls", "count"),
    ("total_space.b_tensor.self_s", "s"),
    ("total_space.lift.calls", "count"),
    ("total_space.lift.self_s", "s"),
    ("recursions.build.calls", "count"),
    ("recursions.build.self_s", "s"),
    ("recursions.verify.calls", "count"),
    ("recursions.verify.self_s", "s"),
    ("recursions.growth.self_s", "s"),
    ("recursions.map_mfloats", "Mfloat"),
    ("recursions.max_map_mfloats", "Mfloat"),
    ("seminorms.profile.calls", "count"),
    ("seminorms.profile.self_s", "s"),
    ("seminorms.fit.self_s", "s"),
    ("scenarios.geometry.calls", "count"),
    ("scenarios.geometry.distinct", "count"),
    ("scenarios.geometry.self_s", "s"),
    ("scenarios.geometry.useful_ratio", "ratio"),
] + [(f"suites.{s}.s", "s") for s in CHECK_SUITES] + [
    ("reporting.build.s", "s"),
    ("reporting.bytes", "bytes"),
    ("trace.overhead_s", "s"),
]

#: metrics that must repeat exactly between two traced runs of one seed
COUNT_UNITS = ("count", "Mfloat", "MB", "bytes", "ratio")

#: metrics derived from call arguments and result shapes, not measured
COMPUTED = ("taylor.contract.pairs", "taylor.contract.madds",
            "taylor.contract.max_out_mb", "recursions.map_mfloats",
            "recursions.max_map_mfloats")


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover.

    `spans` is a list of (id, name, start, end, parent) tuples; the result
    maps span id to self seconds.  Child intervals are merged before they
    are subtracted, so overlapping children are not counted twice.
    """
    children = {}
    for sid, _name, t0, t1, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _name, t0, t1, _parent in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, t0), min(c1, t1)
            if c1 <= c0:
                continue
            if cur_hi is None or c0 > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c0, c1
            else:
                cur_hi = max(cur_hi, c1)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (t1 - t0) - covered
    return out


class Tracer:
    """Span recorder plus the computed counters of one traced round."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, run_id)
        self.stack = []          # ids of the open spans, innermost last
        self.open_names = []     # their names, in the same order
        self.run_id = None
        self.paused = False      # set while the benchmark checks outputs
        self.counters = {}
        self.geometry_keys = set()
        self._patches = []       # (owner, attribute, original)

    # --- span recording ------------------------------------------------------

    def wrap(self, fn, name, after=None, count_if=None):
        """A traced stand-in for `fn`.

        `after(tracer, args, kwargs, result)` derives computed counters from
        the call; `count_if(tracer, args, kwargs)` can veto recording (the
        call still runs, untraced).
        """
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if tracer.paused or (count_if is not None
                                 and not count_if(tracer, args, kwargs)):
                return fn(*args, **kwargs)
            stack, names = tracer.stack, tracer.open_names
            parent = stack[-1] if stack else None
            sid = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(sid)
            names.append(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                names.pop()
                tracer.spans[sid] = (sid, name, t0, t1, parent, tracer.run_id)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def bump(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def open_parent_name(self):
        return self.open_names[-1] if self.open_names else None

    # --- patching ------------------------------------------------------------

    def patch_method(self, cls, attr, name, **kw):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **kw))

    def patch_function(self, original, name, **kw):
        """Replace `original` in every loaded jetcalc module that binds it."""
        traced = self.wrap(original, name, **kw)
        hits = 0
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "jetcalc"
                                   or modname.startswith("jetcalc.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, traced)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no jetcalc module binds {name}")
        return traced

    def patch_mapping(self, mapping, key, name, **kw):
        original = mapping[key]
        self._patches.append((mapping, key, original))
        mapping[key] = self.wrap(original, name, **kw)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    # --- output --------------------------------------------------------------

    def round_spans(self, run_id):
        return [s[:5] for s in self.spans if s is not None and s[5] == run_id]

    def write_jsonl(self, path):
        selfs = self_times([s[:5] for s in self.spans if s is not None])
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, run_id in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "run": run_id,
                    "self_s": selfs[sid]}) + "\n")


# --------------------------------------------------------------------------
# computed counters
# --------------------------------------------------------------------------

def _contract_counts(tracer, args, kwargs, out):
    ctx, a, da, b, db, axes_a = args[:6]
    dout = args[7] if len(args) > 7 else kwargs.get("dout")
    dout = min(da, db) if dout is None else min(dout, min(da, db))
    pairs = len(ctx.pair_arrays(da, db, dout)[0])
    contracted = math.prod(a.shape[x + 1] for x in axes_a)
    tracer.bump("taylor.contract.pairs", pairs)
    tracer.bump("taylor.contract.madds",
                pairs * contracted * math.prod(out.shape[1:]))
    tracer.peak("taylor.contract.max_out_mb", out.size * 8 / 2**20)


def _table_counts(tracer, args, kwargs, table):
    sizes = [A.data.size for A in table.entries.values()]
    tracer.bump("recursions.map_mfloats", sum(sizes) / 1e6)
    tracer.peak("recursions.max_map_mfloats", max(sizes) / 1e6)


def _report_bytes(tracer, args, kwargs, path):
    tracer.bump("reporting.bytes", os.path.getsize(path))


def _outermost_geometry(tracer, args, kwargs):
    return tracer.open_parent_name() != "scenarios.geometry"


def _geometry_key(method):
    def after(tracer, args, kwargs, result):
        scn = args[0]
        names = {"chart_at": ("point", "cap"), "bundle_at": ("point", "cap"),
                 "alt_bundle_at": ("point", "cap"), "map_at": ("point", "cap"),
                 "total_at": ("point", "u", "cap")}[method]
        given = dict(zip(names, args[1:]))
        given.update(kwargs)
        point = given.get("point")
        point = scn.base_points[0] if point is None else point
        cap = given.get("cap")
        cap = scn.degree if cap is None else cap
        u = given.get("u")
        if method == "total_at" and u is None:
            u = scn.fibre_points[0] if scn.fibre_points else [0.0] * scn.k
        key = (scn.name, method, tuple(float(v) for v in point),
               None if u is None else tuple(float(v) for v in u), int(cap))
        tracer.geometry_keys.add(key)
    return after


def install(tracer):
    """Wrap every traced entry point of the jetcalc layers."""
    from jetcalc import (cli, fields, jets, recursions, reporting, scenarios,
                         seminorms, taylor, tensor_core, total_space)

    tracer.patch_method(taylor.TaylorContext, "contract", "taylor.contract",
                        after=_contract_counts)
    tracer.patch_method(taylor.TaylorContext, "mul", "taylor.mul")
    tracer.patch_method(taylor.TaylorContext, "derive", "taylor.derive")
    tracer.patch_function(taylor.expand, "taylor.expand")

    tracer.patch_function(tensor_core.frobenius_norm, "tensor_core.norm")
    tracer.patch_function(tensor_core.sym_axes_data, "tensor_core.symmetrize")

    tracer.patch_method(fields.Geometry, "cov", "fields.cov")
    tracer.patch_function(fields.levi_civita, "fields.levi_civita")
    tracer.patch_function(fields.matrix_inverse_field, "fields.matrix_inverse")
    for attr in ("product", "substitute", "apply_map"):
        tracer.patch_method(fields.FieldTensor, attr, f"fields.{attr}")

    tracer.patch_function(jets.decompose_jet, "jets.decompose")

    ts_cls = total_space.TotalSpaceGeometry
    tracer.patch_method(ts_cls, "__init__", "total_space.setup")
    tracer.patch_method(ts_cls, "b_tensor", "total_space.b_tensor")
    tracer.patch_method(ts_cls, "lift_mixed", "total_space.lift")
    tracer.patch_method(ts_cls, "lift_function", "total_space.lift")

    tracer.patch_function(recursions.build_coefficients, "recursions.build",
                          after=_table_counts)
    tracer.patch_function(recursions.verify_expansion, "recursions.verify")
    tracer.patch_function(recursions.verify_inverse_pair, "recursions.verify")
    tracer.patch_function(recursions.growth_profile, "recursions.growth")

    tracer.patch_function(seminorms.jet_norm_profile, "seminorms.profile")
    tracer.patch_function(seminorms.growth_fit, "seminorms.fit")
    tracer.patch_function(seminorms.fit_envelope, "seminorms.fit")

    for method in ("chart_at", "bundle_at", "alt_bundle_at", "total_at",
                   "map_at"):
        tracer.patch_method(scenarios.Scenario, method, "scenarios.geometry",
                            after=_geometry_key(method),
                            count_if=_outermost_geometry)

    for suite in list(cli.SUITES):
        tracer.patch_mapping(cli.SUITES, suite, f"suites.{suite}")

    tracer.patch_function(reporting.build_report, "reporting.build")
    tracer.patch_function(reporting.emit_report, "reporting.emit",
                          after=_report_bytes)


# --------------------------------------------------------------------------
# per-round aggregation
# --------------------------------------------------------------------------

def round_metrics(tracer, run_id):
    """Per-layer metrics of one traced round (all metrics, zeros included)."""
    spans = tracer.round_spans(run_id)
    selfs = self_times(spans)
    calls, self_s, incl = {}, {}, {}
    for sid, name, t0, t1, _parent in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[sid]
        incl[name] = incl.get(name, 0.0) + (t1 - t0)
    out = {}
    for metric, _unit in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if metric == "trace.overhead_s":
            continue
        if field == "calls":
            out[metric] = calls.get(layer, 0)
        elif field == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif field == "s":
            out[metric] = incl.get(layer, 0.0)
        elif metric == "scenarios.geometry.distinct":
            out[metric] = len(tracer.geometry_keys)
        elif metric == "scenarios.geometry.useful_ratio":
            n = calls.get("scenarios.geometry", 0)
            out[metric] = len(tracer.geometry_keys) / n if n else 0.0
        else:
            out[metric] = tracer.counters.get(metric, 0)
    return out


def reset_round(tracer, run_id):
    tracer.run_id = run_id
    tracer.counters = {}
    tracer.geometry_keys = set()


def summarize(per_round, overhead_s):
    """Counts from the first traced round, times as medians over rounds."""
    out = {}
    for metric, unit in LAYER_METRICS:
        if metric == "trace.overhead_s":
            out[metric] = overhead_s
        elif unit in COUNT_UNITS:
            out[metric] = per_round[0][metric]
        else:
            out[metric] = statistics.median(r[metric] for r in per_round)
    return out
