"""Spans around the calls into each momentforge layer, recorded from outside
the package by wrapping its public functions and a few boundary methods.

A span is (name, parent, start, end).  Spans stay in memory as flat integer
arrays while the traced ops run and are written out when the run ends.  A
layer's self time is the summed duration of its spans minus the time their
direct child spans cover.  Counters come from call arguments and return
values, at the same boundaries.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

LAYERS = ("ratlin", "geom", "hamclass", "moment", "equiv", "convex",
          "reduction", "cli")
# Public methods at layer boundaries.  Property getters stay unwrapped:
# they are called hundreds of thousands of times per op and a wrapper there
# costs more than the work it measures.
METHODS = (("moment", "GeneralizedMoment", "mu1_values"),
           ("moment", "GeneralizedMoment", "mu2_values"),
           ("convex", "MomentPolytope", "contains"),
           ("cli", "Report", "render"))
ROOT = "bench.op"


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


class Tracer:
    """Span recorder plus the wrappers it swaps into momentforge.  The
    wrappers are built once; install() and uninstall() only swap them in
    and out, so tracing can be switched on for single ops."""

    def __init__(self):
        self.names: list = []           # name id -> "layer.function"
        self._ids: dict = {}
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: list = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._patches = self._build_patches()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        idx = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark op under the root span."""
        return self.span(ROOT, fn, *args)

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _build_patches(self) -> list:
        """[(owner, attribute, original, wrapper)] for every public function
        of the eight layers, wherever a layer holds it (functions are also
        imported by name into other layers), and for METHODS."""
        mods = {layer: importlib.import_module(f"momentforge.{layer}")
                for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and attr != "main"):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(name, obj, HOOKS.get(name))
        patches = [(mod, attr, obj, wrapped[obj])
                   for mod in mods.values()
                   for attr, obj in vars(mod).items()
                   if inspect.isfunction(obj) and obj in wrapped]
        for layer, cls_name, attr in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = vars(cls)[attr]
            name = f"{layer}.{cls_name}.{attr}"
            patches.append((cls, attr, fn,
                            self._wrap(name, fn, HOOKS.get(name))))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_ids, dtype=np.int64),
                np.frombuffer(self.parents, dtype=np.int64),
                np.frombuffer(self.starts, dtype=np.int64),
                np.frombuffer(self.ends, dtype=np.int64))

    def summary(self) -> dict:
        """Per-name call counts and inclusive seconds, per-layer self
        seconds, and the inclusive seconds of direct children of the root
        op span (what the op spends in each top-level cli call)."""
        nid, par, start, end = self.arrays()
        dur = (end - start).astype(np.float64) / 1e9
        child = np.zeros_like(dur)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        incl = np.bincount(nid, weights=dur, minlength=len(self.names))
        self_by_name = np.bincount(nid, weights=self_time,
                                   minlength=len(self.names))
        is_root = nid == self._ids.get(ROOT, -1)
        top = np.isin(par, np.flatnonzero(is_root))
        top_incl = np.bincount(nid[top], weights=dur[top],
                               minlength=len(self.names))
        layer_self = Counter()
        for i, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += float(self_by_name[i])
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "incl_s": {n: float(incl[i]) for i, n in enumerate(self.names)},
            "top_incl_s": {n: float(top_incl[i])
                           for i, n in enumerate(self.names)},
            "self_s": dict(layer_self),
            "op_s": float(dur[is_root].sum()),
        }

    def write(self, path: Path):
        """Spans as tab-separated text: index, parent, name, start, end."""
        nid, par, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(nid)):
                fh.write(f"{i}\t{par[i]}\t{self.names[nid[i]]}\t"
                         f"{start[i]}\t{end[i]}\n")


# ---------------------------------------------------------------------------
# counters read from call arguments and return values

def _pfaffian(t, fn, args, kwargs, result):
    t.maxima["ratlin.pfaffian_max_dim"] = max(
        t.maxima["ratlin.pfaffian_max_dim"], len(args[0]))


def _sample_points(t, fn, args, kwargs, result):
    t.counts["geom.points_sampled"] += len(result)


def _mu_values(t, fn, args, kwargs, result):
    t.counts["moment.points_evaluated"] += len(result)


def _equivariance(t, fn, args, kwargs, result):
    t.counts["equiv.samples_checked"] += result.n_samples


def _natural(t, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    if bound["moment"].r:
        t.counts["equiv.samples_checked"] += bound["n_samples"]


def _integralized(t, fn, args, kwargs, result):
    t.maxima["hamclass.k_max"] = max(t.maxima["hamclass.k_max"], result.k)
    t.maxima["hamclass.q_max_denominator"] = max(
        [t.maxima["hamclass.q_max_denominator"]]
        + [Fraction(x).denominator for x in result.q])


def _coverage(t, fn, args, kwargs, result):
    t.counts["convex.counted_cells"] += result.n_counted_cells


def _extremum(t, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    t.counts["convex.extremum_grid_points"] += (
        bound["grid"] ** bound["manifold"].torus_dim * bound["moment"].r)


def _emitted(t, fn, args, kwargs, result):
    t.counts["cli.report_bytes"] += sum(p.stat().st_size for p in result)


HOOKS = {
    "ratlin.pfaffian": _pfaffian,
    "geom.sample_points": _sample_points,
    "moment.GeneralizedMoment.mu1_values": _mu_values,
    "moment.GeneralizedMoment.mu2_values": _mu_values,
    "equiv.equivariance_check": _equivariance,
    "equiv.natural_equivariance_test": _natural,
    "hamclass.integralize_with_retry": _integralized,
    "convex.product_coverage_check": _coverage,
    "convex.no_local_extremum_check": _extremum,
    "cli.emit_report": _emitted,
}


def layer_metrics(tracer: Tracer, n_ops: int) -> tuple:
    """The per-layer metrics of the traced ops, and each layer's share of
    their self time.  Times and counts are per op, maxima are over the
    ops, and `<layer>.src_lines` is the length of the layer's module."""
    s = tracer.summary()
    calls, incl, top = s["calls"], s["incl_s"], s["top_incl_s"]

    def per_op(x):
        return x / n_ops

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return incl.get(name, 0.0)

    mu_calls = (c("moment.GeneralizedMoment.mu1_values")
                + c("moment.GeneralizedMoment.mu2_values"))
    out = {f"{layer}.self_s": per_op(s["self_s"].get(layer, 0.0))
           for layer in LAYERS}
    for layer in LAYERS:
        source = Path(importlib.import_module(f"momentforge.{layer}").__file__)
        out[f"{layer}.src_lines"] = len(source.read_text().splitlines())
    out.update({
        "ratlin.pfaffian_s": per_op(t("ratlin.pfaffian")),
        "ratlin.pfaffian_calls": per_op(c("ratlin.pfaffian")),
        "ratlin.pfaffian_max_dim": tracer.maxima["ratlin.pfaffian_max_dim"],
        "geom.apply_torus_element_calls":
            per_op(c("geom.apply_torus_element")),
        "geom.apply_torus_element_s": per_op(t("geom.apply_torus_element")),
        "geom.points_sampled": per_op(tracer.counts["geom.points_sampled"]),
        "moment.eval_calls": per_op(mu_calls),
        "moment.points_evaluated":
            per_op(tracer.counts["moment.points_evaluated"]),
        "moment.points_per_eval":
            tracer.counts["moment.points_evaluated"] / max(mu_calls, 1),
        "equiv.equivariance_check_s": per_op(t("equiv.equivariance_check")),
        "equiv.natural_equivariance_s":
            per_op(t("equiv.natural_equivariance_test")),
        "equiv.samples_checked":
            per_op(tracer.counts["equiv.samples_checked"]),
        "reduction.induced_moment_s": per_op(t("reduction.induced_moment")),
        "reduction.heredity_s": per_op(t("reduction.heredity_check")),
        "hamclass.classify_calls": per_op(c("hamclass.classify_action")),
        "hamclass.integralize_attempts":
            per_op(c("hamclass.integralize_form")),
        "hamclass.integralize_retries":
            per_op(c("hamclass.integralize_form")
                   - c("hamclass.integralize_with_retry")),
        "hamclass.k_max": tracer.maxima["hamclass.k_max"],
        "hamclass.q_max_denominator":
            tracer.maxima["hamclass.q_max_denominator"],
        "convex.coverage_s": per_op(t("convex.product_coverage_check")),
        "convex.hull_s": per_op(t("convex.convex_hull")),
        "convex.contains_calls": per_op(c("convex.MomentPolytope.contains")),
        "convex.counted_cells": per_op(tracer.counts["convex.counted_cells"]),
        "convex.extremum_s": per_op(t("convex.no_local_extremum_check")),
        "convex.extremum_grid_points":
            per_op(tracer.counts["convex.extremum_grid_points"]),
        "convex.cycle_lift_s": per_op(t("convex.cycle_lift")),
        "cli.parse_s": per_op(top.get("cli.load_scenario", 0.0)),
        "cli.run_s": per_op(top.get("cli.run_scenario", 0.0)),
        "cli.emit_s": per_op(top.get("cli.Report.render", 0.0)
                             + top.get("cli.emit_report", 0.0)),
        "cli.report_bytes": per_op(tracer.counts["cli.report_bytes"]),
    })
    shares = {layer: s["self_s"].get(layer, 0.0) / s["op_s"]
              for layer in LAYERS + ("bench",)} if s["op_s"] else {}
    return out, shares
