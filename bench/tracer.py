"""Call tracing for the benchmark's traced run, applied from outside ``src/``.

:class:`Tracer` replaces every public function of the ``geoverify``
modules, at every name it is bound to, with a wrapper that records a
span ``(name, start, end, parent)``.  Names that one module imported from
another (``soliton.geometry_at``, ``checks.frame_connection``,
``curvature.metric_jets``) are wrapped too, since the importing module
calls through its own binding.  Public methods of the package's classes
(``AnalyticVectorField.frame_component_jets`` and the like) are wrapped
on the class.

The ``jets`` module is not spanned: a span per ``Jet2`` operation would
cost more than the operation.  Its work is counted instead (``Jet2``
objects built, ``Jet2`` multiplications) and its time falls into the self
time of whichever module ran the jet arithmetic.

Spans stay in memory, in flat arrays, until :meth:`Tracer.save` writes
them out.  A span's self time is its duration minus the durations of its
direct children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

PACKAGE = "geoverify"
UNSPANNED = ("jets",)
# the three chart functions whose calls make up one geometry build
GEOMETRY_JETS = ("chart.metric_jets", "chart.inverse_metric_jets", "chart.frame_jets")
FIELD_JETS = (
    "chart.AnalyticVectorField.component_jets",
    "chart.AnalyticVectorField.frame_component_jets",
    "chart.AnalyticVectorField.coordinate_component_jets",
)


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.jet2_created = 0
        self.mul_calls = 0
        self.requests: list[dict] = []  # span range and jet counts per traced request
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _intern(self, label: str) -> int:
        nid = self._label_ids.get(label)
        if nid is None:
            nid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return nid

    def _wrap(self, fn, label: str, label_by_first_arg: bool = False):
        nid = self._intern(label)
        intern, names, parents, starts, ends, stack = (
            self._intern,
            self.name,
            self.parent,
            self.start,
            self.end,
            self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(intern(f"{label}:{args[0]}") if label_by_first_arg and args else nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every public function and method of the package, at every binding."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers: dict[object, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    layer = _layer_of(obj)
                    if layer is None or layer in UNSPANNED:
                        continue
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}", obj.__name__ == "run_suite")
                    self._patch(mod, attr, wrappers[obj])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    layer = _layer_of(obj)
                    if layer in UNSPANNED:
                        continue
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(fn, f"{layer}.{obj.__name__}.{meth}"))

        from geoverify.jets import Jet2

        init, mul = Jet2.__init__, Jet2.__mul__

        def counted_init(jet, *args):
            self.jet2_created += 1
            init(jet, *args)

        def counted_mul(jet, other):
            self.mul_calls += 1
            return mul(jet, other)

        self._patch(Jet2, "__init__", counted_init)
        self._patch(Jet2, "__mul__", counted_mul)
        self._patch(Jet2, "__rmul__", counted_mul)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_request(self, label: str):
        """Open the root span of one benchmark request."""
        self.requests.append(
            {"first_span": len(self.name), "jet2_created": self.jet2_created, "mul_calls": self.mul_calls}
        )
        idx = len(self.name)
        self.name.append(self._intern(f"bench.{label}"))
        self.parent.append(-1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)

    def end_request(self):
        self.end[self._stack.pop()] = time.perf_counter()
        req = self.requests[-1]
        req["last_span"] = len(self.name)
        req["jet2_created"] = self.jet2_created - req["jet2_created"]
        req["mul_calls"] = self.mul_calls - req["mul_calls"]

    def save(self, path, manifest: dict):
        """Write the spans (times relative to the first span, in seconds) and the manifest."""
        start = np.frombuffer(self.start, dtype=np.float64)
        t0 = float(start[0]) if len(start) else 0.0
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=start - t0,
            end=np.frombuffer(self.end, dtype=np.float64) - t0,
            manifest=np.array(json.dumps(manifest)),
        )

    # -- analysis -------------------------------------------------------

    def layer_metrics(self, checks_evals: int, evals_per_request: int, check_names) -> dict[str, tuple[float, str]]:
        """Per-module metrics as name -> (value, unit).

        Counts come from the first traced request alone, so they repeat
        exactly for a given seed.  Times are totals over every traced
        request divided by the number of requests (``_ms``) or by the
        number of operations they time (``_us``).
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        # work on label and layer ids: one string per span would not fit a long run
        layer_names = sorted({lab.split(".", 1)[0] for lab in self.labels} | {""})
        label_layer = np.array([layer_names.index(lab.split(".", 1)[0]) for lab in self.labels])
        layer = label_layer[name]
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], layer_names.index(""))
        first = slice(self.requests[0]["first_span"], self.requests[0]["last_span"])
        n_req = len(self.requests)

        def ids(*labels):
            return [self._label_ids[lab] for lab in labels if lab in self._label_ids]

        def is_label(*labels, of=name):
            return np.isin(of, ids(*labels))

        def in_layer(mod, of=layer):
            return of == (layer_names.index(mod) if mod in layer_names else -1)

        is_geometry = is_label("curvature.geometry_at")
        geometry_jets = is_label(*GEOMETRY_JETS) & is_label("curvature.geometry_at", of=parent_name)
        is_build = np.zeros(len(dur), dtype=bool)
        is_build[parent[geometry_jets]] = True
        builds_total = int(is_build.sum())
        field_entry = is_label(*FIELD_JETS) & ~in_layer("chart", of=parent_layer)

        def per_request_ms(mod):
            return float(self_time[in_layer(mod)].sum()) * 1e3 / n_req

        def per_op_us(total, count):
            return float(total) * 1e6 / count if count else 0.0

        def calls_into(mod):
            return int(np.count_nonzero((in_layer(mod) & ~in_layer(mod, of=parent_layer))[first]))

        calls = int(np.count_nonzero(is_geometry[first]))
        builds = int(np.count_nonzero(is_build[first]))
        jet2 = self.requests[0]["jet2_created"]
        out = {
            "curvature.geometry_calls": (calls, "count"),
            "curvature.geometry_builds": (builds, "count"),
            "curvature.geometry_hit_ratio": (1.0 - builds / calls if calls else 0.0, "ratio"),
            "curvature.build_us": (per_op_us(self_time[is_build].sum(), builds_total), "us"),
            "curvature.self_ms": (per_request_ms("curvature"), "ms"),
            "chart.geometry_jets_us": (per_op_us(dur[geometry_jets].sum(), builds_total), "us"),
            "chart.field_jets_calls": (int(np.count_nonzero(field_entry[first])), "count"),
            "chart.field_jets_us": (per_op_us(dur[field_entry].sum(), int(field_entry.sum())), "us"),
            "chart.coframe_jets_calls": (int(np.count_nonzero(is_label("chart.coframe_jets")[first])), "count"),
            "chart.self_ms": (per_request_ms("chart"), "ms"),
            "jets.jet2_created": (jet2, "count"),
            "jets.mul_calls": (self.requests[0]["mul_calls"], "count"),
            "jets.jet2_per_eval": (jet2 / evals_per_request, "count"),
            "soliton.calls": (calls_into("soliton"), "count"),
            "soliton.self_ms": (per_request_ms("soliton"), "ms"),
            "harmonic.calls": (calls_into("harmonic"), "count"),
            "harmonic.self_ms": (per_request_ms("harmonic"), "ms"),
            "checks.self_ms": (per_request_ms("checks"), "ms"),
            "checks.evals": (checks_evals, "count"),
            "cli.self_ms": (per_request_ms("cli"), "ms"),
        }
        for check in check_names:
            mask = is_label(f"checks.run_suite:{check}")
            out[f"checks.ms.{check}"] = (float(dur[mask].sum()) * 1e3 / n_req, "ms")
        return out


def _layer_of(obj) -> str | None:
    mod = getattr(obj, "__module__", "") or ""
    if not mod.startswith(PACKAGE + "."):
        return None
    return mod.split(".", 1)[1]
