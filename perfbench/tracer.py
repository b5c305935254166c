"""Opt-in tracing of modelspace's layers from outside the package.

``install()`` replaces public functions (and a few methods and Qhull's
``ConvexHull``) with timing wrappers, by patching module and class
attributes wherever a modelspace module looks the original up.  Nothing
under ``src/`` changes.  Spans (name, start, end, parent, self time) are
kept in memory; hot calls (form and metric evaluations, vector fields,
Richardson tables) keep counters instead of spans.  ``per_layer`` turns a
trace into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("forms", "projective", "duality", "transition", "connections",
          "pogorelov", "surfaces", "numerics", "acceptance", "cli")
MODULES = ("forms", "projective", "duality", "transition", "connections",
           "pogorelov", "surfaces", "_numerics", "acceptance", "cli")
HOT_MODULES = ("forms", "_numerics")
HOT_METHODS = {("forms", "BilinearForm", "__call__"), ("forms", "BilinearForm", "quad"),
               ("pogorelov", "ChartMetric", "metric"),
               ("connections", "VectorField", "__call__")}
SPAN_METHODS = {("projective", "ModelSpace", "random_points"),
                ("projective", "ModelSpace", "sample_points"),
                ("duality", "EuclideanBody", "dual"), ("duality", "MinkowskiBody", "dual")}


# count contributed by one call: (args, kwargs, result, parent name) -> int
COUNTS = {
    "projective.projective_distance_batch": lambda a, k, r, p: len(r[0]),
    "duality.ConvexHull": lambda a, k, r, p: len(r.equations) if p == "duality.cone_facet_normals" else 0,
    "duality.cone_facet_normals": lambda a, k, r, p: len(r),
    "duality.dual_support": lambda a, k, r, p: len(r.dirs) ** 2,
    "surfaces.embedding_data": lambda a, k, r, p: r.I.shape[0] * r.I.shape[1],
    "surfaces.embedding_data_co": lambda a, k, r, p: r.I.shape[0] * r.I.shape[1],
}


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "id", "parent")

    def __init__(self, name, layer, ident, parent):
        self.name, self.layer, self.child, self.id, self.parent = name, layer, 0.0, ident, parent
        self.start = time.perf_counter()


class Tracer:
    """Spans and hot-call counters of one traced process."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent_id, self_s, count)
        # hot name -> [outermost-of-name calls, their seconds, self seconds,
        #              outermost-of-layer calls]
        self.hot = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self._stack = []
        self._span_stack = []
        self._active = defaultdict(int)
        self._next = 0
        self._undo = []
        self.paused = False

    # -- recording -------------------------------------------------------

    def _enter(self, name, layer, parent=None):
        self._next += 1
        self._active[name] += 1
        self._active[layer] += 1
        frame = _Frame(name, layer, self._next, parent)
        self._stack.append(frame)
        return frame

    def _leave(self, frame):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        self._active[frame.name] -= 1
        self._active[frame.layer] -= 1
        dur = end - frame.start
        if stack:
            stack[-1].child += dur
        return end, dur

    def _open(self, name):
        parent = self._span_stack[-1] if self._span_stack else None
        frame = self._enter(name, name.split(".")[0], parent)
        self._span_stack.append(frame)
        return frame

    def _close(self, frame, count=0):
        self._span_stack.pop()
        end, dur = self._leave(frame)
        parent = frame.parent
        self.spans.append((frame.id, frame.name, frame.start, end,
                           parent.id if parent else None, dur - frame.child, count))

    def span(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = self._open(name)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if count:
                    n = count(args, kwargs, result, frame.parent.name if frame.parent else None)
                return result
            finally:
                self._close(frame, n)
        return wrapper

    def hot_call(self, name, fn):
        layer = name.split(".")[0]
        rec = self.hot[name]
        active = self._active

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            outer = active[name] == 0
            outer_layer = active[layer] == 0
            frame = self._enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                _, dur = self._leave(frame)
                rec[2] += dur - frame.child
                if outer:
                    rec[0] += 1
                    rec[1] += dur
                if outer_layer:
                    rec[3] += 1
        return wrapper

    @contextlib.contextmanager
    def region(self, name):
        """A span around the benchmark's own call into a layer."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    @contextlib.contextmanager
    def pause(self):
        """Record nothing inside: the benchmark's own checks call modelspace too."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap modelspace's public functions where modules look them up."""
        mods = {m: importlib.import_module(f"modelspace.{m}") for m in MODULES}
        replace = {}
        for m, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{m}.{attr}"
                if m in HOT_MODULES:
                    replace[obj] = self.hot_call(name.replace("_numerics", "numerics"), obj)
                else:
                    replace[obj] = self.span(name, obj, COUNTS.get(name))
        hull = mods["duality"].ConvexHull
        replace[hull] = self.span("duality.ConvexHull", hull, COUNTS["duality.ConvexHull"])
        for m, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not callable(obj):
                    continue
                try:
                    wrapped = replace.get(obj)
                except TypeError:  # unhashable callables
                    continue
                if wrapped is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)
        for methods, hot in ((HOT_METHODS, True), (SPAN_METHODS, False)):
            for m, cls_name, meth in methods:
                cls = getattr(mods[m], cls_name)
                fn = cls.__dict__[meth]
                name = f"{m}.{cls_name}.{meth}"
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self.hot_call(name, fn) if hot else self.span(name, fn))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- output ----------------------------------------------------------

    def dump(self):
        return {"spans": self.spans, "hot": {k: list(v) for k, v in self.hot.items()}}


def write(trace, path):
    """Write a trace as JSON lines: one per span, then one per hot name."""
    with open(path, "w") as fh:
        for s in trace["spans"]:
            fh.write(json.dumps({"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                                 "parent": s[4], "self_s": s[5], "count": s[6]}) + "\n")
        for name, (calls, incl, self_s, layer_calls) in trace["hot"].items():
            fh.write(json.dumps({"hot": name, "calls": calls, "incl_s": incl,
                                 "self_s": self_s, "layer_calls": layer_calls}) + "\n")


def merge(dumps):
    """Combine the dumps of several traced processes (span ids stay
    unique by prefixing each dump's index)."""
    spans, hot = [], defaultdict(lambda: [0, 0.0, 0.0, 0])
    for k, d in enumerate(dumps):
        for s in d["spans"]:
            spans.append((f"{k}:{s[0]}", s[1], s[2], s[3],
                          None if s[4] is None else f"{k}:{s[4]}", s[5], s[6]))
        for name, rec in d["hot"].items():
            for i in range(4):
                hot[name][i] += rec[i]
    return {"spans": spans, "hot": dict(hot)}


# metric -> span names whose outermost occurrences it sums
SPAN_TIMES = {
    "projective.random_points_s": ["projective.ModelSpace.random_points"],
    "projective.distance_batch_s": ["projective.projective_distance_batch"],
    "projective.closed_form_s": ["projective.closed_form_distance"],
    "projective.distance_scalar_s": ["projective.projective_distance"],
    "duality.qhull_s": ["duality.ConvexHull"],
    "duality.dual_support_s": ["duality.dual_support"],
    "transition.conjugate_limit_s": ["transition.conjugate_limit"],
    "transition.duality_check_s": ["transition.duality_transition_check"],
    "connections.residual_s": [f"connections.{n}" for n in (
        "symmetry_residual", "metric_compatibility_residual", "t_parallel_residual",
        "plane_preservation_residual", "parallel_volume_residual", "geodesic_residual")],
    "connections.transition_check_s": ["connections.connection_transition_check",
                                       "connections.volume_transition_check"],
    "pogorelov.killing_residual_s": ["pogorelov.killing_residual"],
    "pogorelov.operator_l_s": ["pogorelov.operator_l"],
    "pogorelov.weyl_s": ["pogorelov.weyl_gap", "pogorelov.contraction_gap"],
    "pogorelov.rigidity_s": ["pogorelov.rigidity_transport", "pogorelov.deformation_residual",
                             "pogorelov.fit_flat_killing"],
    "pogorelov.halton_cloud_s": ["pogorelov.halton_cloud"],
    "surfaces.embedding_data_s": ["surfaces.embedding_data", "surfaces.embedding_data_co"],
    "surfaces.gauss_codazzi_s": ["surfaces.gauss_codazzi_residual"],
    "surfaces.dual_embedding_s": ["surfaces.dual_embedding_data"],
    "surfaces.recover_support_s": ["surfaces.recover_support_from_shape"],
    "cli.main_s": ["cli.main"],
}
SPAN_CALLS = {
    "projective.random_points_calls": ["projective.ModelSpace.random_points"],
    "projective.distance_scalar_calls": ["projective.projective_distance"],
    "duality.qhull_calls": ["duality.ConvexHull"],
    "transition.conjugate_limit_calls": ["transition.conjugate_limit"],
}
SPAN_COUNTS = {
    "projective.pairs": ["projective.projective_distance_batch"],
    "duality.hull_facets": ["duality.ConvexHull"],
    "duality.rays_kept": ["duality.cone_facet_normals"],
    "duality.polar_pairs": ["duality.dual_support"],
    "surfaces.grid_points": ["surfaces.embedding_data", "surfaces.embedding_data_co"],
}
HOT_CALLS = {
    "pogorelov.metric_evals": "pogorelov.ChartMetric.metric",
    "connections.field_evals": "connections.VectorField.__call__",
    "numerics.richardson_calls": "numerics.richardson",
}


def per_layer(trace):
    """Per-layer metrics of a trace: values without units."""
    spans = trace["spans"]
    by_id = {s[0]: s for s in spans}
    out = {}

    def outermost(names):
        names = set(names)
        for s in spans:
            if s[1] not in names:
                continue
            p = s[4]
            while p is not None and by_id[p][1] not in names:
                p = by_id[p][4]
            if p is None:
                yield s

    for metric, names in SPAN_TIMES.items():
        out[metric] = sum(s[3] - s[2] for s in outermost(names))
    for metric, names in SPAN_CALLS.items():
        out[metric] = sum(1 for _ in outermost(names))
    for metric, names in SPAN_COUNTS.items():
        out[metric] = sum(s[6] for s in outermost(names))
    hot = trace["hot"]
    for metric, name in HOT_CALLS.items():
        out[metric] = hot.get(name, [0])[0]
    # forms calls nest (BilinearForm.__call__ -> evaluate): count calls
    # made from outside the layer
    out["forms.calls"] = sum(rec[3] for name, rec in hot.items() if name.startswith("forms."))
    out["numerics.richardson_s"] = hot.get("numerics.richardson", [0, 0.0])[1]
    out["projective.batch_ns_per_pair"] = (
        1e9 * out["projective.distance_batch_s"] / out["projective.pairs"]
        if out["projective.pairs"] else 0.0)
    out["duality.dedupe_ratio"] = (out["duality.rays_kept"] / out["duality.hull_facets"]
                                   if out["duality.hull_facets"] else 0.0)
    out["duality.facet_normals_self_s"] = sum(
        s[5] for s in spans if s[1] == "duality.cone_facet_normals")
    for k in range(1, 10):
        out[f"acceptance.criterion_{k}_s"] = sum(
            s[3] - s[2] for s in spans if s[1] == f"acceptance.criterion_{k}")
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_s[s[1].split(".")[0]] += s[5]
    for name, rec in hot.items():
        self_s[name.split(".")[0]] += rec[2]
    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value
    out["trace.spans"] = len(spans)
    return out
