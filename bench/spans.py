"""Span tracing of curvlab's layers, applied from outside the package.

The layers are the modules of curvlab.  `Tracer.install` replaces every
public function of each layer with a wrapper, in every curvlab module that
holds a reference to it (so `constructions.cm_min` and the
`stiefel_retract` that `stiefel_descent` looks up are traced too), and
`Tracer.uninstall` puts the originals back.  A wrapper records one span
(function, start, end, parent) in flat in-memory arrays; nothing is written
until `Tracer.save` runs after the measurement.

Span time is charged to metric groups.  A function listed in `GROUPS` opens
its own group; any other traced function is charged to the group of the
nearest enclosing span of the same layer, or else to its layer's default
group.  A group's self time is the time its spans cover minus the time
covered by their child spans, so the self times of all groups plus the
harness's own time add up to the traced wall time exactly.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import time
import warnings
from array import array
from collections import Counter

LAYERS = ("curvature", "frames", "constructions", "inequalities", "diameter",
          "report", "cli")

# function name -> metric group, per layer
GROUPS = {
    "curvature": {"riemann_exact": "riemann_exact", "riemann_fd": "riemann_fd"},
    "frames": {name: name for name in ("cm_min", "cm_min_oracle", "stiefel_descent",
                                       "stiefel_retract", "random_frames", "cm_batch")},
    "constructions": {"search_epsilon": "search_epsilon",
                      "verify_uniform_positivity": "verify_uniform_positivity"},
    "inequalities": {name: name for name in ("chen_min_ratio", "chen_min_exact",
                                             "brendle_min", "brendle_min_exact")},
    "diameter": {"rotational_diameter": "rotational_diameter",
                 "c0_identity_check": "c0_identity",
                 "c0_identity_sweep": "c0_identity"},
    "report": {"write_json": "write", "write_csv": "write"},
    "cli": {},
}
DEFAULT_GROUP = {"inequalities": "scan", "cli": "main"}

# CLI subcommand handlers, timed inclusively
SUBCOMMANDS = {"cmd_verify_examples": "verify_examples",
               "cmd_scan_algebra": "scan_algebra",
               "cmd_matrix_inequalities": "matrix_inequalities",
               "cmd_diameter": "diameter",
               "cmd_curvature_report": "curvature_report"}

HARNESS = "bench"

# counters read off return values; zero when the workload never calls them
COUNTERS = ("frames.cm_min.evaluations", "frames.cm_min.won.coordinate",
            "frames.cm_min.won.sampling", "frames.cm_min.won.descent",
            "frames.stiefel_descent.iterations", "frames.stiefel_descent.evaluations",
            "frames.stiefel_descent.converged", "frames.random_frames.frames",
            "frames.cm_batch.frames", "constructions.search_epsilon.candidates",
            "constructions.verify_uniform_positivity.aborted", "report.write.bytes",
            "diameter.rotational_diameter.nodes")


def _public_functions(module):
    """Functions a layer defines for outside use: its __all__, else no underscore."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {n: getattr(module, n) for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__}


# -- counters read off return values ----------------------------------------

_WINNER = {"coordinate-enumeration": "coordinate", "random-sampling": "sampling",
           "projected-descent": "descent"}


def _observe_cm_min(c, res, args, kwargs):
    c["frames.cm_min.evaluations"] += res.evaluations
    c[f"frames.cm_min.won.{_WINNER.get(res.method, res.method)}"] += 1


def _observe_descent(c, res, args, kwargs):
    c["frames.stiefel_descent.iterations"] += res.iterations
    c["frames.stiefel_descent.evaluations"] += res.evaluations
    c["frames.stiefel_descent.converged"] += int(res.converged)


def _observe_frames(group):
    def observe(c, res, args, kwargs):
        c[f"frames.{group}.frames"] += len(res)
    return observe


def _observe_search(c, res, args, kwargs):
    # candidates tried: eps = 2^-t passed after t failures
    c["constructions.search_epsilon.candidates"] += round(-math.log2(res.epsilon)) + 1


def _observe_sweep(c, res, args, kwargs):
    c["constructions.verify_uniform_positivity.aborted"] += int(not res.complete)


def _observe_write(c, path, args, kwargs):
    c["report.write.bytes"] += os.path.getsize(path)


def _observe_diameter(fn):
    signature = inspect.signature(fn)

    def observe(c, res, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        c["diameter.rotational_diameter.nodes"] += (bound.arguments["n_r"]
                                                    * bound.arguments["n_theta"])
    return observe


def _observer(layer, name, fn):
    if layer == "frames":
        if name == "cm_min":
            return _observe_cm_min
        if name == "stiefel_descent":
            return _observe_descent
        if name in ("random_frames", "cm_batch"):
            return _observe_frames(name)
    if layer == "constructions":
        if name == "search_epsilon":
            return _observe_search
        if name == "verify_uniform_positivity":
            return _observe_sweep
    if layer == "report" and name in ("write_json", "write_csv"):
        return _observe_write
    if layer == "diameter" and name == "rotational_diameter":
        return _observe_diameter(fn)
    return None


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans over curvlab's public functions."""

    def __init__(self):
        self.names: list[str] = []          # "layer.function"
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.passes: list[tuple[int, int]] = []   # root span index ranges
        self.excluded: list[float] = []           # harness time left out, per pass
        self.counters: list[Counter] = []
        self.fp_warnings: list[Counter] = []
        self.current = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, qualname: str, fn, observe):
        nid = self._name_id(qualname)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer.current, result, args, kwargs)
            return result
        return traced

    def install(self, package) -> None:
        """Wrap every layer's public functions wherever curvlab refers to them."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in _public_functions(module).items():
                wrapped[fn] = self._wrap(f"{layer}.{name}", fn,
                                         _observer(layer, name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def traced_pass(self):
        """Root span for one pass of a workload; its self time is the harness's."""
        self.current = Counter()
        self.counters.append(self.current)
        first = len(self.start)
        nid = self._name_id(f"{HARNESS}.pass")
        self.name_of.append(nid)
        self.parent.append(-1)
        self.end.append(0.0)
        self.stack.append(first)
        self.start.append(time.perf_counter())
        with count_fp_warnings(self._current_layer) as fp:
            try:
                yield
            finally:
                self.end[first] = time.perf_counter()
                self.stack.pop()
        self.fp_warnings.append(fp)
        self.passes.append((first, len(self.start)))
        self.excluded.append(0.0)

    def exclude(self, seconds: float) -> None:
        """Take `seconds` of the harness's own work out of the last pass."""
        self.excluded[-1] += seconds

    def _current_layer(self) -> str:
        return self.names[self.name_of[self.stack[-1]]].split(".", 1)[0]

    # -- aggregation ---------------------------------------------------------

    def _groups(self):
        """Metric group name for every span, in span order."""
        layer = [n.split(".", 1)[0] for n in self.names]
        func = [n.split(".", 1)[1] for n in self.names]
        own = [GROUPS.get(layer[i], {}).get(func[i]) for i in range(len(self.names))]
        group = []
        for nid, par in zip(self.name_of, self.parent):
            g = own[nid]
            if g is None:
                lay = layer[nid]
                if lay == HARNESS:
                    g = "harness"
                elif par >= 0 and layer[self.name_of[par]] == lay:
                    g = group[par].split(".", 1)[1]
                else:
                    g = DEFAULT_GROUP.get(lay, "other")
            group.append(f"{layer[nid]}.{g}")
        return group

    def pass_metrics(self) -> list[dict]:
        """Per-layer metrics of each traced pass."""
        import numpy as np

        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        group = self._groups()
        group_names = sorted(
            set(group) | {f"{HARNESS}.harness"}
            | {f"{layer}.{g}" for layer, table in GROUPS.items() for g in table.values()}
            | {f"{layer}.{DEFAULT_GROUP.get(layer, 'other')}" for layer in LAYERS})
        group_idx = np.array([group_names.index(g) for g in group], dtype=np.int64)
        calls_names = {f"{layer}.{fn}": f"{layer}.{grp}"
                       for layer, table in GROUPS.items() for fn, grp in table.items()}
        call_group = np.array([group_names.index(calls_names[n]) if n in calls_names else -1
                               for n in self.names], dtype=np.int64)
        sub_ids = {sub: self.name_ids.get(f"cli.{fn}", -1) for fn, sub in SUBCOMMANDS.items()}
        cm_min_id = self.name_ids.get("frames.cm_min", -1)
        sweep_id = self.name_ids.get("constructions.verify_uniform_positivity", -1)

        out = []
        for (lo, hi), counts, fp, excluded in zip(self.passes, self.counters,
                                                  self.fp_warnings, self.excluded):
            sl = slice(lo, hi)
            m = {}
            gself = np.bincount(group_idx[sl], weights=self_time[sl],
                                minlength=len(group_names))
            gself[group_names.index(f"{HARNESS}.harness")] -= excluded
            names_here = name_of[sl]
            opened = call_group[names_here]
            gcalls = np.bincount(opened[opened >= 0], minlength=len(group_names))
            for gi, g in enumerate(group_names):
                m[f"{g}.self_s"] = float(gself[gi])
                m[f"{g}.calls"] = int(gcalls[gi])
            for layer in LAYERS + (HARNESS,):
                m[f"{layer}.self_s"] = float(sum(gself[gi] for gi, g in enumerate(group_names)
                                                 if g.split(".", 1)[0] == layer))
                m[f"{layer}.fp_warnings"] = int(fp.get(layer, 0))
            for sub, nid in sub_ids.items():
                mask = names_here == nid
                m[f"cli.{sub}.calls"] = int(mask.sum())
                m[f"cli.{sub}.total_s"] = float(dur[sl][mask].sum())
            # radii evaluated: cm_min spans opened directly by a positivity sweep
            par = parent[sl]
            direct = (names_here == cm_min_id) & (par >= 0)
            m["constructions.verify_uniform_positivity.radii"] = int(np.sum(
                name_of[par[direct]] == sweep_id))
            cm_durs = dur[sl][names_here == cm_min_id]
            m.update(_percentiles("frames.cm_min", cm_durs))
            m.update({key: counts.get(key, 0) for key in COUNTERS})
            m["trace.wall_s"] = float(dur[lo]) - excluded
            m["trace.spans"] = hi - lo
            m["trace.layer_self_s"] = m["trace.wall_s"] - m[f"{HARNESS}.self_s"]
            calls = m["frames.cm_min.calls"]
            m["frames.descent.win_ratio"] = (m["frames.cm_min.won.descent"] / calls
                                             if calls else 0.0)
            out.append(m)
        return out

    def save(self, path, summary: dict) -> None:
        """Write all spans (columnar .npz) and the metric summary (.json)."""
        import numpy as np

        np.savez(path.with_suffix(".npz"),
                 names=np.array(self.names),
                 name=np.frombuffer(self.name_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 passes=np.array(self.passes, dtype=np.int64).reshape(-1, 2),
                 excluded=np.array(self.excluded))
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1, sort_keys=True)
                                             + "\n")


def _percentiles(prefix: str, durs) -> dict:
    """Median and the highest whole percentile with at least ten calls above it."""
    import numpy as np

    n = len(durs)
    if n == 0:
        return {f"{prefix}.p50_s": 0.0, f"{prefix}.tail_s": 0.0, f"{prefix}.tail_pct": 0}
    if n >= 20:
        pct = (100 * (n - 10)) // n
        tail = float(np.percentile(durs, pct))
    else:
        pct, tail = 100, float(np.max(durs))
    return {f"{prefix}.p50_s": float(np.median(durs)), f"{prefix}.tail_s": tail,
            f"{prefix}.tail_pct": pct}


@contextlib.contextmanager
def count_fp_warnings(layer_of=lambda: HARNESS):
    """Count floating-point RuntimeWarnings, charged to the layer `layer_of` names.

    Every occurrence is counted (filter "always"); other warnings are shown
    as usual.
    """
    counts = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        show = warnings.showwarning

        def hook(message, category, filename, lineno, file=None, line=None):
            if issubclass(category, RuntimeWarning):
                counts[layer_of()] += 1
            else:
                show(message, category, filename, lineno, file, line)
        warnings.showwarning = hook
        yield counts
