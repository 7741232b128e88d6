"""Per-layer tracing of locvol from outside the package.

The traced run rebinds the module-level names that locvol's own callers
look up (for example `locvol.geometry.solve_lp`, or the subcommand table
`locvol.cli._RUNNERS`) to wrappers that record a span per call, or bump a
counter.  Spans are kept in memory and written when the run ends; a
layer's self time is its span minus the spans opened inside it.  The
untraced run installs nothing.  A target that no longer exists is listed
in `missing`, and every metric built on it reads null, never zero.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, function, layer, exit hook); hooks see (tracer, frame extras,
# call arguments, result)


def _lattice_exit(tracer, extra, args, result):
    lo, hi = args[2], args[3]
    box = 1
    for a, b in zip(lo, hi):
        box *= max(0, b - a + 1)
    tracer.counts["geometry.lattice.box_points"] += box
    tracer.counts["geometry.lattice.hits"] += result


def _enum_exit(tracer, extra, args, result):
    tracer.counts["geometry.enum.points"] += len(result)


def _mingens_exit(tracer, extra, args, result):
    tracer.counts["toric.mingens.points_in"] += len(args[0])
    tracer.counts["toric.mingens.gens_out"] += len(result)


def _support_exit(tracer, extra, args, result):
    # one linear solve per pass, the first being the full system
    tracer.counts["surface.zariski.support_iterations"] += extra.get("solves", 0)


def _lattice_zariski_exit(tracer, extra, args, result):
    # the first pass has an empty support and solves nothing
    tracer.counts["surface.zariski.support_iterations"] += extra.get("solves", 0) + 1


def _cbrt_exit(tracer, extra, args, result):
    # each refinement round encloses three cube roots
    tracer.counts["exactnum.cbrt.root_rounds"] += extra.get("roots", 0) // 3


SPANS = (
    ("locvol.geometry", "count_lattice_points", "geometry.lattice", _lattice_exit),
    ("locvol.geometry", "lattice_points", "geometry.enum", _enum_exit),
    ("locvol.geometry", "cone_extreme_rays", "geometry.dd", None),
    ("locvol.geometry", "volume_bounded", "geometry.volume", None),
    ("locvol.linprog", "solve_lp", "linprog", None),
    ("locvol.toric", "_minimal_generators", "toric.mingens", _mingens_exit),
    ("locvol.monomial", "h1_dim", "monomial.h1_dim", None),
    ("locvol.surface", "_support_iteration", "surface.zariski", _support_exit),
    ("locvol.surface", "lattice_zariski", "surface.zariski", _lattice_zariski_exit),
    ("locvol.surface", "ldl_pivots_negative", "surface.inertia", None),
    ("locvol.surface", "symmetric_inertia", "surface.inertia", None),
    ("locvol.cone", "volume_function", "cone.volume_function", None),
    ("locvol.exactnum", "compare_cbrt_sum", "exactnum.cbrt", _cbrt_exit),
)


def _inside(layer, key):
    """Counter hook that counts only calls made directly inside `layer`."""
    def hook(tracer, args, result):
        if tracer.stack and tracer.stack[-1][1] == layer:
            extra = tracer.stack[-1][4]
            extra[key] = extra.get(key, 0) + 1
            tracer.counts[f"{layer}.{key}"] += 1
    return hook


def _count(key, size=None):
    def hook(tracer, args, result):
        tracer.counts[key] += 1 if size is None else size(args)
    return hook


# (module, function, hook, modules whose binding is replaced; None = all)
COUNTERS = (
    ("locvol.geometry", "mat_rank", _inside("geometry.dd", "rank_calls"), None),
    ("locvol.linprog", "_pivot", _count("linprog.pivots"), None),
    ("locvol.toric", "hull_polyhedron", _count("toric.newton.hulls"),
     ("locvol.toric",)),
    # h1_dim tests every box point against two staircases
    ("locvol.monomial", "_staircase_mask",
     _count("monomial.h1_dim.box_points", lambda args: len(args[0]) / 2), None),
    ("locvol.geometry", "solve_linear", _inside("surface.zariski", "solves"), None),
    ("locvol.exactnum", "nth_root_bounds", _inside("exactnum.cbrt", "roots"), None),
)

# per-layer metric -> (unit, targets it is built on)
METRICS = {
    "cli.import_ms": ("ms", ()),
    "cli.validate_ms": ("ms/op", ("locvol.cli._validate",)),
    "cli.compute_ms": ("ms/op", ("locvol.cli._RUNNERS",)),
    "cli.serialize_ms": ("ms/op", ("locvol.cli._emit_json",)),
    "geometry.lattice.calls": ("count/op", ("locvol.geometry.count_lattice_points",)),
    "geometry.lattice.self_ms": ("ms/op", ("locvol.geometry.count_lattice_points",)),
    "geometry.lattice.box_points": ("count/op", ("locvol.geometry.count_lattice_points",)),
    "geometry.lattice.hit_ratio": ("ratio", ("locvol.geometry.count_lattice_points",)),
    "geometry.enum.calls": ("count/op", ("locvol.geometry.lattice_points",)),
    "geometry.enum.self_ms": ("ms/op", ("locvol.geometry.lattice_points",)),
    "geometry.enum.points": ("count/op", ("locvol.geometry.lattice_points",)),
    "geometry.dd.calls": ("count/op", ("locvol.geometry.cone_extreme_rays",)),
    "geometry.dd.self_ms": ("ms/op", ("locvol.geometry.cone_extreme_rays",)),
    "geometry.dd.rank_calls": ("count/op", ("locvol.geometry.cone_extreme_rays",
                                            "locvol.geometry.mat_rank")),
    "geometry.volume.calls": ("count/op", ("locvol.geometry.volume_bounded",)),
    "geometry.volume.self_ms": ("ms/op", ("locvol.geometry.volume_bounded",)),
    "linprog.calls": ("count/op", ("locvol.linprog.solve_lp",)),
    "linprog.pivots": ("count/op", ("locvol.linprog._pivot",)),
    "linprog.self_ms": ("ms/op", ("locvol.linprog.solve_lp",)),
    "toric.mingens.self_ms": ("ms/op", ("locvol.toric._minimal_generators",)),
    "toric.mingens.points_in": ("count/op", ("locvol.toric._minimal_generators",)),
    "toric.mingens.gens_out": ("count/op", ("locvol.toric._minimal_generators",)),
    "toric.newton.hulls": ("count/op", ("locvol.toric.hull_polyhedron",)),
    "monomial.h1_dim.self_ms": ("ms/op", ("locvol.monomial.h1_dim",)),
    "monomial.h1_dim.box_points": ("count/op", ("locvol.monomial._staircase_mask",)),
    "surface.zariski.self_ms": ("ms/op", ("locvol.surface._support_iteration",
                                          "locvol.surface.lattice_zariski")),
    "surface.zariski.support_iterations": (
        "count/op", ("locvol.surface._support_iteration",
                     "locvol.surface.lattice_zariski", "locvol.geometry.solve_linear")),
    "surface.inertia.self_ms": ("ms/op", ("locvol.surface.ldl_pivots_negative",
                                          "locvol.surface.symmetric_inertia")),
    "cone.volume_function.self_ms": ("ms/op", ("locvol.cone.volume_function",)),
    "exactnum.cbrt.self_ms": ("ms/op", ("locvol.exactnum.compare_cbrt_sum",)),
    "exactnum.cbrt.root_rounds": ("count/op", ("locvol.exactnum.compare_cbrt_sum",
                                               "locvol.exactnum.nth_root_bounds")),
    "trace.overhead_ms": ("ms/op", ()),
}


class Tracer:
    """Span stack, finished spans and counters of one traced process."""

    def __init__(self):
        self.stack = []   # open frames [span id, layer, start, child time, extras]
        self.spans = []   # (op, span id, parent id, layer, start, end, self time)
        self.counts = defaultdict(float)
        self.missing = []
        self.op = None
        self._next_id = 0
        self._undo = []

    def span(self, layer, fn, on_exit=None):
        def traced(*args, **kwargs):
            frame = [self._next_id, layer, time.perf_counter(), 0.0, {}]
            self._next_id += 1
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[2]
                parent = self.stack[-1] if self.stack else None
                if parent is not None:
                    parent[3] += duration
                self.spans.append((self.op, frame[0], parent and parent[0], layer,
                                   frame[2], end, duration - frame[3]))
            if on_exit is not None:
                on_exit(self, frame[4], args, result)
            return result
        return traced

    def counter(self, fn, hook):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, result)
            return result
        return counted

    def _rebind(self, module, name, make, scope):
        """Replace every binding of module.name among the scoped modules."""
        target = f"{module}.{name}"
        try:
            original = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "locvol" or mod_name.startswith("locvol.")):
                continue
            if scope is not None and mod_name not in scope:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        for module, name, layer, on_exit in SPANS:
            self._rebind(module, name,
                         lambda fn, l=layer, h=on_exit: self.span(l, fn, h), None)
        for module, name, hook, scope in COUNTERS:
            self._rebind(module, name, lambda fn, h=hook: self.counter(fn, h), scope)

    def install_cli(self, cli):
        """Wrap the stages of locvol.cli.run: validation, compute, serialising."""
        for name, layer in (("_validate", "cli.validate"), ("_emit_json", "cli.serialize"),
                            ("_emit_csv", "cli.serialize")):
            self._rebind("locvol.cli", name, lambda fn, l=layer: self.span(l, fn),
                         ("locvol.cli",))
        runners = getattr(cli, "_RUNNERS", None)
        if not isinstance(runners, dict):
            self.missing.append("locvol.cli._RUNNERS")
            return
        for sub, fn in list(runners.items()):
            runners[sub] = self.span("cli.compute", fn)
            self._undo.append((runners, sub, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def totals(self):
        """Per-layer call counts, self and inclusive seconds, and counters."""
        layers = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, _, layer, start, end, self_time in self.spans:
            entry = layers[layer]
            entry[0] += 1
            entry[1] += self_time
            entry[2] += end - start
        return {"layers": dict(layers), "counts": dict(self.counts),
                "missing": list(self.missing)}


def merge(into, totals):
    """Add one process's totals to an accumulator of the same shape."""
    for layer, (calls, self_s, incl_s) in totals["layers"].items():
        entry = into["layers"].setdefault(layer, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += self_s
        entry[2] += incl_s
    for key, value in totals["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value
    into["missing"] = sorted(set(into["missing"]) | set(totals["missing"]))
    return into


def empty_totals():
    return {"layers": {}, "counts": {}, "missing": []}


def layer_metrics(totals, ops, import_ms, overhead_ms):
    """Every per-layer metric, normalised per timed op where it is a rate."""
    layers, counts = totals["layers"], totals["counts"]
    missing = set(totals["missing"])

    def calls(layer):
        return layers.get(layer, [0, 0.0, 0.0])[0] / ops

    def self_ms(layer):
        return layers.get(layer, [0, 0.0, 0.0])[1] * 1e3 / ops

    def incl_ms(layer):
        return layers.get(layer, [0, 0.0, 0.0])[2] * 1e3 / ops

    box = counts.get("geometry.lattice.box_points", 0)
    values = {
        "cli.import_ms": import_ms,
        "cli.validate_ms": incl_ms("cli.validate"),
        "cli.compute_ms": incl_ms("cli.compute"),
        "cli.serialize_ms": incl_ms("cli.serialize"),
        "geometry.lattice.hit_ratio":
            counts.get("geometry.lattice.hits", 0) / box if box else 0.0,
        "trace.overhead_ms": overhead_ms,
    }
    for name in METRICS:
        if name in values:
            continue
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls(layer)
        elif field == "self_ms":
            values[name] = self_ms(layer)
        else:
            values[name] = counts.get(name, 0) / ops
    out = {}
    for name, (unit, needs) in METRICS.items():
        value = None if missing.intersection(needs) else values[name]
        out[name] = {"value": value, "unit": unit}
    return out
