"""Layer spans for the traced run, taken at effmeas's module boundaries.

Every public function of each layer module is replaced by a wrapper, at
every module attribute that holds it: ``effmeas.cli`` imports
``prokhorov_discrete`` by name, so ``effmeas.cli.prokhorov_discrete`` is
rebound as well as ``effmeas.prokhorov.prokhorov_discrete``.  A few private
functions and methods that the per-layer metrics need are wrapped too.

A span is (name, start, end, parent, size) in flat arrays, kept in memory
and written out at the end.  ``size`` is an input size some metrics fit a
growth exponent to.  A span covers the call only: work a returned stream or
generator does later shows up in the spans of whoever pulls it.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import sys
import time
from array import array

LAYERS = (
    "cli",
    "fileformat",
    "corpora",
    "prokhorov",
    "convergence",
    "measures",
    "functions",
    "sets",
    "reals",
    "streams",
    "codes",
)

# Private functions and methods wrapped besides each module's public
# functions, as (module, attribute path).
EXTRA = (
    ("convergence", "_scan_for_index"),
    ("streams", "Stream.__getitem__"),
    ("reals", "CauchyReal.approx"),
    ("reals", "LowerReal.bound"),
    ("measures", "DiscreteMeasure.mass_closed"),
    ("measures", "PolyDensityMeasure.mass_closed"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.size = array("d")
        self.stack: list[int] = []
        self.on = False
        # (cover stream, limit atoms) of every almost_decidable_cover call
        self.covers: list = []

    def __len__(self) -> int:
        return len(self.start)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions of the imported effmeas package."""
        modules = [m for k, m in list(sys.modules.items()) if k == "effmeas" or k.startswith("effmeas.")]
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"effmeas.{layer}"]
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets.append((layer, mod, name, obj))
        for layer, path in EXTRA:
            owner = sys.modules[f"effmeas.{layer}"]
            *classes, attr = path.split(".")
            for name in classes:
                owner = getattr(owner, name)
            targets.append((layer, owner, path, getattr(owner, attr)))
        for layer, owner, path, fn in targets:
            wrapper = self._wrap(f"{layer}.{path}", fn)
            if owner is sys.modules[f"effmeas.{layer}"]:
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
            else:
                setattr(owner, path.rsplit(".", 1)[1], wrapper)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = SIZE_HOOKS.get(name)
        name_of, start, end, parent, size, stack = (
            self.name_of, self.start, self.end, self.parent, self.size, self.stack
        )
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            size.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                size[i] = hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # -- analysis ---------------------------------------------------------

    def lengths(self, lo: int, hi: int) -> list[float]:
        return [self.end[i] - self.start[i] for i in range(lo, hi)]

    def self_times(self, lo: int, hi: int) -> list[float]:
        """Each span's length minus the lengths of its child spans."""
        own = self.lengths(lo, hi)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                own[p - lo] -= self.end[i] - self.start[i]
        return own

    def table(self, lo: int, hi: int, own: list[float]) -> dict:
        """Calls and self seconds per span name over spans lo..hi-1."""
        out: dict[str, list] = {}
        for i in range(lo, hi):
            row = out.setdefault(self.names[self.name_of[i]], [0, 0.0])
            row[0] += 1
            row[1] += own[i - lo]
        return out

    def sized(self, lo: int, hi: int, name: str, values: list[float]):
        """(size, value) of every span of one name in lo..hi-1."""
        nid = self.names.index(name)
        return [(self.size[i], values[i - lo]) for i in range(lo, hi) if self.name_of[i] == nid]

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "fields": ["name", "start_s", "end_s", "parent", "size"],
                    "names": self.names,
                    "spans": [
                        [self.name_of[i], self.start[i], self.end[i], self.parent[i], self.size[i]]
                        for i in range(len(self))
                    ],
                },
                fh,
            )


def _atom_count(tracer, args, kwargs, result) -> float:
    return float(len(args[0].atoms) + len(args[1].atoms))


def _precision(tracer, args, kwargs, result) -> float:
    return float(args[3] if len(args) > 3 else kwargs["N"])


def _cover(tracer, args, kwargs, result) -> float:
    tracer.covers.append((result, [x for x, _ in args[0].atoms]))
    return 0.0


SIZE_HOOKS = {
    "prokhorov.prokhorov_discrete": _atom_count,
    "prokhorov.eps_from_weak": _precision,
    "measures.almost_decidable_cover": _cover,
}


def cover_useful_ratio(covers) -> float:
    """Share of pulled cover balls that contain an atom of the limit."""
    pulled = useful = 0
    for stream, locs in covers:
        for pair in stream.prefix(stream.pulled):
            l, r = pair.U.components[0]
            pulled += 1
            useful += any(l < x < r for x in locs)
    return useful / pulled if pulled else 0.0


def growth_exponent(points, log_x: bool) -> float:
    """Least-squares slope of log(median y per size) against size or log size."""
    by_size: dict[float, list[float]] = {}
    for s, y in points:
        if s > 0 and y > 0:
            by_size.setdefault(s, []).append(y)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) if log_x else s for s in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(tracer: Tracer, lo: int, hi: int, covers) -> dict[str, float]:
    """Per-layer metrics of one traced round (spans lo..hi-1)."""
    own = tracer.self_times(lo, hi)
    t = tracer.table(lo, hi, own)

    def calls(*names):
        return float(sum(t.get(n, (0, 0.0))[0] for n in names))

    def self_s(*names):
        return sum(t.get(n, (0, 0.0))[1] for n in names)

    def prefixed(prefix):
        return [n for n in t if n.startswith(prefix)]

    mass_closed = ("measures.DiscreteMeasure.mass_closed", "measures.PolyDensityMeasure.mass_closed")
    merge = ("sets.merge_open", "sets.merge_closed")
    out = {
        "prokhorov.discrete_calls": calls("prokhorov.prokhorov_discrete"),
        "prokhorov.discrete_s": self_s("prokhorov.prokhorov_discrete"),
        "prokhorov.bounds_s": self_s("prokhorov.prokhorov_bounds"),
        "prokhorov.discrete_growth_exp": growth_exponent(
            tracer.sized(lo, hi, "prokhorov.prokhorov_discrete", own), log_x=True
        ),
        "prokhorov.eps_from_weak_calls": calls("prokhorov.eps_from_weak"),
        "prokhorov.eps_from_weak_s": self_s("prokhorov.eps_from_weak"),
        "prokhorov.eps_growth_exp": growth_exponent(
            tracer.sized(lo, hi, "prokhorov.eps_from_weak", tracer.lengths(lo, hi)), log_x=False
        ),
        "prokhorov.witness_s": self_s("prokhorov.witness_from_eps"),
        "measures.ball_calls": calls("measures.almost_decidable_ball"),
        "measures.ball_s": self_s("measures.almost_decidable_ball"),
        "measures.cover_useful_ratio": cover_useful_ratio(covers),
        "measures.mass_closed_calls": calls(*mass_closed),
        "measures.mass_closed_s": self_s(*mass_closed),
        "measures.integrate_named_calls": calls("measures.integrate_named"),
        "measures.integrate_named_s": self_s("measures.integrate_named"),
        "measures.integrate_poly_s": self_s("measures.integrate_poly"),
        "convergence.tm_validate_s": self_s("convergence.validate_total_mass_modulus"),
        "convergence.tail_bound_s": self_s("convergence.tail_mass_bound"),
        "convergence.surrogate_s": self_s("convergence.polygonal_surrogate"),
        "convergence.uniformize_s": self_s("convergence.uniformize_vague"),
        "convergence.modulus_scan_s": self_s("convergence._scan_for_index"),
        "functions.approx_polygonal_calls": calls("functions.approx_polygonal"),
        "functions.approx_polygonal_s": self_s("functions.approx_polygonal"),
        "functions.polygonal_on_window_s": self_s("functions.polygonal_on_window"),
        "streams.pulls": calls("streams.Stream.__getitem__"),
        "sets.merge_calls": calls(*merge),
        "sets.merge_s": self_s(*merge),
        "codes.decode_calls": calls(*prefixed("codes.decode_")),
        "fileformat.parse_s": self_s(*prefixed("fileformat.parse_")),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(*prefixed(layer + "."))
    return out
