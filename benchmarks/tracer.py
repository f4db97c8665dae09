"""Span tracer for whirly-lab, installed from outside the package.

Installing a :class:`Tracer` replaces every binding of each public function of
the ``rng``, ``tree``, ``group``, ``sets``, ``montecarlo`` and ``experiments``
modules with a wrapper that records a span.  "Every binding" means the
defining module, each ``whirly_lab`` module that imported the function by name
(``from .tree import sample_levels``), and function defaults that captured it
(``element_factory=make_gsk``).  The methods that carry per-layer counts,
``BorelSet.indicator``/``indicator_at`` and ``RngStream.generator``/``block``,
are wrapped on their classes.  No file of the package changes, and
:meth:`Tracer.uninstall` restores every original.

A span keeps its name, start, end, parent span and operation id in memory;
:meth:`Tracer.dump` writes them out once, when the run ends.
:func:`layer_metrics` turns the spans of one pass into the per-layer metrics
listed in :data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import weakref
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple

LAYERS = ("rng", "tree", "group", "sets", "montecarlo", "experiments")

# Set kinds keyed by the name used in metric names.
SET_KINDS = {
    "acted-image": "acted",
    "union": "union",
    "intersection": "intersection",
    "disk-product": "disk",
    "affine-image": "affine",
}

EXPERIMENT_CALLS = (
    "whirly_search",
    "verify_continuity",
    "verify_conditional_independence",
    "positivity_scan",
    "verify_convolution",
)

# (name, unit, better) of every per-layer metric, in the order they print.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("tree.sample_levels.busy_s", "s", "lower"),
    ("tree.conditional_levels.busy_s", "s", "lower"),
    ("tree.standard_complex.busy_s", "s", "lower"),
    ("tree.project_vectors.busy_s", "s", "lower"),
    ("tree.normals_per_sample", "count", "lower"),
    ("tree.values_per_sample", "count", "lower"),
    ("tree.read_share", "ratio", "higher"),
    *((f"sets.{kind}.busy_s", "s", "lower") for kind in SET_KINDS.values()),
    ("sets.rows", "count", "lower"),
    ("sets.leaf_evals_per_row", "count", "lower"),
    ("sets.union.leaf_evals_per_row", "count", "lower"),
    ("montecarlo.tally.busy_s", "s", "lower"),
    ("montecarlo.blocks", "count", "lower"),
    ("montecarlo.block_p50_ms", "ms", "lower"),
    ("montecarlo.block_p90_ms", "ms", "lower"),
    ("montecarlo.parallel_efficiency", "ratio", "higher"),
    ("montecarlo.wilson.calls", "count", "lower"),
    ("montecarlo.wilson.busy_s", "s", "lower"),
    ("montecarlo.estimate_measure.busy_s", "s", "lower"),
    ("montecarlo.estimate_joint_events.busy_s", "s", "lower"),
    ("rng.generators", "count", "lower"),
    ("rng.busy_s", "s", "lower"),
    ("group.calls", "count", "lower"),
    ("group.busy_s", "s", "lower"),
    *((f"experiments.{call}.busy_s", "s", "lower") for call in EXPERIMENT_CALLS),
    ("experiments.self_s", "s", "lower"),
    ("trace_overhead_share", "ratio", "lower"),
)

_SAMPLERS = ("tree.sample_levels", "tree.conditional_levels")
_SET_SPANS = ("sets.indicator", "sets.indicator_at")


class Span(NamedTuple):
    sid: int
    parent: int
    op: int
    name: str
    start: float
    end: float
    attrs: dict | None


class _Sampled:
    """Level arrays one tree-sampler call returned, and which of them a set read."""

    __slots__ = ("op", "sizes", "read", "first")

    def __init__(self, op: int, levels: list) -> None:
        self.op = op
        self.sizes = [int(a.size) for a in levels]
        self.read: set[int] = set()
        self.first = weakref.ref(levels[0])


def leaf_count(node) -> int:
    """Leaves below a set node, found through its public child attributes."""
    kids = list(getattr(node, "children", ()) or ())
    for attr in ("child", "base"):
        kid = getattr(node, attr, None)
        if kid is not None:
            kids.append(kid)
    return sum(leaf_count(k) for k in kids) if kids else 1


class Tracer:
    """Records spans around calls into whirly_lab while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops: dict[int, tuple[int, str]] = {}
        self.sampled: list[_Sampled] = []
        self._by_list: dict[int, _Sampled] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Context for threads that have no span open, such as the pool threads
        # tally_blocks starts: they work for the tally that is running.
        self._ambient = (0, 0)
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, tuple[Callable, Callable]] = {}

    # -- span recording ------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, attrs_of=None, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self._ambient
        sid = next(self._ids)
        stack.append((sid, parent[1]))
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        # A call that raises leaves no span; the run counts it as a failed operation.
        attrs = attrs_of(result) if attrs_of is not None else None
        self.spans.append(Span(sid, parent[0], parent[1], name, start, end, attrs))
        return result

    @contextmanager
    def operation(self, pass_index: int, call: str):
        """Tag the spans of one experiment call with a fresh operation id."""
        op = next(self._ids)
        self.ops[op] = (pass_index, call)
        stack = self._stack()
        stack.append((0, op))
        try:
            yield op
        finally:
            stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _plain(self, name: str, fn: Callable, attrs_of: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, attrs_of)

        return traced

    def _sampled_attrs(self, levels: list) -> dict:
        """Counts of a tree-sampler call; also registers its arrays for read tracking."""
        stack = self._stack()
        record = _Sampled((stack[-1] if stack else self._ambient)[1], levels)
        self.sampled.append(record)
        self._by_list[id(levels)] = record
        return {"rows": int(levels[0].shape[0]), "values": sum(record.sizes), "depth": len(levels) - 1}

    def _tally(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(block_fn, *args, **kwargs):
            stack = self._stack()
            outer = stack[-1] if stack else self._ambient
            sid = next(self._ids)
            here = (sid, outer[1])

            def block(gen, count):
                return self._call("montecarlo.block", block_fn, (gen, count), {}, parent=here)

            stack.append(here)
            ambient, self._ambient = self._ambient, here
            start = perf_counter()
            try:
                result = fn(block, *args, **kwargs)
            finally:
                end = perf_counter()
                self._ambient = ambient
                stack.pop()
            attrs = {"workers": int(kwargs.get("workers", 1))}
            self.spans.append(Span(sid, outer[0], outer[1], name, start, end, attrs))
            return result

        return traced

    def _indicator(self, name: str, fn: Callable, reads_levels: bool) -> Callable:
        @functools.wraps(fn)
        def traced(target, *args, **kwargs):
            local = self._local
            if getattr(local, "in_sets", False):
                return fn(target, *args, **kwargs)
            if reads_levels:
                levels = args[0] if args else kwargs["levels"]
                record = self._by_list.get(id(levels))
                if record is not None and record.first() is levels[0]:
                    record.read.add(target.level)
            local.in_sets = True
            try:
                return self._call(
                    name,
                    fn,
                    (target, *args),
                    kwargs,
                    lambda out: {"kind": target.kind, "rows": int(len(out)), "leaves": leaf_count(target)},
                )
            finally:
                local.in_sets = False

        return traced

    def _wrapper(self, layer: str, attr: str, fn: Callable) -> Callable:
        name = f"{layer}.{attr}"
        if name in _SAMPLERS:
            return self._plain(name, fn, self._sampled_attrs)
        if name == "tree.standard_complex":
            return self._plain(name, fn, lambda out: {"n": int(out.size)})
        if name == "montecarlo.tally_blocks":
            return self._tally(name, fn)
        return self._plain(name, fn)

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of the layers' public functions and methods."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for layer in LAYERS:
            mod = sys.modules[f"whirly_lab.{layer}"]
            for attr, obj in vars(mod).items():
                if _is_public_function(mod, attr, obj):
                    self._wrapped[id(obj)] = (obj, self._wrapper(layer, attr, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = self._wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for fn in _package_functions(modules):
            if fn.__defaults__ and any(id(d) in self._wrapped for d in fn.__defaults__):
                self._set(fn, "__defaults__", tuple(self._swap(d) for d in fn.__defaults__))
            if fn.__kwdefaults__ and any(id(d) in self._wrapped for d in fn.__kwdefaults__.values()):
                self._set(fn, "__kwdefaults__", {k: self._swap(d) for k, d in fn.__kwdefaults__.items()})

        sets = sys.modules["whirly_lab.sets"]
        rng = sys.modules["whirly_lab.rng"]
        borel = sets.BorelSet
        self._set(borel, "indicator", self._indicator("sets.indicator", borel.indicator, True))
        self._set(borel, "indicator_at", self._indicator("sets.indicator_at", borel.indicator_at, False))
        for method in ("generator", "block", "child", "substream"):
            self._set(rng.RngStream, method, self._plain(f"rng.{method}", getattr(rng.RngStream, method)))

    def _swap(self, value):
        hit = self._wrapped.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    def uninstall(self) -> None:
        """Restore every binding the tracer replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._wrapped.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Bindings of wrapped functions that still point at the original."""
        originals = {id(fn): fn for fn, _ in self._wrapped.values()}

        def is_original(obj) -> bool:
            return originals.get(id(obj), self) is obj

        found = []
        modules = _package_modules()
        for mod in modules:
            for attr, obj in vars(mod).items():
                if is_original(obj):
                    found.append(f"{mod.__name__}.{attr}")
        for fn in _package_functions(modules):
            defaults = list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
            for d in defaults:
                if is_original(d):
                    found.append(f"default of {fn.__module__}.{fn.__qualname__}")
        return found

    # -- output ----------------------------------------------------------------

    def dump(self) -> dict:
        """Spans and operations as plain JSON-ready data."""
        return {
            "span_fields": list(Span._fields),
            "spans": [list(s) for s in self.spans],
            "operations": {str(op): list(v) for op, v in self.ops.items()},
        }


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "whirly_lab" or name.startswith("whirly_lab."))]


def _package_functions(modules) -> list:
    """Functions defined in the package's modules, looking through wrappers."""
    out = []
    for mod in modules:
        for obj in vars(mod).values():
            fn = inspect.unwrap(obj) if inspect.isfunction(obj) else obj
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append(fn)
    return out


def _is_public_function(mod, attr: str, obj) -> bool:
    return (
        not attr.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == mod.__name__
        and obj.__qualname__ == attr
    )


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], sampled: list[_Sampled]) -> dict[str, float]:
    """Per-layer metrics of one set of spans (normally one pass).

    ``trace_overhead_share`` is not a function of the spans; the caller adds it.
    """
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def busy(items) -> float:
        return sum(s.end - s.start for s in items)

    def outermost(layer: str) -> list[Span]:
        prefix = layer + "."
        out = []
        for s in spans:
            if s.name.startswith(prefix):
                parent = by_id.get(s.parent)
                if parent is None or not parent.name.startswith(prefix):
                    out.append(s)
        return out

    m: dict[str, float] = {}
    for fn in ("sample_levels", "conditional_levels", "standard_complex", "project_vectors"):
        m[f"tree.{fn}.busy_s"] = busy(named(f"tree.{fn}"))

    samplers = [s for s in spans if s.name in _SAMPLERS]
    sampler_ids = {s.sid for s in samplers}
    rows = sum(s.attrs["rows"] for s in samplers if s.attrs)
    normals = sum(
        s.attrs["n"] for s in named("tree.standard_complex") if s.parent in sampler_ids and s.attrs
    )
    m["tree.normals_per_sample"] = _ratio(normals, rows)
    m["tree.values_per_sample"] = _ratio(sum(s.attrs["values"] for s in samplers if s.attrs), rows)
    returned = sum(sum(r.sizes) for r in sampled)
    read = sum(r.sizes[level] for r in sampled for level in r.read)
    m["tree.read_share"] = _ratio(read, returned)

    set_spans = [s for s in spans if s.name in _SET_SPANS and s.attrs]
    for kind, key in SET_KINDS.items():
        m[f"sets.{key}.busy_s"] = busy(s for s in set_spans if s.attrs["kind"] == kind)
    set_rows = sum(s.attrs["rows"] for s in set_spans)
    m["sets.rows"] = float(set_rows)
    m["sets.leaf_evals_per_row"] = _ratio(sum(s.attrs["rows"] * s.attrs["leaves"] for s in set_spans), set_rows)
    unions = [s for s in set_spans if s.attrs["kind"] == "union"]
    m["sets.union.leaf_evals_per_row"] = _ratio(
        sum(s.attrs["rows"] * s.attrs["leaves"] for s in unions), sum(s.attrs["rows"] for s in unions)
    )

    tallies = named("montecarlo.tally_blocks")
    blocks = named("montecarlo.block")
    block_ms = [1000.0 * (s.end - s.start) for s in blocks]
    m["montecarlo.tally.busy_s"] = busy(tallies)
    m["montecarlo.blocks"] = float(len(blocks))
    m["montecarlo.block_p50_ms"] = _percentile(block_ms, 50.0)
    m["montecarlo.block_p90_ms"] = _percentile(block_ms, 90.0)
    m["montecarlo.parallel_efficiency"] = _ratio(
        busy(blocks), sum(s.attrs["workers"] * (s.end - s.start) for s in tallies)
    )
    wilson = named("montecarlo.wilson_interval")
    m["montecarlo.wilson.calls"] = float(len(wilson))
    m["montecarlo.wilson.busy_s"] = busy(wilson)
    m["montecarlo.estimate_measure.busy_s"] = busy(named("montecarlo.estimate_measure"))
    m["montecarlo.estimate_joint_events.busy_s"] = busy(named("montecarlo.estimate_joint_events"))

    m["rng.generators"] = float(len(named("rng.generator")) + len(named("rng.block")))
    m["rng.busy_s"] = busy(outermost("rng"))
    m["group.calls"] = float(sum(1 for s in spans if s.name.startswith("group.")))
    m["group.busy_s"] = busy(outermost("group"))

    for call in EXPERIMENT_CALLS:
        m[f"experiments.{call}.busy_s"] = busy(named(f"experiments.{call}"))
    self_s = 0.0
    for s in outermost("experiments"):
        kids = [(c.start, c.end) for c in children.get(s.sid, ())]
        self_s += (s.end - s.start) - _covered(kids, s.start, s.end)
    m["experiments.self_s"] = self_s
    return m
