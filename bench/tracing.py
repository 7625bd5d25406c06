"""Per-layer tracing of nurho, installed from outside the package.

``Tracer.install()`` wraps the functions and methods named in ``TARGETS``.
A module-level function is rebound in every ``nurho`` module that holds a
reference to it, since ``from .nominal import support`` copies the binding.
A method is patched on its class.  Each wrapped call records a span: its
name, start, end and parent span.  A generator records one span per resume,
so the time its consumer spends between items is not charged to it.

A span's self time is its length minus the time its child spans cover.
Collections by the garbage collector during a traced call are timed through
``gc.callbacks``.  They are recorded as ``runtime.gc`` spans and left out of
every layer's self time.  The structurally recursive ``atoms_of`` and ``apply_perm`` count only
calls that are not nested in another call of the same function.

``Tracer.uninstall()`` restores every binding.  ``metrics()`` gives the
per-layer figures.  ``write(stem)`` writes the spans to ``<stem>.spans`` as
four arrays of ``n`` items each: int32 name index, int32 parent span (-1 at
the top), float64 start, float64 end, in ``time.perf_counter`` seconds.  It
writes the span names and the metrics to ``<stem>.json``.
"""
from __future__ import annotations

import array
import gc
import json
import sys
import time
from collections import defaultdict

from nurho import arenas, cli, machine, model, nominal, plays, strategies, syntax, tidy
from nurho.arenas import DepthExceeded
from nurho.strategies import CompositionBudget

perf = time.perf_counter

# (span name, owner, attribute, kind).  kind: "fn" a function, "gen" a
# generator function, "rec" a recursive function counted at its outermost call,
# "recgen" the same for a generator.
TARGETS = (
    ("nominal.canonical_perm", nominal, "canonical_perm", "fn"),
    ("nominal.atoms_of", nominal, "atoms_of", "recgen"),
    ("nominal.support", nominal, "support", "fn"),
    ("nominal.apply_perm", nominal, "apply_perm", "rec"),
    ("plays.Play.canonical", plays.Play, "canonical", "fn"),
    ("plays.pview", plays, "pview", "fn"),
    ("plays.view_indices", plays, "view_indices", "fn"),
    ("plays.Board.label", plays.Board, "label", "fn"),
    ("arenas.enum_schemas", arenas, "enum_schemas", "gen"),
    ("strategies.Strategy.respond", strategies.Strategy, "respond", "fn"),
    ("strategies.ChainStrategy._bounce", strategies.ChainStrategy, "_bounce", "fn"),
    ("strategies.ChainStrategy._project", strategies.ChainStrategy, "_project", "fn"),
    ("strategies.viewfunction", strategies, "viewfunction", "fn"),
    ("strategies.o_extensions", strategies, "o_extensions", "gen"),
    ("strategies.compose", strategies, "compose", "fn"),
    ("model.denote", model, "denote", "fn"),
    ("model.correctness_check", model, "correctness_check", "fn"),
    ("model.observable", model, "observable", "fn"),
    ("tidy.synthesize", tidy, "synthesize", "fn"),
    ("tidy.synthesize_checked", tidy, "synthesize_checked", "fn"),
    ("tidy.restrict", tidy, "restrict", "fn"),
    ("tidy.decompose", tidy, "decompose", "fn"),
    ("machine.step", machine, "step", "fn"),
    ("syntax.parse_term", syntax, "parse_term", "fn"),
    ("syntax.infer", syntax, "infer", "fn"),
    ("syntax.typecheck", syntax, "typecheck", "fn"),
    ("cli.main", cli, "main", "fn"),
)

# Per-layer metrics: (name, unit).  The order is the order of the output.
PER_LAYER = (
    ("nominal.canonical_perm.calls", "count"),
    ("nominal.canonical_perm.self_s", "s"),
    ("nominal.atoms_of.calls", "count"),
    ("nominal.atoms_of.self_s", "s"),
    ("nominal.support.calls", "count"),
    ("nominal.support.self_s", "s"),
    ("nominal.apply_perm.calls", "count"),
    ("nominal.apply_perm.self_s", "s"),
    ("plays.Play.canonical.calls", "count"),
    ("plays.Play.canonical.self_s", "s"),
    ("plays.pview.calls", "count"),
    ("plays.pview.self_s", "s"),
    ("plays.view_indices.calls", "count"),
    ("plays.view_indices.self_s", "s"),
    ("plays.Board.label.calls", "count"),
    ("plays.Board.label.hit_ratio", "ratio"),
    ("arenas.enum_schemas.calls", "count"),
    ("arenas.enum_schemas.moves", "count"),
    ("arenas.enum_schemas.self_s", "s"),
    ("arenas.depth_exceeded", "count"),
    ("strategies.Strategy.respond.calls", "count"),
    ("strategies.Strategy.respond.self_s", "s"),
    ("strategies.Strategy.respond.memo_hit_ratio", "ratio"),
    ("strategies.ChainStrategy._bounce.calls", "count"),
    ("strategies.ChainStrategy._bounce.steps", "count"),
    ("strategies.ChainStrategy._bounce.self_s", "s"),
    ("strategies.ChainStrategy._project.calls", "count"),
    ("strategies.ChainStrategy._project.entries_scanned", "count"),
    ("strategies.ChainStrategy._project.self_s", "s"),
    ("strategies.viewfunction.calls", "count"),
    ("strategies.viewfunction.cache_hits", "count"),
    ("strategies.viewfunction.views", "count"),
    ("strategies.viewfunction.self_s", "s"),
    ("strategies.o_extensions.entries", "count"),
    ("strategies.compose.calls", "count"),
    ("strategies.composition_budget", "count"),
    ("model.denote.calls", "count"),
    ("model.denote.cache_hits", "count"),
    ("model.denote.self_s", "s"),
    ("model.correctness_check.calls", "count"),
    ("model.correctness_check.self_s", "s"),
    ("model.observable.calls", "count"),
    ("model.observable.self_s", "s"),
    ("tidy.synthesize.calls", "count"),
    ("tidy.synthesize.self_s", "s"),
    ("tidy.synthesize_checked.self_s", "s"),
    ("tidy.restrict.self_s", "s"),
    ("tidy.decompose.calls", "count"),
    ("tidy.decompose.self_s", "s"),
    ("machine.step.calls", "count"),
    ("machine.step.self_s", "s"),
    ("syntax.parse_term.self_s", "s"),
    ("syntax.infer.self_s", "s"),
    ("syntax.typecheck.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("runtime.gc.collections", "count"),
    ("runtime.gc_s", "s"),
)

GC = "runtime.gc"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack: list[list] = []  # [span id, name id, child time, start]
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.active: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []
        self._gc_start = 0.0
        self._gc_id = self._nid(GC)

    # -- spans ------------------------------------------------------------
    def _nid(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.active.append(0)
        return self.ids[name]

    def _enter(self, nid: int) -> list:
        # The four appends come before any allocation that can start a
        # collection, whose callback appends a span of its own.
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [sid, nid, 0.0, 0.0]
        self.stack.append(frame)
        frame[3] = t = perf()
        self.span_start[sid] = t
        return frame

    def _exit(self, frame: list) -> None:
        t = perf()
        self.stack.pop()
        sid, nid, child, start = frame
        dur = t - start
        self.span_end[sid] = t
        self.self_s[nid] += dur - child
        if self.stack:
            self.stack[-1][2] += dur

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.stack:
            return  # outside every traced call, e.g. the resets between units
        if phase == "start":
            self._gc_start = perf()
            return
        t = perf()
        dur = t - self._gc_start
        self.span_name.append(self._gc_id)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_start.append(self._gc_start)
        self.span_end.append(t)
        self.calls[self._gc_id] += 1
        self.self_s[self._gc_id] += dur
        if self.stack:
            self.stack[-1][2] += dur

    # -- wrappers ---------------------------------------------------------
    def _wrap_fn(self, name, fn, outermost_only, before=None, after=None):
        tracer, nid = self, self._nid(name)

        def wrapper(*args, **kw):
            if outermost_only and tracer.active[nid]:
                return fn(*args, **kw)
            tracer.calls[nid] += 1
            state = before(args) if before else None
            tracer.active[nid] += 1
            frame = tracer._enter(nid)
            try:
                out = fn(*args, **kw)
            except BaseException as e:
                tracer._exit(frame)
                tracer.active[nid] -= 1
                if after:
                    after(args, state, None, e)
                raise
            tracer._exit(frame)
            tracer.active[nid] -= 1
            if after:
                after(args, state, out, None)
            return out

        return wrapper

    def _wrap_gen(self, name, fn, outermost_only, item_key=None):
        tracer, nid = self, self._nid(name)
        counts = self.counts

        def drive(gen):
            while True:
                tracer.active[nid] += 1
                frame = tracer._enter(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame)
                    tracer.active[nid] -= 1
                if item_key:
                    counts[item_key] += 1
                yield item

        def wrapper(*args, **kw):
            if outermost_only and tracer.active[nid]:
                return fn(*args, **kw)
            tracer.calls[nid] += 1
            return drive(fn(*args, **kw))

        return wrapper

    def _count_once(self, key: str, e: BaseException) -> None:
        """Count an exception the first time a wrapper sees it escape."""
        if not getattr(e, "_bench_counted", False):
            e._bench_counted = True
            self.counts[key] += 1

    def _hooks(self, name: str):
        """The before/after hooks that take a target's extra counts."""
        c = self.counts
        if name == "plays.Board.label":
            def before(a):
                return (a[1], a[2]) in a[0]._labels

            def after(a, hit, out, e):
                c["label.hits"] += hit
            return before, after
        if name == "strategies.Strategy.respond":
            def before(a):
                return len(a[0]._memo)

            def after(a, n, out, e):
                if e is None and len(a[0]._memo) == n:
                    c["respond.hits"] += 1
            return before, after
        if name == "strategies.ChainStrategy._bounce":
            def before(a):
                return len(a[1])

            def after(a, n, out, e):
                c["bounce.steps"] += len(a[1]) - n + (out is None and e is None)
                if isinstance(e, CompositionBudget):
                    self._count_once("composition_budget", e)
            return before, after
        if name == "strategies.ChainStrategy._project":
            def before(a):
                c["project.scanned"] += len(a[1])
            return before, None
        if name == "strategies.viewfunction":
            def before(a):
                cache = getattr(a[0], "_vf_cache", None)
                return None if cache is None else len(cache)

            def after(a, n, out, e):
                if e is not None:
                    return
                if n is not None and len(a[0]._vf_cache) == n:
                    c["vf.hits"] += 1
                else:
                    c["vf.views"] += len(out.table)
            return before, after
        if name == "model.denote":
            def before(a):
                return len(model._DEN_CACHE)

            def after(a, n, out, e):
                if e is None and len(model._DEN_CACHE) == n:
                    c["denote.hits"] += 1
            return before, after
        return None, None

    def _wrap_children(self, cls) -> None:
        fn = cls.__dict__["children"]
        tracer = self

        def children(*args, **kw):
            try:
                return fn(*args, **kw)
            except DepthExceeded as e:
                tracer._count_once("depth_exceeded", e)
                raise

        self._patch(cls, "children", fn, children)

    def _patch(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    # -- install ----------------------------------------------------------
    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nurho" or n.startswith("nurho."))]
        for name, owner, attr, kind in TARGETS:
            fn = owner.__dict__[attr]
            outermost = kind in ("rec", "recgen")
            if kind in ("gen", "recgen"):
                item_key = {"arenas.enum_schemas": "enum.moves",
                            "strategies.o_extensions": "oext.entries"}.get(name)
                new = self._wrap_gen(name, fn, outermost, item_key)
            else:
                new = self._wrap_fn(name, fn, outermost, *self._hooks(name))
            if isinstance(owner, type):
                self._patch(owner, attr, fn, new)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, fn, new)
        for cls in [arenas.Arena, *_subclasses(arenas.Arena)]:
            if "children" in cls.__dict__:
                self._wrap_children(cls)
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results ----------------------------------------------------------
    def metrics(self) -> dict:
        calls = {n: self.calls[i] for n, i in self.ids.items()}
        own = {n: self.self_s[i] for n, i in self.ids.items()}
        c = self.counts

        def ratio(hits, total):
            return hits / total if total else 0.0

        out = {}
        for metric, unit in PER_LAYER:
            if metric.endswith(".calls"):
                value = calls[metric[: -len(".calls")]]
            elif metric.endswith(".self_s"):
                value = own[metric[: -len(".self_s")]]
            else:
                value = {
                    "plays.Board.label.hit_ratio":
                        ratio(c["label.hits"], calls["plays.Board.label"]),
                    "arenas.enum_schemas.moves": c["enum.moves"],
                    "arenas.depth_exceeded": c["depth_exceeded"],
                    "strategies.Strategy.respond.memo_hit_ratio":
                        ratio(c["respond.hits"], calls["strategies.Strategy.respond"]),
                    "strategies.ChainStrategy._bounce.steps": c["bounce.steps"],
                    "strategies.ChainStrategy._project.entries_scanned":
                        c["project.scanned"],
                    "strategies.viewfunction.cache_hits": c["vf.hits"],
                    "strategies.viewfunction.views": c["vf.views"],
                    "strategies.o_extensions.entries": c["oext.entries"],
                    "strategies.composition_budget": c["composition_budget"],
                    "model.denote.cache_hits": c["denote.hits"],
                    "runtime.gc.collections": calls[GC],
                    "runtime.gc_s": own[GC],
                }[metric]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, stem: str) -> None:
        with open(stem + ".spans", "wb") as f:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)
        with open(stem + ".json", "w") as f:
            json.dump({"names": self.names, "spans": len(self.span_name),
                       "metrics": self.metrics()}, f, indent=1)


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
