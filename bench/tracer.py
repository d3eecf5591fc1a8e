"""Outside-in tracer: spans around calls into ``strongext``'s public functions.

``install()`` replaces every public function at every binding in the loaded
``strongext`` modules (so ``from .digraph import strong_components`` in
``extend`` is traced too), plus ``StrictDigraph.with_edges`` and
``AnalysisReport.to_json`` / ``to_text``; ``uninstall()`` puts the originals
back.  Nothing inside ``src/`` changes, and untraced runs never import this
module.  Calls between private helpers inside one module are not seen; their
time is the self time of the nearest traced caller.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

# Rendering spans, grouped as cli.render whatever module defines them.
RENDER = frozenset({
    "cli.to_json",
    "cli.to_text",
    "digraph.serialize_edge_list",
    "dicut.format_certificate",
    "extend.serialize_plan",
    "extend.serialize_bounds",
    "dice.serialize_dice",
})
SPAN_CAP = 50_000
LAYERS = ("digraph", "dicut", "extend", "dice", "cli", "render")
METHODS = (
    ("strongext.digraph", "StrictDigraph", "with_edges", "digraph.with_edges"),
    ("strongext.cli", "AnalysisReport", "to_json", "cli.to_json"),
    ("strongext.cli", "AnalysisReport", "to_text", "cli.to_text"),
)


class Tracer:
    """Span recorder.  Aggregates are exact; at most SPAN_CAP raw spans
    (name, start, end, parent index, op id) are kept for the span file."""

    def __init__(self):
        self.op = -1
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, not_none]
        self.child_calls: dict[tuple[str, str], int] = {}
        self.spans: list = []
        self.dropped = 0
        self._stack: list[list] = []  # [name, child_s, span index]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, children = self._stack, self.spans, self.child_calls
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None:
                key = (parent[0], name)
                children[key] = children.get(key, 0) + 1
            if len(spans) < SPAN_CAP:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            frame = [name, 0.0, index]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if result is not None:
                    stats[3] += 1
                if parent is not None:
                    parent[1] += duration
                if index >= 0:
                    spans[index] = (name, start, end, parent[2] if parent else -1, tracer.op)

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        wrappers: dict[int, object] = {}
        for modname, module in sorted(sys.modules.items()):
            if modname != "strongext" and not modname.startswith("strongext."):
                continue
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("strongext"):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._replace(module, attr, wrappers[id(obj)])
        for modname, cls, attr, name in METHODS:
            owner = getattr(sys.modules[modname], cls)
            self._replace(owner, attr, self._wrap(getattr(owner, attr), name))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # ------------------------------------------------------------ metrics

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_ms(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2] * 1000.0

    def total_ms(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1] * 1000.0

    def per_call(self, parent: str, child: str) -> float:
        calls = self.calls(parent)
        return self.child_calls.get((parent, child), 0) / calls if calls else 0.0

    def layer_self_ms(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s, _) in self.stats.items():
            layer = "render" if name in RENDER else name.split(".", 1)[0]
            totals[layer] += self_s * 1000.0
        return totals

    def top_self(self, count: int = 6) -> list[tuple[str, float]]:
        ranked = sorted(self.stats.items(), key=lambda item: -item[1][2])
        return [(name, s[2] * 1000.0) for name, s in ranked[:count] if s[0]]


COUNTED = (
    "digraph.strong_components",
    "digraph.weak_components",
    "digraph.with_edges",
    "digraph.parse_edge_list",
    "digraph.is_strong",
    "dicut.find_complete_dicut",
    "dicut.verify_complete_dicut",
    "extend.extend",
    "extend.bounds",
    "extend.brute_force_min_extension",
    "dice.search_balanced_realization",
)


def layer_metrics(tracer: Tracer, ops: int, op_ms: float, overhead_ratio: float) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}.

    Span times are given as shares of the traced op time: a share does not
    drift with the machine's speed, and a function a workload never calls
    has share 0 rather than a constant 0 ms.
    """
    m: dict[str, tuple[float, str]] = {}

    def share(ms: float) -> tuple[float, str]:
        return ms / op_ms, "ratio"

    for name in COUNTED:
        m[f"{name}.calls"] = (tracer.calls(name), "count")
        m[f"{name}.self_share"] = share(tracer.self_ms(name))
    m["digraph.strong_components.calls_per_op"] = (
        tracer.calls("digraph.strong_components") / ops, "calls/op")
    # inclusive times of the condensation and of the two exhaustive searches
    for name in ("digraph.strong_components", "extend.brute_force_min_extension",
                 "dice.search_balanced_realization"):
        m[f"{name}.total_share"] = share(tracer.total_ms(name))
    brute = "extend.brute_force_min_extension"
    m[f"{brute}.nodes_per_call"] = (tracer.per_call(brute, "digraph.is_strong"), "nodes/call")
    search = "dice.search_balanced_realization"
    m[f"{search}.leaves_per_call"] = (tracer.per_call(search, "dice.is_balanced"), "leaves/call")
    calls = tracer.calls(search)
    m[f"{search}.found_ratio"] = (tracer.stats[search][3] / calls if calls else 0.0, "ratio")
    m["dice.is_balanced.calls"] = (tracer.calls("dice.is_balanced"), "count")
    m["dice.beats_digraph.calls"] = (tracer.calls("dice.beats_digraph"), "count")
    m["dice.win_matrix.self_share"] = share(tracer.self_ms("dice.win_matrix"))
    m["cli.main.self_share"] = share(tracer.self_ms("cli.main"))
    m["cli.analyze.self_share"] = share(tracer.self_ms("cli.analyze"))
    layers = tracer.layer_self_ms()
    m["cli.render.self_share"] = share(layers["render"])
    for layer, total in layers.items():
        m[f"layer.{layer}.self_share"] = share(total)
    m["trace.ops"] = (ops, "count")
    m["trace.op_ms"] = (op_ms, "ms")
    m["trace.unattributed_ms"] = (op_ms - sum(layers.values()), "ms")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
