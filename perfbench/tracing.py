"""Spans recorded from outside the package, around calls into each layer.

``instrument(tracer)`` replaces selected public functions and methods of
``doubleeis`` with wrappers that record a span per call: its name, start,
end, parent span and a few attributes.  Nothing under ``src/`` changes; a
function imported by name into several modules is replaced in each of them.
Spans stay in memory and are written out when the process ends.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        """Run fn inside a new span; returns (result, span index)."""
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent, {}]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs), idx
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, annotate=None):
        def traced(*args, **kwargs):
            result, idx = self.call(name, fn, args, kwargs)
            if annotate is not None:
                self.spans[idx][4].update(annotate(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def to_json(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "attrs": a}
            for i, (n, s, e, p, a) in enumerate(self.spans)
        ]


def _replace_everywhere(original, replacement):
    """Rebind every doubleeis module attribute that is ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "doubleeis" or name.startswith("doubleeis."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def instrument(tracer: Tracer):
    """Wrap the layer entry points the per-layer metrics are read from."""
    from doubleeis import cli, eisenstein, identities, kronecker, maps, spaces

    def fn(module, attr, span, annotate=None):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(span, original, annotate))

    # spaces: relation generation, elimination, the disk cache, normal forms
    for attr in ("eisenstein_relations", "zeta_relations"):
        fn(spaces, attr, "spaces.relations",
           lambda a, k, rows: {"rows": len(rows), "nnz": sum(len(r) for r in rows)})
    fn(spaces, "_atomic_write_json", "spaces.cache_write",
       lambda a, k, r: {"bytes": Path(a[0]).stat().st_size})

    build = spaces.RelationSystem.__dict__["build"].__func__
    spaces.RelationSystem.build = classmethod(tracer.wrap(
        "spaces.build", build,
        lambda a, k, s: {"space": s.space, "weight": s.weight, "rank": s.rank,
                         "nnz": sum(len(r) for _, r in s.rref_rows)}))
    spaces.RelationSystem.normal_form = tracer.wrap(
        "spaces.normal_form", spaces.RelationSystem.normal_form)

    memo = spaces._MEMO
    original_load = spaces.relation_system

    def relation_system(*args, **kwargs):
        # only calls that load a system (build or disk read) become spans;
        # in-process memo hits happen on every normal form
        before = len(memo)
        result, idx = tracer.call("spaces.load", original_load, args, kwargs)
        loaded = len(memo) > before
        if not loaded and idx == len(tracer.spans) - 1:
            tracer.spans.pop()
        else:
            tracer.spans[idx][4]["loaded"] = loaded
        return result

    relation_system.__wrapped__ = original_load
    _replace_everywhere(original_load, relation_system)

    # maps
    for attr in ("map_pi", "map_sigma", "map_partial"):
        fn(maps, attr, "maps.apply")

    # kronecker: the depth-one table, b2, values, public realizations, Fay
    fn(kronecker, "kronecker_b1", "kronecker.b1")
    fn(kronecker, "build_b2", "kronecker.b2")
    kronecker.KroneckerRealization.value = tracer.wrap(
        "kronecker.value", kronecker.KroneckerRealization.value)
    for attr in ("realize_kronecker", "realize_element"):
        fn(kronecker, attr, "kronecker.realize",
           lambda a, k, r: {"q": k["q_order"] if "q_order" in k else a[1]})
    fn(kronecker, "fay_check", "kronecker.fay")
    fn(kronecker, "check_derivation_diagram", "kronecker.diagram")
    fn(kronecker, "closed_form_depth2", "kronecker.closed_form")

    # eisenstein: quasimodular recognition
    fn(eisenstein, "recognize_quasimodular", "eisenstein.recognize",
       lambda a, k, r: {"recognized": r is not None})

    # identities: instance constructors and the two-oracle report
    for attr in ("sum_formula", "parity_expression", "relprodandg",
                 "mfprod_i", "mfprod_ii", "ramanujan"):
        fn(identities, attr, "identities.construct")
    fn(identities, "identity_report", "identities.report")

    fn(cli, "run", "cli.run")


LAYERS = ("spaces", "maps", "kronecker", "eisenstein", "identities", "cli")
FIRST_VALUE_Q = (10, 30, 50)
BUILD_WEIGHTS = (12, 13)


def layer_metrics(span_lists: list[list[dict]]) -> dict[str, float]:
    """Per-layer times and counts from the spans of one or more processes.

    A span's self time is its duration minus the time its child spans
    cover; a layer's self time sums that over the layer's spans.
    """
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name in ("spaces.relations_s", "spaces.build_s", "spaces.rows", "spaces.rank",
                 "spaces.nnz_in", "spaces.nnz_out", "spaces.cache_write_s",
                 "spaces.cache_bytes", "spaces.cache_read_s", "spaces.normal_form_s",
                 "spaces.normal_form_calls", "maps.apply_s", "maps.calls", "kronecker.b1_s",
                 "kronecker.b2_s", "kronecker.value_s", "kronecker.values", "kronecker.fay_s",
                 "eisenstein.recognize_s", "eisenstein.recognize_calls",
                 "identities.construct_s", "identities.instances", "cli.run_s",
                 "cli.commands"):
        m[name] = 0.0
    for w in BUILD_WEIGHTS:
        m[f"spaces.build_s.w{w}"] = 0.0
    for q in FIRST_VALUE_Q:
        m[f"kronecker.first_value_s.q{q}"] = 0.0
    recognized = 0
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        built = set()
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
                if s["name"] == "spaces.build":
                    built.add(s["parent"])
        first_value: dict = {}
        for i, s in enumerate(spans):
            name, attrs = s["name"], s["attrs"]
            dur = s["end"] - s["start"]
            self_s = dur - child_time[i]
            m[name.split(".")[0] + ".self_s"] += self_s
            if name == "spaces.relations":
                parent = s["parent"]
                if parent is not None and spans[parent]["name"] == "spaces.build":
                    m["spaces.relations_s"] += dur
                    m["spaces.rows"] += attrs["rows"]
                    m["spaces.nnz_in"] += attrs["nnz"]
            elif name == "spaces.build":
                m["spaces.build_s"] += dur
                m["spaces.rank"] += attrs["rank"]
                m["spaces.nnz_out"] += attrs["nnz"]
                if attrs["space"] == "E" and attrs["weight"] in BUILD_WEIGHTS:
                    m[f"spaces.build_s.w{attrs['weight']}"] += dur
            elif name == "spaces.cache_write":
                m["spaces.cache_write_s"] += dur
                m["spaces.cache_bytes"] += attrs["bytes"]
            elif name == "spaces.load":
                if attrs.get("loaded") and i not in built:
                    m["spaces.cache_read_s"] += dur
            elif name == "spaces.normal_form":
                m["spaces.normal_form_s"] += dur
                m["spaces.normal_form_calls"] += 1
            elif name == "maps.apply":
                m["maps.apply_s"] += dur
                m["maps.calls"] += 1
            elif name in ("kronecker.b1", "kronecker.b2", "kronecker.fay"):
                m[name + "_s"] += dur
            elif name == "kronecker.value":
                m["kronecker.value_s"] += dur
                m["kronecker.values"] += 1
            elif name == "kronecker.realize":
                first_value.setdefault(attrs["q"], dur)
            elif name == "eisenstein.recognize":
                m["eisenstein.recognize_s"] += dur
                m["eisenstein.recognize_calls"] += 1
                recognized += attrs["recognized"]
            elif name == "identities.construct":
                m["identities.construct_s"] += self_s
            elif name == "identities.report":
                m["identities.instances"] += 1
            elif name == "cli.run":
                m["cli.run_s"] += dur
                m["cli.commands"] += 1
        for q in FIRST_VALUE_Q:
            if q in first_value:
                m[f"kronecker.first_value_s.q{q}"] = first_value[q]
    rows, calls = m["spaces.rows"], m["eisenstein.recognize_calls"]
    m["spaces.rank_per_row"] = m["spaces.rank"] / rows if rows else 0.0
    m["eisenstein.recognized_ratio"] = recognized / calls if calls else 0.0
    return m
