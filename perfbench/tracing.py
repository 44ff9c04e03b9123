"""Spans and counts around the library functions that ``eulersums.cli`` calls.

``Tracer.install`` replaces, for the life of one run, the names that the CLI
resolves at call time: ``cli.main``, ``cli.parse_index``, ``cli.expand_t1``,
``cli.expand_t2``, ``cli.reduce_lincomb``, ``cli.load_identity_table``,
``numerics.eval_euler_sum_best``, ``numerics.eval_lincomb_best`` and the
``LinComb`` emitters.  Each call records a span (name, layer, start, end,
parent, request id); counts are taken at the same boundaries.  Spans stay in
memory until ``write``.  The tracing overhead is the time spent in the
wrappers outside the wrapped calls; the Python call into each wrapper, well
under a microsecond, is not counted.  The ``combinatorics`` module is only
called from inside expansion and reduction, so its time is part of their
spans.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "indices", "expansion", "algebra", "reduction", "numerics")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, str, float, float, int | None, int | None]] = []
        self._stack: list[int] = []
        self.request: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self._atoms_seen: set = set()
        self._restore: list[tuple[object, str, object]] = []
        # Time spent in the wrappers outside the wrapped calls: span and
        # count bookkeeping, measured where it happens.
        self.overhead_s = 0.0

    # -- spans ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            parent = tracer._stack[-1] if tracer._stack else None
            sid = len(tracer.spans)
            tracer.spans.append((name, layer, 0.0, 0.0, parent, tracer.request))
            tracer._stack.append(sid)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (name, layer, start, end, parent, tracer.request)
                if count is not None:
                    count(args, kwargs, result, exc)
                tracer.overhead_s += start - enter + time.perf_counter() - end

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, name: str, layer: str, count=None):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, layer, count))

    def install(self, cli, numerics, lincomb_cls, expansion_errors) -> None:
        c = self.counts

        def on_main(args, kwargs, rc, exc):
            c["cli.nonzero_exits"] += exc is not None or rc != 0

        def on_parse(args, kwargs, result, exc):
            c["indices.parse_calls"] += 1

        def on_t1(args, kwargs, lc, exc):
            c["expansion.t1_terms"] += len(lc) if lc is not None else 0

        def on_t2(args, kwargs, lc, exc):
            c["expansion.t2_calls"] += 1
            c["expansion.t2_refused"] += isinstance(exc, expansion_errors)

        def on_emit(args, kwargs, result, exc):
            c["algebra.emit_terms"] += len(args[0])

        def on_reduce(args, kwargs, res, exc):
            c["reduction.calls"] += 1
            c["reduction.terms_in"] += len(args[0])
            if res is not None:
                c["reduction.steps"] += res.steps
                c["reduction.terms_out"] += len(res.value)

        def on_table(args, kwargs, result, exc):
            c["reduction.table_loads"] += 1

        def tolerance(fn, args, kwargs) -> float:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments["target_tol"]

        series_fn = numerics.eval_euler_sum_best
        lincomb_fn = numerics.eval_lincomb_best

        def on_series(args, kwargs, res, exc):
            c["numerics.series_calls"] += 1
            if res is not None:
                c["numerics.series_terms"] += res.terms_used
                c["numerics.series_capped"] += res.terms_used >= numerics.N_MAX
                c["numerics.tol_missed"] += res.tail_bound > tolerance(series_fn, args, kwargs)

        def on_lincomb(args, kwargs, res, exc):
            lc = args[0]
            c["numerics.lincomb_calls"] += 1
            c["numerics.lincomb_max_terms"] = max(c["numerics.lincomb_max_terms"], len(lc))
            atoms = lc.atoms()
            c["numerics.atoms_requested"] += len(atoms)
            c["numerics.atoms_repeated"] += len(atoms & self._atoms_seen)
            self._atoms_seen |= atoms
            if res is not None:
                c["numerics.tol_missed"] += res.tail_bound > tolerance(lincomb_fn, args, kwargs)

        self._patch(cli, "main", "cli.main", "cli", on_main)
        self._patch(cli, "parse_index", "parse_index", "indices", on_parse)
        self._patch(cli, "expand_t1", "expand_t1", "expansion", on_t1)
        self._patch(cli, "expand_t2", "expand_t2", "expansion", on_t2)
        self._patch(cli, "reduce_lincomb", "reduce_lincomb", "reduction", on_reduce)
        self._patch(cli, "load_identity_table", "load_identity_table", "reduction", on_table)
        self._patch(numerics, "eval_euler_sum_best", "eval_euler_sum_best", "numerics", on_series)
        self._patch(numerics, "eval_lincomb_best", "eval_lincomb_best", "numerics", on_lincomb)
        for emitter in ("render", "to_json_terms", "latex"):
            self._patch(lincomb_cls, emitter, "LinComb." + emitter, "algebra", on_emit)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reports ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time of child spans."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, req in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, layer, start, end, parent, req), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def layer_self_times(self) -> dict[str, float]:
        layer_of = {name: layer for name, layer, *_ in self.spans}
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_times().items():
            out[layer_of[name]] += t
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, named as in BENCHMARK.json."""
        st = self.self_times()
        layers = self.layer_self_times()
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        t1_s, reduce_s = st["expand_t1"], st["reduce_lincomb"]
        return {
            "cli.self_s": layers["cli"],
            "cli.nonzero_exits": c["cli.nonzero_exits"],
            "indices.parse_s": layers["indices"],
            "indices.parse_calls": c["indices.parse_calls"],
            "expansion.self_s": layers["expansion"],
            "expansion.t1_s": t1_s,
            "expansion.t1_terms": c["expansion.t1_terms"],
            "expansion.t1_terms_per_s": ratio(c["expansion.t1_terms"], t1_s),
            "expansion.t2_s": st["expand_t2"],
            "expansion.t2_calls": c["expansion.t2_calls"],
            "expansion.t2_refused_frac": ratio(c["expansion.t2_refused"], c["expansion.t2_calls"]),
            "algebra.emit_s": layers["algebra"],
            "algebra.emit_terms": c["algebra.emit_terms"],
            "reduction.self_s": layers["reduction"],
            "reduction.reduce_s": reduce_s,
            "reduction.steps": c["reduction.steps"],
            "reduction.steps_per_s": ratio(c["reduction.steps"], reduce_s),
            "reduction.terms_in": c["reduction.terms_in"],
            "reduction.terms_out": c["reduction.terms_out"],
            "reduction.table_load_s": st["load_identity_table"],
            "reduction.table_loads": c["reduction.table_loads"],
            "numerics.self_s": layers["numerics"],
            "numerics.series_s": st["eval_euler_sum_best"],
            "numerics.series_terms": c["numerics.series_terms"],
            "numerics.series_capped": c["numerics.series_capped"],
            "numerics.lincomb_s": st["eval_lincomb_best"],
            "numerics.lincomb_calls": c["numerics.lincomb_calls"],
            "numerics.lincomb_max_terms": c["numerics.lincomb_max_terms"],
            "numerics.atoms_requested": c["numerics.atoms_requested"],
            "numerics.atom_repeat_frac": ratio(
                c["numerics.atoms_repeated"], c["numerics.atoms_requested"]
            ),
            "numerics.tol_missed_frac": ratio(
                c["numerics.tol_missed"],
                c["numerics.series_calls"] + c["numerics.lincomb_calls"],
            ),
            "trace.overhead_s": self.overhead_s,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, layer, start, end, parent, req) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": sid, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "request": req,
                }) + "\n")
