"""Spans and counts recorded at the public boundary of each cyclozeta layer.

A layer is a module.  :meth:`Tracer.install` wraps every public function of
each layer module, under every name any cyclozeta module holds it by (so
``dmr.quasi_shuffle`` and ``regularization.shuffle_words`` are traced like
the originals, and recursion through a module global is traced too), plus
``TruncatedSeries.__mul__`` as ``series.mul``.  Each call records a span
``(id, function, parent id, start, end)``.  :meth:`Tracer.end_pass` reads
the times on a given clock (the paced clock of :mod:`pace`); self time is
a span's duration minus the durations of its child spans.  Spans stay in
memory until :meth:`Tracer.dump`.  :meth:`Tracer.uninstall` restores every
name it replaced.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy

PACKAGE = "cyclozeta"
LAYERS = ("numeval", "algebra", "regularization", "dmr", "series", "duality",
          "relations", "cli")
COUNTS = ("numeval.eval_word.lookups", "numeval.low_precision", "algebra.terms_out",
          "dmr.grouplike_check.pairs")
MAXIMA = ("numeval.tail_bound_max",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._fids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: dict = defaultdict(float)
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []
        # strong keys: a map freed mid-pass must still count its words
        self._words: dict = {}
        self._origin = time.perf_counter()
        self._pass_start = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        # every layer gets its labels, also one this workload never imports
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers: dict[int, tuple] = {}
        for layer, module in layers.items():
            for name, obj in vars(module).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                label = f"{layer}.{name}"
                wrappers[id(obj)] = (obj, self._span(label, obj, self._post(label)))
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, name, hit[1])
        series_cls = layers["series"].TruncatedSeries
        self._patch(series_cls, "__mul__",
                    self._span("series.mul", series_cls.__mul__, None))
        zmap_cls = layers["numeval"].NumericZMap
        self._patch(zmap_cls, "eval_word_detailed",
                    self._word_counter(zmap_cls.eval_word_detailed))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _span(self, label: str, fn, post):
        fid = self._fids.setdefault(label, len(self.names))
        if fid == len(self.names):
            self.names.append(label)
        stack, record, ids = self._stack, self.spans.append, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((sid, fid, parent, start, end))
            if post is not None:
                post(result)
            return result

        return traced

    def _post(self, label: str):
        counts, maxima = self.counts, self.maxima
        if label == "numeval.polylog_numeric":
            def post(value):
                counts["numeval.low_precision"] += bool(value.low_precision)
                maxima["numeval.tail_bound_max"] = max(
                    maxima["numeval.tail_bound_max"], value.tail_bound)
            return post
        if label in ("algebra.shuffle", "algebra.quasi_shuffle"):
            def post(element):
                counts["algebra.terms_out"] += len(element.terms)
            return post
        if label == "dmr.grouplike_check":
            def post(report):
                counts["dmr.grouplike_check.pairs"] += report.pairs_checked
            return post
        return None

    def _word_counter(self, fn):
        counts, words = self.counts, self._words

        def eval_word_detailed(zmap, word):
            counts["numeval.eval_word.lookups"] += 1
            words.setdefault(id(zmap), (zmap, set()))[1].add(word)
            return fn(zmap, word)

        return eval_word_detailed

    # -- per-pass statistics -------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counts.clear()
        self.maxima.clear()
        self._words.clear()

    def end_pass(self, clock) -> dict:
        """Per-function ``calls``, ``self_s`` and ``p50_ms`` of the spans
        recorded since :meth:`begin_pass`, timed on ``clock`` (a vectorised
        map from ``perf_counter`` readings to seconds), plus the boundary
        counts."""
        rows = self.spans[self._pass_start:]
        fids = numpy.array([row[1] for row in rows], dtype=int)
        durations = (clock(numpy.array([row[4] for row in rows], dtype=float))
                     - clock(numpy.array([row[3] for row in rows], dtype=float)))
        own = numpy.zeros(len(self.names))
        numpy.add.at(own, fids, durations)
        fid_of = {row[0]: row[1] for row in rows}
        children = [n for n, row in enumerate(rows) if row[2] >= 0]
        numpy.subtract.at(own, [fid_of[rows[n][2]] for n in children], durations[children])
        calls = numpy.bincount(fids, minlength=len(self.names))
        stats: dict = {}
        for fid, label in enumerate(self.names):
            mine = durations[fids == fid]
            stats[f"{label}.calls"] = int(calls[fid])
            stats[f"{label}.self_s"] = float(own[fid])
            stats[f"{label}.p50_ms"] = 1e3 * float(numpy.median(mine)) if len(mine) else 0.0
        stats.update({key: self.counts[key] for key in COUNTS})
        stats.update({key: self.maxima[key] for key in MAXIMA})
        lookups = self.counts["numeval.eval_word.lookups"]
        words = sum(len(seen) for _, seen in self._words.values())
        stats["numeval.eval_word.words"] = words
        stats["numeval.eval_word.hit_ratio"] = 1 - words / lookups if lookups else 0.0
        return stats

    def dump(self, path) -> None:
        """Write every span as ``[id, function, parent, start_us, end_us]``,
        times in microseconds from the tracer's creation."""
        origin = self._origin
        rows = [[sid, fid, parent, round(1e6 * (start - origin)),
                 round(1e6 * (end - origin))]
                for sid, fid, parent, start, end in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["id", "function", "parent", "start_us", "end_us"],
                       "spans": rows}, fh, separators=(",", ":"))
