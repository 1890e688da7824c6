"""Spans and counters recorded from outside the program.

A traced run makes two passes over the same calls, each in a fresh worker.

* `install_spans` replaces the public functions of each `chatelet` module in
  the namespaces where the other modules look them up, so a call from one
  layer into another opens a span.  Every span is a call made a few dozen
  times per surface at most, so the spans barely slow the run and the layer
  times and their shares stay close to those of an untraced run.
* `install_counters` counts what happens too often for a span each: the
  character evaluations, the enumerator's points and the GF(2) helpers, whose
  time it also takes.  These wrappers sit inside the enumerator's inner loop
  and slow it by a third, so no layer time is read from this pass.

The program's source is untouched.  Spans are kept in memory as lists ``[id,
name, start, end, parent, call, tag]``; `write_spans` writes them out once the
run is over, and `span_metrics` and `counter_metrics` derive the per-layer
figures.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

_ID, _NAME, _START, _END, _PARENT, _CALL, _TAG = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.call_id = -1
        self.counts: Counter = Counter()
        self.gf2_s = 0.0
        self.char_evals = [0]
        self.candidates: frozenset = frozenset()

    def spanned(self, name: str, fn: Callable, tag: Callable = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), name, 0.0, 0.0, stack[-1][_ID] if stack else -1,
                   self.call_id, tag(args) if tag else None]
            spans.append(rec)
            stack.append(rec)
            rec[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()

        return wrapper

    def gf2(self, fn: Callable, count_misses: bool = False) -> Callable:
        clock, counts = time.perf_counter, self.counts

        def wrapper(*args):
            t0 = clock()
            out = fn(*args)
            self.gf2_s += clock() - t0
            counts["gf2.calls"] += 1
            if count_misses:
                counts["member.calls"] += 1
                if not out:
                    counts["member.misses"] += 1
            return out

        return wrapper

    def counted_points(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts["points"] += n

        return wrapper

    def counted_char_fn(self, fn: Callable) -> Callable:
        tally = self.char_evals

        def wrapper(d, place):
            ev = fn(d, place)

            def counted(x):
                tally[0] += 1
                return ev(x)

            return counted

        return wrapper


def install_spans(tracer: Tracer, chatelet) -> Dict[str, Callable]:
    """Wrap the module functions of `chatelet` at their call sites and return
    the traced entry points ``{"local": ..., "global": ...}``."""
    from chatelet import globalchow, local, norms

    t = tracer
    classify = t.spanned("norms.classify_extension", norms.classify_extension)
    for module in (local, norms):
        module.classify_extension = classify
    norms.hilbert_symbol = t.spanned("padic.hilbert_symbol", norms.hilbert_symbol)

    local.normalize_roots = t.spanned("local.normalize", local.normalize_roots)
    local.characteristic_subgroup = t.spanned("local.enumerator", local.characteristic_subgroup)
    local.special_fiber_images = t.spanned("local.special_fibers", local.special_fiber_images)
    local.classify_case = t.spanned("local.classifier", local.classify_case)

    def candidates(fn):
        def wrapper(*args):
            out = fn(*args)
            t.candidates = frozenset(out)
            return out
        return wrapper

    globalchow.candidate_places = t.spanned(
        "globalchow.candidate_places", candidates(globalchow.candidate_places)
    )
    globalchow.local_chow = t.spanned(
        "local.local_chow", globalchow.local_chow,
        tag=lambda args: "candidate" if args[4] in t.candidates else "sampled",
    )
    globalchow.factorize = t.spanned("factorint.factorize", globalchow.factorize)
    globalchow.primes_below = t.spanned("factorint.primes_below", globalchow.primes_below)
    globalchow.kernel_dimension = t.spanned("globalchow.kernel", globalchow.kernel_dimension)
    return {
        "local": t.spanned("local.local_chow", chatelet.local_chow),
        "global": t.spanned("globalchow.global_chow", chatelet.global_chow),
    }


def install_counters(tracer: Tracer, chatelet) -> Dict[str, Callable]:
    """Wrap the character evaluators, the enumerator's point generator and the
    GF(2) helpers with counters; the entry points are the program's own."""
    from chatelet import globalchow, local, norms

    t = tracer
    char_fn = t.counted_char_fn(norms.norm_char_fn)
    for module in (local, norms):
        module.norm_char_fn = char_fn
    local.characteristic_points = t.counted_points(local.characteristic_points)
    local.member = t.gf2(local.member, count_misses=True)
    local.reduce_rows = t.gf2(local.reduce_rows)
    globalchow.gf2_rank = t.gf2(globalchow.gf2_rank)
    return {"local": chatelet.local_chow, "global": chatelet.global_chow}


def write_spans(tracer: Tracer, path: str) -> None:
    keys = ("id", "name", "start", "end", "parent", "call", "tag")
    with open(path, "w") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def span_metrics(tracer: Tracer, surfaces: int) -> Dict[str, float]:
    """Per-layer times and call counts per surface (top-level call), from the
    spans.  Self time is a span's duration minus its child spans; it includes
    the GF(2) helpers, which have no spans."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[_PARENT] >= 0:
            child[rec[_PARENT]] += rec[_END] - rec[_START]
    incl: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for rec in spans:
        key = rec[_NAME] if rec[_TAG] is None else f"{rec[_NAME]}:{rec[_TAG]}"
        dur = rec[_END] - rec[_START]
        for k in {rec[_NAME], key}:
            incl[k] += dur
            own[k] += dur - child[rec[_ID]]
            calls[k] += 1
    per = 1.0 / surfaces
    ms = 1000.0 * per
    return {
        "local.local_chow.calls": calls["local.local_chow"] * per,
        "local.local_chow.self_ms": own["local.local_chow"] * ms,
        "local.enumerator.ms": incl["local.enumerator"] * ms,
        "local.classifier.ms": incl["local.classifier"] * ms,
        "local.special_fibers.ms": incl["local.special_fibers"] * ms,
        "local.normalize.ms": incl["local.normalize"] * ms,
        "norms.classify_extension.calls": calls["norms.classify_extension"] * per,
        "norms.classify_extension.ms": incl["norms.classify_extension"] * ms,
        "padic.hilbert_symbol.calls": calls["padic.hilbert_symbol"] * per,
        "padic.hilbert_symbol.ms": incl["padic.hilbert_symbol"] * ms,
        "factorint.factorize.calls": calls["factorint.factorize"] * per,
        "factorint.factorize.ms": incl["factorint.factorize"] * ms,
        "factorint.primes_below.ms": incl["factorint.primes_below"] * ms,
        "globalchow.candidate_places.self_ms": own["globalchow.candidate_places"] * ms,
        "globalchow.candidate_local.ms": incl["local.local_chow:candidate"] * ms,
        "globalchow.sampled_check.ms": incl["local.local_chow:sampled"] * ms,
        "globalchow.sampled_primes": calls["local.local_chow:sampled"] * per,
        "globalchow.kernel.ms": incl["globalchow.kernel"] * ms,
        "globalchow.global_chow.self_ms": own["globalchow.global_chow"] * ms,
    }


def counter_metrics(tracer: Tracer, surfaces: int, cache_hits: int, cache_lookups: int) -> Dict[str, float]:
    """Per-surface counts from the counters, the GF(2) time, and the hit ratio
    of the character cache over the given lookups."""
    counts = tracer.counts
    per = 1.0 / surfaces
    member_calls = counts["member.calls"]
    return {
        "local.enumerator.points": counts["points"] * per,
        "local.enumerator.span_growth_ratio": (
            counts["member.misses"] / member_calls if member_calls else 0.0
        ),
        "norms.char_evals": tracer.char_evals[0] * per,
        "norms.char_fn.cache_hit_ratio": cache_hits / cache_lookups if cache_lookups else 0.0,
        "gf2.calls": counts["gf2.calls"] * per,
        "gf2.ms": tracer.gf2_s * 1000.0 * per,
    }
