"""One closed-loop client: runs a corpus through `chatelet` in a fresh interpreter.

Reads a job from stdin as JSON::

    {"src": ..., "rounds": [[call, ...], ...], "seconds": 30 | null,
     "min_calls": 100, "trace": null | "spans" | "counters", "spans_out": null | path}

and writes one JSON object to stdout with the per-call latencies, the answers
and the peak resident memory; with ``trace`` also the per-layer figures of
that pass (`tracing.py`).  Whole rounds run until ``seconds`` have passed and
``min_calls`` calls are done, or until the rounds run out (``seconds`` null:
every round).  Answers are turned into JSON only after the timed loop.

Before every call, and once after the last, the worker times `reference`, a
fixed loop that does not touch the program; `run.py` uses these times to
correct each call for the speed the machine gave the process at that moment.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def reference() -> float:
    """Seconds taken by a fixed loop of the int and Fraction arithmetic the
    program is made of (about 2 ms)."""
    t0 = time.perf_counter()
    acc, x = 0, Fraction(1, 3)
    for i in range(1, 20_000):
        acc += i * i % 7
        if i % 97 == 0:
            x += Fraction(i, 7)
    return time.perf_counter() - t0


def local_answer(rep) -> dict:
    return {
        "place": str(rep.place),
        "case": rep.case_label,
        "order": rep.subgroup.order,
        "dim": rep.subgroup.dim,
        "predicted": rep.predicted_order,
        "gens": [list(g) for g in rep.subgroup.basis],
    }


def global_answer(rep) -> dict:
    return {
        "kernel_dim": rep.kernel_dim,
        "checked": [str(v) for v in rep.checked_places],
        "sampled": list(rep.sampled_primes),
        "places": [local_answer(r) for r in rep.local_reports],
    }


def answer(rep) -> dict:
    if isinstance(rep, Exception):
        return {"error": f"{type(rep).__name__}: {rep}"}
    return global_answer(rep) if hasattr(rep, "kernel_dim") else local_answer(rep)


def call_args(call: dict) -> tuple:
    args = (Fraction(call["d"]), *(Fraction(c) for c in call["roots"]))
    if call["kind"] == "local":
        args += (call["place"],)
    return args


def import_chatelet(src: str):
    """Import the package from the given source tree and nowhere else."""
    sys.path.insert(0, src)
    import chatelet

    if not Path(chatelet.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"chatelet was imported from {chatelet.__file__}, not from {src}")
    return chatelet


def run(job: dict) -> dict:
    chatelet = import_chatelet(job["src"])
    rounds = [[(c["kind"], call_args(c)) for c in rnd] for rnd in job["rounds"]]
    tracer = None
    entries = {"local": chatelet.local_chow, "global": chatelet.global_chow}
    if job["trace"]:
        cache = chatelet.norm_char_fn.cache_info()
        tracer = tracing.Tracer()
        install = {"spans": tracing.install_spans, "counters": tracing.install_counters}
        entries = install[job["trace"]](tracer, chatelet)
    seconds = job["seconds"]
    latencies, references, reports = [], [], []
    clock = time.perf_counter
    start = clock()
    for rnd in rounds:
        for kind, args in rnd:
            references.append(reference())
            fn = entries[kind]
            if tracer is not None:
                tracer.call_id = len(reports)
            t0 = clock()
            try:
                rep = fn(*args)
            except Exception as exc:  # a failed call is a result to report
                rep = exc
            latencies.append(clock() - t0)
            reports.append(rep)
        if seconds is not None and clock() - start >= seconds and len(reports) >= job["min_calls"]:
            break
    references.append(reference())
    out = {
        "latencies_ms": [1000.0 * t for t in latencies],
        "reference_ms": [1000.0 * t for t in references],
        "answers": [answer(rep) for rep in reports],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if job["trace"] == "counters":
        after = chatelet.norm_char_fn.cache_info()
        hits = after.hits - cache.hits
        lookups = hits + after.misses - cache.misses
        out["layers"] = tracing.counter_metrics(tracer, len(reports), hits, lookups)
        out["cache_lookups"] = lookups
    elif job["trace"] == "spans":
        out["layers"] = tracing.span_metrics(tracer, len(reports))
        if job.get("spans_out"):
            os.makedirs(os.path.dirname(job["spans_out"]), exist_ok=True)
            tracing.write_spans(tracer, job["spans_out"])
    return out


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
