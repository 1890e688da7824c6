"""Benchmark of chatelet's documented entry points, `local_chow` and `global_chow`.

    python3 perfbench/run.py --workload local-deep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
``--seconds`` defaults to BENCHMARK.json's ``run_seconds``.  Each workload is
a closed loop: one client in one single-threaded worker process, started fresh
so the program's caches begin cold, sends the next call when the previous one
returns.  Whole rounds of the seeded corpus run until ``--seconds`` have
passed and at least 100 calls are done, so that ten calls lie beyond the 90th
latency percentile, or until the corpus runs out: a program fast enough to
finish it early is measured on fewer seconds, never on calls without a pinned
answer.  Answers are checked after the timed phase against the pinned answers
and invariants (`verify.py`); a call that raises or answers wrongly counts as
failed.

Every time is scaled to a reference speed, so the units ``ref-ms`` and
``1/ref-s`` are milliseconds and calls per second at that speed, and
``setup_s`` is in seconds at that speed too.  The machines this runs on are
shared, and the speed they give one process drifts by 10-20 % within seconds;
a fixed loop timed in the same process (`worker.reference`) drifts with it.
A call's time is multiplied by REFERENCE_MS over the median of the loop times
around it, and a set-up time by SETUP_REFERENCE_MS over the loop time the
launched interpreter measures right after its import.  This cuts the
run-to-run spread of the timing metrics about threefold.  The raw figures are
printed beside the scaled ones and kept, with the result, in ``out/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics from two passes over the same calls in fresh workers
(`tracing.py`): spans at every layer boundary for half of ``--seconds``, then
counters on the calls the first pass made.  It then replays those calls
untraced, to measure the overhead of the spans and to check that traced and
untraced runs give the same answers.  ``--workload all`` runs every workload
in turn.  ``--quick`` runs tiny corpora for the benchmark's self-test
(`selftest.py`).

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import corpus
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

SETUP_LAUNCHES = 15
QUICK_SETUP_LAUNCHES = 3
MIN_CALLS = 100
# Nominal times for worker.reference, near what it takes on the 2-core machine
# the benchmark was sized on: in a worker, and in a freshly launched
# interpreter, where the same loop runs slower.  Constants, so scaled times
# stay comparable between commits and runs.
REFERENCE_MS = 2.2
SETUP_REFERENCE_MS = 3.7
CHILD_TIMEOUT_S = 170
# Prints the moment the import returned, then the median of five reference
# loops timed right after it.
_SETUP_CODE = """import sys, time
sys.path.insert(0, sys.argv[1])
import chatelet
done = time.monotonic()
sys.path.insert(0, sys.argv[2])
import statistics, worker
print(done, statistics.median(worker.reference() for _ in range(5)))
"""


def measure_setup(launches: int) -> Tuple[float, float]:
    """Median time from interpreter launch until `import chatelet` returns,
    scaled and raw, in seconds."""
    scaled, raw = [], []
    for _ in range(launches):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        end, ref_s = map(float, done.stdout.split())
        raw.append(end - t0)
        scaled.append(raw[-1] * SETUP_REFERENCE_MS / (1000.0 * ref_s))
    return statistics.median(scaled), statistics.median(raw)


def run_worker(job: Dict, timeout: float = CHILD_TIMEOUT_S) -> Dict:
    done = subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout)


def find_failures(calls: List[Dict], answers: List[Dict], pins: List[str]) -> Dict[int, List[str]]:
    """The problems of each failed call.  With pins, a call beyond them fails:
    a corpus longer than its pins would leave answers unchecked."""
    found = {}
    for i, (call, ans) in enumerate(zip(calls, answers)):
        bad = verify.problems(call, ans, pins[i] if i < len(pins) else None)
        if pins and i >= len(pins):
            bad.append("no pinned answer for this call")
        if bad:
            found[i] = bad
    return found


def scaled_latencies(res: Dict) -> List[float]:
    """Latencies scaled by REFERENCE_MS over the median of the six reference
    times nearest each call (before it: three, after it: three)."""
    ref = res["reference_ms"]
    return [
        t * REFERENCE_MS / statistics.median(ref[max(0, i - 2) : i + 4])
        for i, t in enumerate(res["latencies_ms"])
    ]


def _fmt(value: float) -> str:
    return repr(float(value))


def bench(workload: str, seed: int, seconds: float, trace: bool, quick: bool, spec: Dict) -> Dict:
    rounds = corpus.generate(workload, seed, quick)
    calls = [c for rnd in rounds for c in rnd]
    pins = verify.load_pins().get(verify.pins_key(workload, seed, quick), [])
    min_calls = 1 if quick else MIN_CALLS
    notes: Dict[str, str] = {}
    raw: Dict[str, float] = {}
    if not trace:
        launches = QUICK_SETUP_LAUNCHES if quick else SETUP_LAUNCHES
        setup_s, raw["setup_s"] = measure_setup(launches)
        res = run_worker({"src": str(SRC), "rounds": rounds, "seconds": seconds, "trace": None,
                          "min_calls": min_calls})
        n = len(res["answers"])
        failures = find_failures(calls, res["answers"], pins)
        lat = scaled_latencies(res)
        deciles = statistics.quantiles(lat, n=10)
        raw_deciles = statistics.quantiles(res["latencies_ms"], n=10)
        busy_s, raw_busy_s = sum(lat) / 1000.0, sum(res["latencies_ms"]) / 1000.0
        values = {
            "setup_s": setup_s,
            "surfaces_per_s": (n - len(failures)) / busy_s,
            "latency_ms.p50": deciles[4],
            "latency_ms.p90": deciles[8],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        raw.update({"surfaces_per_s": (n - len(failures)) / raw_busy_s,
                    "latency_ms.p50": raw_deciles[4], "latency_ms.p90": raw_deciles[8]})
        for key, i in (("latency_ms.p50", 4), ("latency_ms.p90", 8)):
            notes[key] = f"n={n}, {sum(t > deciles[i] for t in lat)} beyond; raw {raw[key]:.3f} ms"
        notes["setup_s"] = f"median of {launches} launches; raw {raw['setup_s']:.4f} s"
        notes["surfaces_per_s"] = (f"{n - len(failures)} correct calls in {busy_s:.3f} s scaled; "
                                   f"raw {raw['surfaces_per_s']:.3f} per s")
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        spans = run_worker({"src": str(SRC), "rounds": rounds, "seconds": seconds / 2,
                            "trace": "spans", "min_calls": min_calls,
                            "spans_out": str(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")})
        n = len(spans["answers"])
        counted = run_worker({"src": str(SRC), "rounds": [calls[:n]], "seconds": None,
                              "trace": "counters", "min_calls": n})
        replay = run_worker({"src": str(SRC), "rounds": [calls[:n]], "seconds": None,
                             "trace": None, "min_calls": n})
        failures = find_failures(calls, spans["answers"], pins)
        for other in (counted, replay):
            for i, (a, b) in enumerate(zip(spans["answers"], other["answers"])):
                if a != b:
                    failures.setdefault(i, []).append(f"traced answer {a} differs from {b}")
        values = {**spans["layers"], **counted["layers"]}
        traced_s = sum(scaled_latencies(spans)) / 1000.0
        replay_s = sum(scaled_latencies(replay)) / 1000.0
        values["trace.overhead_frac"] = traced_s / replay_s - 1.0
        notes["trace.overhead_frac"] = (
            f"spans {traced_s:.3f} s over untraced {replay_s:.3f} s scaled, {n} calls"
        )
        notes["norms.char_fn.cache_hit_ratio"] = f"base: {counted['cache_lookups']} lookups"
        busy_s = sum(spans["latencies_ms"]) / 1000.0
        for name, value in spans["layers"].items():
            if name.endswith("ms"):
                notes[name] = f"{100 * value * n / 1000.0 / busy_s:.1f}% of traced time"
        names = [m["name"] for m in spec["per_layer"]]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {workload} seed {seed} trace {int(trace)}{' quick' if quick else ''}")
    if not pins:
        print(f"no pinned answers for seed {seed}: answers checked by the invariants only")
    for i, bad in sorted(failures.items()):
        for msg in bad:
            print(f"FAIL call {i} {json.dumps(calls[i])}: {msg}")
    print(f"failed_frac {_fmt(len(failures) / n)} ratio ({len(failures)}/{n} calls)")
    for name in names:
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {_fmt(values[name])} {units[name]}{note}")
    result = {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({**result, "raw": raw, "notes": notes}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*corpus.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny corpora, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "chatelet" / "__init__.py").is_file():
        print(f"no chatelet package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = bench(workload, args.seed, seconds, bool(args.trace), args.quick, spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
