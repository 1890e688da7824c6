"""Measure the baseline of the current commit and write `baseline.json`.

    python3 perfbench/baseline.py

Runs every workload once per pinned seed with tracing off, and once with
tracing on (seed 0), through `run.py` with BENCHMARK.json's run length.  For each
end-to-end metric it records the median and quartiles over the seeds and the
spread, (q3 - q1) / median, next to the metric's bound; for each per-layer
metric the traced value and, for times, its share of the time of the spans
pass.  It checks that each workload stresses what it was built for, and records which per-layer
metric is expected to move which end-to-end metric on which workload, so a
change that claims a gain can be held to it.  About 20 minutes on 2 cores.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from typing import Dict, List

import corpus
import run

BASELINE_PATH = run.HERE / "baseline.json"

# Which end-to-end metric each per-layer metric should move, on which
# workload, and where it should leave everything unchanged.
EXPECTED_MOVES = {
    "local.enumerator.ms, local.enumerator.points, norms.char_evals": {
        "moves": [
            "surfaces_per_s and latency_ms.p90 on local-deep",
            "latency_ms.p50 on global-sampled, through the sampled check and the candidate places",
            "global-factor only in part (its sampled check)",
        ],
    },
    "local.enumerator.points (eager units list)": {
        "moves": ["peak_rss_mb on local-deep"],
    },
    "factorint.factorize.ms": {
        "moves": ["latency_ms.p50 and surfaces_per_s on global-factor"],
        "unchanged": ["local-deep (never calls it)", "global-sampled (under 1 % of its time)"],
    },
    "globalchow.sampled_check.ms": {
        "moves": ["surfaces_per_s on global-sampled and on global-factor"],
        "unchanged": ["local-deep"],
    },
    "globalchow.candidate_local.ms": {
        "moves": ["latency_ms.p90 on global-sampled (ramified candidates at 2, 3 and 5)"],
    },
    "norms.classify_extension.calls, local.classifier.ms, local.special_fibers.ms": {
        "moves": ["their own counts only (housekeeping dedupes); each is under 2 % of every workload"],
        "unchanged": ["every end-to-end metric"],
    },
    "setup_s": {
        "moves": ["only with the import chain in chatelet/__init__"],
    },
}


# What each workload was built to stress, as a test on the traced shares.
STRESS_CHECKS = {
    "local-deep": ("local.enumerator.ms is at least 90 % of the time",
                   lambda s: s["local.enumerator.ms"] >= 0.9),
    "global-sampled": ("globalchow.sampled_check.ms exceeds globalchow.candidate_local.ms",
                       lambda s: s["globalchow.sampled_check.ms"] > s["globalchow.candidate_local.ms"]),
    "global-factor": ("factorint.factorize.ms is the largest share of every per-layer time",
                      lambda s: s["factorint.factorize.ms"] == max(s.values())),
}
_SHARE = re.compile(r"^(\S+) \S+ \S+ \(([\d.]+)% of traced time\)")


def _run(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=900,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} calls failed")
    result["shares"] = {
        m.group(1): float(m.group(2)) / 100 for m in map(_SHARE.match, done.stdout.splitlines()) if m
    }
    return result


def _summary(values: List[float], bound: float) -> Dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "bound": bound, "values": values}


def main() -> None:
    with open(run.SPEC_PATH) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                          capture_output=True, text=True)
    out = {
        "commit": head.stdout.strip() or "unknown",
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}",
        "run_seconds": seconds,
        "seeds": list(corpus.PINNED_SEEDS),
        "end_to_end": {},
        "per_layer": {},
        "per_layer_share": {},
        "stress_checks": {},
        "expected_moves": EXPECTED_MOVES,
    }
    for workload in corpus.WORKLOADS:
        results = [_run(workload, seed, seconds, 0) for seed in corpus.PINNED_SEEDS]
        out["end_to_end"][workload] = {
            name: _summary([r["metrics"][name]["value"] for r in results], bound)
            for name, bound in bounds.items()
        }
        out["end_to_end"][workload]["attempted"] = [r["attempted"] for r in results]
        traced = _run(workload, 0, seconds, 1)
        out["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["per_layer_share"][workload] = traced["shares"]
        claim, test = STRESS_CHECKS[workload]
        out["stress_checks"][workload] = {"check": claim, "holds": test(traced["shares"])}
        print(f"{workload} stress check: {claim}: {test(traced['shares'])}", flush=True)
        for name, s in out["end_to_end"][workload].items():
            if name != "attempted":
                print(f"{workload} {name} median {s['median']:.6g} spread {s['spread']:.4f} "
                      f"bound {s['bound']}", flush=True)
    with open(BASELINE_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
