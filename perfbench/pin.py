"""Record the answers of the pinned seeds into `pins.json`.

    python3 perfbench/pin.py

Runs every call of every workload's corpus for each pinned seed, and the quick
corpora, through the program in this checkout, and stores one digest per call
(`verify.pin`).  Run it only on a commit whose answers are trusted: later
runs are checked against what it records.  Two worker processes run at a time;
about 30 minutes on 2 cores.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from typing import List, Tuple

import corpus
import run
import verify

# One seed's corpus takes up to about 90 s on 2 cores with both busy.
PIN_TIMEOUT_S = 1200


def record(task: Tuple[str, int, bool]) -> Tuple[str, List[str]]:
    workload, seed, quick = task
    calls = [c for rnd in corpus.generate(workload, seed, quick) for c in rnd]
    res = run.run_worker(
        {"src": str(run.SRC), "rounds": [calls], "seconds": None, "trace": None,
         "min_calls": len(calls)},
        timeout=PIN_TIMEOUT_S,
    )
    for call, answer in zip(calls, res["answers"]):
        bad = verify.problems(call, answer, None)
        if bad:
            raise RuntimeError(f"refusing to pin {json.dumps(call)}: {bad}")
    return verify.pins_key(workload, seed, quick), [
        verify.pin(call, answer) for call, answer in zip(calls, res["answers"])
    ]


def main() -> None:
    tasks = [(w, s, q) for w in corpus.WORKLOADS for s in corpus.PINNED_SEEDS for q in (False, True)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        pins = dict(pool.map(record, tasks))
    with open(verify.PINS_PATH, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(pins.items())))
        fh.write("\n}\n")


if __name__ == "__main__":
    main()
