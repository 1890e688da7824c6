"""Self-test of the benchmark on tiny corpora (about half a minute).

    python3 perfbench/selftest.py

Checks that

* every workload runs in quick mode with and without tracing, prints every
  metric that BENCHMARK.json names with its unit, and ends with one JSON line
  holding exactly ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the checker bites: a corrupted pin, a call without a pin, a corrupted
  generator and a too-large kernel dimension are each reported as a failure;
* the benchmark refuses to run, with a non-zero exit and no result, in a
  directory that holds only BENCHMARK.json and the benchmark's own files.

Exits non-zero on the first check that does not hold.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import corpus
import run
import verify

RUN = [sys.executable, str(run.HERE / "run.py")]


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok   {what}")


def quick_runs(spec: dict) -> None:
    for workload in corpus.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                RUN + ["--quick", "--workload", workload, "--seed", "0", "--seconds", "1",
                       "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S,
            )
            label = f"{workload} --trace {trace}"
            check(done.returncode == 0, f"{label} exits 0 ({done.stderr.strip()[-300:]})")
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label} answers are correct")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{label} reports exactly the {section} metrics with their units")
            printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
            check(all(printed.get(k) == u for k, u in expected.items()),
                  f"{label} prints every metric with its unit")
            check("failed_frac" in printed, f"{label} prints failed_frac")


def checker_bites() -> None:
    for workload in ("local-deep", "global-sampled"):
        calls = [c for rnd in corpus.generate(workload, 0, quick=True) for c in rnd]
        res = run.run_worker({"src": str(run.SRC), "rounds": [calls], "seconds": None,
                              "trace": None, "min_calls": len(calls)})
        answers = res["answers"]
        pins = verify.load_pins().get(verify.pins_key(workload, 0, True), [])
        check(len(pins) == len(calls), f"{workload}: every quick call has a pin")
        check(not run.find_failures(calls, answers, pins), f"{workload}: pinned answers match")

        corrupt = list(pins)
        corrupt[0] = "0" * len(corrupt[0])
        check(list(run.find_failures(calls, answers, corrupt)) == [0],
              f"{workload}: a corrupted pin is reported as a failure")
        check(list(run.find_failures(calls, answers, pins[:-1])) == [len(calls) - 1],
              f"{workload}: a call beyond the pins is reported as a failure")

        bad = copy.deepcopy(answers)
        places = [[a] if workload == "local-deep" else a["places"] for a in bad]
        i = next(i for i, p in enumerate(places) if p and p[0]["gens"])
        places[i][0]["gens"][0][0] ^= 1
        check(list(run.find_failures(calls, bad, [])) == [i],
              f"{workload}: a generator that no longer sums to zero is reported without pins")
    bad = copy.deepcopy(answers)
    bad[0]["kernel_dim"] = sum(a["dim"] for a in bad[0]["places"]) + 1
    check(list(run.find_failures(calls, bad, [])) == [0],
          "global-sampled: a kernel larger than the local groups is reported")


def refuses_without_program() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.SPEC_PATH, bare / run.SPEC_PATH.name)
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "local-deep",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and not done.stdout.strip(),
          "without the program the benchmark exits non-zero and prints no result")


def main() -> None:
    with open(run.SPEC_PATH) as fh:
        spec = json.load(fh)
    quick_runs(spec)
    checker_bites()
    refuses_without_program()
    print("selftest passed")


if __name__ == "__main__":
    main()
