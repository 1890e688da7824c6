"""Checks on the answers of a run, made after the timed phase.

Two kinds of check apply to every call:

* pinned answers recorded from a known-good commit by `pin.py`: for each
  pinned seed, a digest of every call's inputs together with the pinned part
  of its answer, in corpus order.  For a local call that part is the case
  label and the canonical generators, for a global call ``kernel_dim``,
  ``checked_places`` and the order and generators at each place.  A changed
  corpus shows up as a mismatch, never as a silently skipped check;
* seed-independent invariants: generators sum to zero and are independent,
  ``order == 2**dim == predicted_order``, the sampled primes avoid the
  candidate places, and ``kernel_dim`` is at most the sum of the local
  dimensions.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from corpus import input_key

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def pins_key(workload: str, seed: int, quick: bool) -> str:
    return f"{workload}:{seed}{':quick' if quick else ''}"


def pin(call: Dict, answer: Dict) -> str:
    text = input_key(call) + "=" + pinned_part(call, answer)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def pinned_part(call: Dict, answer: Dict) -> str:
    """The fields of an answer that the pins fix, as canonical text."""
    if call["kind"] == "local":
        fields = [answer["case"], answer["gens"]]
    else:
        fields = [
            answer["kernel_dim"],
            answer["checked"],
            [[a["place"], a["order"], a["gens"]] for a in answer["places"]],
        ]
    return json.dumps(fields, separators=(",", ":"))


def load_pins(path: Path = PINS_PATH) -> Dict[str, List[str]]:
    with open(path) as fh:
        return json.load(fh)


def _rank(vectors: List[List[int]]) -> int:
    span = {0}
    for v in vectors:
        bits = v[0] << 2 | v[1] << 1 | v[2]
        span |= {s ^ bits for s in span}
    return len(span).bit_length() - 1


def _local_problems(a: Dict) -> List[str]:
    out = []
    gens = a["gens"]
    if any(sum(g) % 2 for g in gens):
        out.append(f"a generator does not sum to zero at {a['place']}: {gens}")
    if _rank(gens) != len(gens) or len(gens) != a["dim"]:
        out.append(f"generators at {a['place']} are not a basis of dimension {a['dim']}: {gens}")
    if not a["order"] == 2 ** a["dim"] == a["predicted"]:
        out.append(
            f"order {a['order']}, 2**dim {2 ** a['dim']} and predicted order "
            f"{a['predicted']} disagree at {a['place']}"
        )
    return out


def problems(call: Dict, answer: Dict, pinned: Optional[str]) -> List[str]:
    """Everything wrong with one answer; empty when it passes every check.
    ``pinned`` is the call's pin, or None where no pin was recorded."""
    if "error" in answer:
        return [f"raised {answer['error']}"]
    if call["kind"] == "local":
        out = _local_problems(answer)
    else:
        out = [p for a in answer["places"] for p in _local_problems(a)]
        clash = set(map(str, answer["sampled"])) & set(answer["checked"])
        if clash:
            out.append(f"sampled primes {sorted(clash)} are also candidate places")
        total = sum(a["dim"] for a in answer["places"])
        if answer["kernel_dim"] > total:
            out.append(f"kernel_dim {answer['kernel_dim']} exceeds the local dimensions' sum {total}")
    if pinned is not None and pinned != pin(call, answer):
        out.append(f"input or answer differs from the pinned one; answer {pinned_part(call, answer)}")
    return out
