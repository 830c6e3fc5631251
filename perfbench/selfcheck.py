"""Tiny-size self-check of the benchmark; sets no timing gate.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at a tiny size in both modes and
checks that its outputs verify, that no op fails, and that exactly the
metrics BENCHMARK.json names are printed, with its units. It also checks
that the output verifiers reject wrong outputs. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import random
import sys

import run

TINY = {"stream": 5, "fanout": 4, "shared": 2}


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(run.WORKLOADS), f"workloads {names}")
    for trace, key, units in ((False, "end_to_end", run.END_TO_END), (True, "per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(declared == units, f"{key} in BENCHMARK.json differs from run.py")
        for name in names:
            result, report = run.benchmark(
                name, seed=7, seconds=0.4, trace=trace, size=TINY[name]
            )
            where = f"{name} trace={int(trace)}"
            check(result["correct"], f"{where}: not correct: {report}")
            check(result["attempted"] >= 1 and result["failed"] == 0, f"{where}: {result}")
            printed = result["metrics"]
            check(set(printed) == set(declared), f"{where}: printed {sorted(printed)}")
            for metric, entry in printed.items():
                value = entry["value"]
                check(
                    isinstance(value, (int, float)) and math.isfinite(value),
                    f"{where}: {metric} = {value!r}",
                )
                check(entry["unit"] == declared.get(metric), f"{where}: {metric} unit")

    rng = random.Random(0)
    check(not run.Stream(3, rng).verify([(0.0, 1), (0.0, 3)], [1, 2]), "stream verifier")
    check(not run.Fanout(2, rng).verify([(0.0, 5)], [5, 6]), "fanout verifier")
    shared = run.Shared(2, rng)
    shared.next_count = 4
    ops = [run.Op(True, 0, 0, 0, 0, [(0.0, count)]) for count in (5, 4)]
    check(shared.verify_window(ops), "shared verifier rejects counts 4, 5")
    ops = [run.Op(True, 0, 0, 0, 0, [(0.0, count)]) for count in (6, 6)]
    check(not shared.verify_window(ops), "shared verifier accepts count 6 twice")

    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print(f"selfcheck: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
