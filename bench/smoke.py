"""Smoke test of the benchmark on a tiny workload (skeleton:0 at m = 3..4).

    python3 bench/smoke.py

Runs `run.py --workload smoke` untraced and traced for one second each and
checks the shape of the result line: exactly the metrics BENCHMARK.json
declares, with their units, and every report correct.  Exits 1 on failure.
It is a script rather than a pytest module so the test suite stays free of
benchmark runs.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def check(trace: int, spec: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return [f"trace {trace}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"not correct: {proc.stderr[-500:]}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics {sorted(got.items())} != {sorted(wanted.items())}")
    if not trace and not all(result["metrics"][k]["value"] > 0 for k in wanted):
        problems.append("an end-to-end metric is not positive")
    return [f"trace {trace}: {p}" for p in problems]


def main() -> int:
    spec = run.load_spec()
    problems = check(0, spec) + check(1, spec)
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
