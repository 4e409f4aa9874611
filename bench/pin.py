"""Pin the report digests of every benchmark command into digests.json.

    python3 bench/pin.py

Runs each command of every workload once, for every pool index of the seeded
documents, and records the SHA-256 of its report.  A report is pinned only if
the command exits 0 and its invariants hold.  Run it only on a commit whose
reports are the reference: the benchmark then fails any later change that
alters a report byte.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    spec = run.load_spec()
    workdir = run.WORK / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    pins: dict[str, str] = {}
    for name in spec["workloads"] + ["smoke"]:
        for seed in range(workloads.POOL):
            for cmd in workloads.build(name, seed, workdir):
                if cmd.label in pins:
                    continue
                out = workdir / "report.json"
                _, _, _, code = run.run_child([sys.executable, "-m", "macstab.cli", *cmd.argv], out)
                raw = out.read_bytes()
                problem = f"exit code {code}" if code else cmd.check(json.loads(raw)["report"])
                if problem:
                    print(f"{cmd.label}: {problem}; not pinned", file=sys.stderr)
                    return 1
                pins[cmd.label] = hashlib.sha256(raw).hexdigest()
                print(cmd.label, pins[cmd.label][:16], flush=True)
    (run.BENCH / "digests.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
