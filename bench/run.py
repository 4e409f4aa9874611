"""Benchmark of the macstab CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is taken from `src/`.
A run repeats the workload's command sequence, one fresh `python -m
macstab.cli` process per command, until `--seconds` are used up.  Every
report is checked against its pinned digest (`digests.json`) and against
invariants computed in `workloads.py`.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json (medians over repetitions).  With
`--trace 1` each repetition runs the sequence untraced and then through
`traced.py`, and the metrics are the per-layer ones.  Lines before the last
one record the seed, the environment and a readable table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9
REFERENCE_ITERATIONS = 15_000
REFERENCE_NICE = 5  # the reference thread gets about a quarter of the shared CPU
COMMAND_TIMEOUT_S = 150
LAYERS = ("simplicial", "perms", "linalg", "homology", "symrep", "hochster",
          "cellular", "families", "documents")
# per-layer metrics that count work; they must repeat exactly between passes
COUNTERS = ("linalg.elim_entries", "perms.subsets_visited", "perms.orbits",
            "cellular.cells", "documents.report_bytes")


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None
    spans: dict | None = None


@dataclass
class Rep:
    outcomes: list[Outcome] = field(default_factory=list)
    reference: list[tuple[float, float]] = field(default_factory=list)  # (wall s, CPU s) per loop

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)

    @property
    def errors(self) -> list[str]:
        return [o.error for o in self.outcomes if o.error]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], out_path: Path) -> tuple[float, float, float, int]:
    """Run one process to completion: (wall s, user+sys s, max RSS MB, exit code).

    os.wait4 gives the rusage of this child alone; RUSAGE_CHILDREN would
    keep a running maximum over all children.
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code


def verify(cmd: workloads.Command, out_path: Path, code: int, pins: dict) -> str | None:
    if code != 0:
        tail = out_path.with_suffix(".err").read_text(errors="replace")[-300:]
        return f"{cmd.label}: exit code {code}: {tail}"
    raw = out_path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    problems = []
    if pins.get(cmd.label) != digest:
        problems.append(f"report digest {digest[:12]} is not the pinned one")
    try:
        problems.append(cmd.check(json.loads(raw)["report"]))
    except (ValueError, KeyError, TypeError) as err:
        problems.append(f"malformed report ({err!r})")
    problems = [p for p in problems if p]
    return f"{cmd.label}: {'; '.join(problems)}" if problems else None


def run_rep(commands, workdir: Path, pins: dict, traced: bool, reference: bool = False) -> Rep:
    """One pass over the command sequence; outputs are checked after timing.

    With `reference`, reference loops run beside every command."""
    rep = Rep()
    runs = []
    for k, cmd in enumerate(commands):
        out = workdir / f"out{k}{'-traced' if traced else ''}.json"
        if traced:
            spans = workdir / f"spans{k}.json"
            argv = [sys.executable, str(BENCH / "traced.py"), str(spans), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "macstab.cli", *cmd.argv]
        with reference_beside(rep.reference) if reference else nullcontext():
            runs.append((cmd, out, run_child(argv, out)))
    for k, (cmd, out, (wall, cpu, rss, code)) in enumerate(runs):
        outcome = Outcome(wall, cpu, rss, verify(cmd, out, code, pins))
        if traced and outcome.error is None:
            outcome.spans = json.loads((workdir / f"spans{k}.json").read_text())
        rep.outcomes.append(outcome)
    return rep


def reference_loop() -> tuple[float, float]:
    """Fixed pure-Python work timed in this thread: (wall s, CPU s).

    Fraction arithmetic and frozenset hashing are the staples of macstab's
    kernels.  The loop shares no code with the program, so a change to
    macstab cannot move it, while the speed the host gives this CPU at the
    moment moves both.
    """
    wall, cpu = perf_counter(), thread_time()
    acc, seen = Fraction(0), set()
    for i in range(REFERENCE_ITERATIONS):
        acc += Fraction(i % 7, 3)
        seen.add(frozenset((i % 97, i % 89, i % 83)))
    return perf_counter() - wall, thread_time() - cpu


@contextmanager
def reference_beside(samples: list[tuple[float, float]]):
    """Run reference loops in a thread for the duration of the block.

    This thread, the loop's thread and any child started in the block are
    pinned to one CPU, so the command and the loop take turns on it and see
    the same host contention.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    stop = threading.Event()

    def loop():
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), REFERENCE_NICE)
        samples.append(reference_loop())  # at least one sample, however short the block
        while not stop.is_set():
            samples.append(reference_loop())

    thread = threading.Thread(target=loop)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()
        os.sched_setaffinity(0, allowed)


def probe_inputs(commands) -> list[dict]:
    """The inputs the commands resolve: document paths, or family and ranks."""
    items = []
    for cmd in commands:
        argv = list(cmd.argv)
        if "--input" in argv:
            items.append({"input": argv[argv.index("--input") + 1]})
        else:
            lo, _, hi = argv[argv.index("--m") + 1].partition("..")
            items.append({"family": argv[argv.index("--family") + 1],
                          "ms": list(range(int(lo), int(hi or lo) + 1))})
    return items


class SetupProbe:
    """Times the set-up probe child; failures are kept as error messages."""

    def __init__(self, commands, workdir: Path):
        path = workdir / "probe.json"
        path.write_text(json.dumps(probe_inputs(commands)))
        self.argv = [sys.executable, str(BENCH / "probe.py"), str(path)]
        self.out = workdir / "probe.out"
        self.times: list[float] = []
        self.errors: list[str] = []
        self.attempted = 0

    def run(self, count: int, record: bool = True) -> None:
        for _ in range(count):
            wall, _, _, code = run_child(self.argv, self.out)
            self.attempted += 1
            if code != 0:
                self.errors.append(f"set-up probe: exit code {code}")
            elif record:
                self.times.append(wall)


# -- per-layer aggregation -------------------------------------------------------


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (one span record per command)."""
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    per_m: dict[tuple[int, int], float] = {}
    counters: dict[str, int] = {}
    hits = misses = 0
    unnamed = 0.0
    for k, rec in enumerate(records):
        spans = rec["spans"]
        covered = [0.0] * len(spans)
        for name, s, e, parent, _ in spans:
            if parent >= 0:
                covered[parent] += e - s
        roots = 0.0
        for i, (name, s, e, parent, m) in enumerate(spans):
            incl[name] = incl.get(name, 0.0) + (e - s)
            calls[name] = calls.get(name, 0) + 1
            self_s[name.split(".")[0]] += (e - s) - covered[i]
            if parent < 0:
                roots += e - s
            if m is not None:
                per_m[(k, m)] = per_m.get((k, m), 0.0) + (e - s)
        unnamed += rec["main_s"] - roots
        for key, value in rec["counters"].items():
            counters[key] = counters.get(key, 0) + value
        hits += rec["cache"]["hits"]
        misses += rec["cache"]["misses"]

    ranks: dict[int, list[int]] = {}
    for k, m in per_m:
        ranks.setdefault(k, []).append(m)
    first_m = sum(per_m[(k, min(ms))] for k, ms in ranks.items())
    last_m = sum(per_m[(k, max(ms))] for k, ms in ranks.items())
    out = {
        "homology.basis_s": incl.get("homology.basis", 0.0),
        "homology.basis_builds": calls.get("homology.basis", 0),
        "linalg.rank_calls": calls.get("linalg.rank", 0),
        "linalg.extend_calls": calls.get("linalg.extend", 0),
        "linalg.elim_entries": counters["linalg.elim_entries"],
        "homology.induced_map_s": incl.get("homology.induced_map", 0.0),
        "homology.induced_map_calls": calls.get("homology.induced_map", 0),
        "linalg.solve_calls": calls.get("linalg.solve", 0),
        "linalg.rref_calls": calls.get("linalg.rref", 0),
        "perms.orbit_table_s": incl.get("perms.orbit_table", 0.0),
        "perms.orbit_table_calls": calls.get("perms.orbit_table", 0),
        "perms.subsets_visited": counters["perms.subsets_visited"],
        "perms.orbits": counters["perms.orbits"],
        "perms.support_split_s": incl.get("perms.support_split", 0.0),
        "perms.group_enum_s": incl.get("perms.group_enum", 0.0),
        "symrep.induce_s": incl.get("symrep.induce", 0.0),
        "symrep.decompose_s": incl.get("symrep.decompose", 0.0),
        "symrep.pieri_s": incl.get("symrep.pieri", 0.0),
        "families.per_m_s": sum(per_m.values()) / len(per_m) if per_m else 0.0,
        "families.per_m_growth": last_m / first_m if first_m else 0.0,
        "families.betti_at_degree_s": incl.get("families.betti_at_degree", 0.0),
        "families.betti_at_degree_calls": calls.get("families.betti_at_degree", 0),
        "cellular.build_s": incl.get("cellular.build", 0.0),
        "cellular.cells": counters["cellular.cells"],
        "cellular.block_trace_s": incl.get("cellular.block_trace", 0.0),
        "cellular.block_trace_calls": calls.get("cellular.block_trace", 0),
        "hochster.summand_character_s": incl.get("hochster.summand_character", 0.0),
        "hochster.cup_s": incl.get("hochster.cup", 0.0),
        "hochster.transport_s": incl.get("hochster.transport", 0.0),
        "simplicial.restrict_s": incl.get("simplicial.restrict", 0.0),
        "simplicial.restrict_calls": calls.get("simplicial.restrict", 0),
        "homology.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "documents.parse_s": incl.get("documents.parse", 0.0),
        "documents.dumps_s": incl.get("documents.dumps", 0.0),
        "documents.report_bytes": counters["documents.report_bytes"],
    }
    out.update({f"self.{layer}_s": t for layer, t in self_s.items()})
    out["self.unnamed_s"] = unnamed
    return out


def is_count(name: str) -> bool:
    return name.endswith(("_calls", "_builds")) or name in COUNTERS


# -- reporting -------------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "pool_index": seed % workloads.POOL,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def repeat(seconds: float, body) -> None:
    """Call body() until `seconds` are spent: a call starts only if one of
    median length still fits.  Always calls it at least once."""
    start = perf_counter()
    took: list[float] = []
    while True:
        began = perf_counter()
        body()
        took.append(perf_counter() - began)
        if perf_counter() - start + statistics.median(took) > seconds:
            return


def end_to_end(commands, workdir: Path, pins: dict, seconds: int):
    """Repetitions with the reference loop beside each command, and set-up
    probes between them."""
    setup = SetupProbe(commands, workdir)
    setup.run(1, record=False)  # warms the bytecode cache
    reps: list[Rep] = []

    def body():
        setup.run(2)
        reps.append(run_rep(commands, workdir, pins, traced=False, reference=True))

    repeat(seconds, body)
    setup.run(max(0, SETUP_PROBES - len(setup.times)))
    ref_wall = [statistics.median(w for w, _ in r.reference) for r in reps]
    ref_cpu = [statistics.median(c for _, c in r.reference) for r in reps]
    metrics = {
        "wall_ref": statistics.median(r.wall_s / w for r, w in zip(reps, ref_wall)),
        "cpu_ref": statistics.median(r.cpu_s / c for r, c in zip(reps, ref_cpu)),
        "setup_s": statistics.median(setup.times) if setup.times else 0.0,
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }
    raw = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "reference_wall_s": statistics.median(ref_wall),
        "reference_cpu_s": statistics.median(ref_cpu),
    }
    samples = {"wall_s": [r.wall_s for r in reps], "cpu_s": [r.cpu_s for r in reps],
               "setup_s": setup.times, "reference_wall_s": ref_wall, "reference_cpu_s": ref_cpu}
    return metrics, raw, samples, reps, setup


def per_layer(commands, workdir: Path, pins: dict, seconds: int):
    """Pairs of an untraced and a traced pass; counts must repeat exactly."""
    plain: list[Rep] = []
    traced: list[Rep] = []

    def body():
        plain.append(run_rep(commands, workdir, pins, traced=False))
        traced.append(run_rep(commands, workdir, pins, traced=True))

    repeat(seconds, body)
    passes = [layer_metrics([o.spans for o in rep.outcomes]) for rep in traced if not rep.errors]
    metrics: dict[str, float] = {}
    errors: list[str] = []
    for key in passes[0] if passes else ():
        values = [p[key] for p in passes]
        if not is_count(key):
            metrics[key] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            errors.append(f"{key} differs between traced passes: {values}")
        metrics[key] = values[0]
    metrics["trace.overhead_ratio"] = (statistics.median(r.wall_s for r in traced)
                                       / statistics.median(r.wall_s for r in plain))
    samples = {"wall_s": [r.wall_s for r in plain], "traced_wall_s": [r.wall_s for r in traced]}
    return metrics, samples, plain + traced, errors


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = WORK / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pins = json.loads((BENCH / "digests.json").read_text())
    commands = workloads.build(name, seed, workdir)
    env = environment(name, seed)
    if trace:
        metrics, samples, reps, errors = per_layer(commands, workdir, pins, seconds)
        attempted, failures = 0, []
    else:
        metrics, env["raw"], samples, reps, setup = end_to_end(commands, workdir, pins, seconds)
        attempted, failures, errors = setup.attempted, setup.errors, []
    attempted += sum(len(r.outcomes) for r in reps)
    failures += [e for r in reps for e in r.errors]
    env.update(repetitions=len(samples["wall_s"]), loadavg_end=os.getloadavg(), samples=samples)
    return {"env": env, "attempted": attempted, "failed": len(failures),
            "errors": failures + errors, "metrics": metrics}


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "macstab" / "cli.py").is_file():
        print(f"error: no macstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    known = spec["workloads"] + ["smoke"]
    names = spec["workloads"] if args.workload == "all" else [args.workload]
    if any(n not in known for n in names) or args.seconds < 1:
        parser.error(f"workload must be one of {known} or 'all'; seconds >= 1")
    units = spec["per_layer"] if args.trace else spec["end_to_end"]

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        (WORK / f"{name}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1, default=str))
        print(json.dumps(result["env"]))
        missing = [k for k in units if k not in result["metrics"]]
        if missing:
            result["errors"].append(f"no value for {missing}")
        for err in result["errors"][:10]:
            print(f"FAILED {err}", file=sys.stderr)
        failed = result["failed"]
        print(f"{name}: {result['attempted']} commands, {failed} failed, "
              f"fail_ratio {failed / result['attempted']:.4f}")
        values = {k: result["metrics"].get(k, 0.0) for k in units}
        shown = [(k, values[k], u) for k, u in units.items()]
        shown += [(k, v, "s") for k, v in result["env"].get("raw", {}).items()]
        for key, value, unit in shown:
            print(f"  {key:34s} {value:>14.6g} {unit}")
        total["correct"] = total["correct"] and not result["errors"]
        total["attempted"] += result["attempted"]
        total["failed"] += failed
        prefix = f"{name}/" if len(names) > 1 else ""
        total["metrics"].update({
            prefix + key: {"value": values[key], "unit": unit} for key, unit in units.items()
        })
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
