"""Workloads of the macstab benchmark: commands, seeded inputs and output checks.

Every workload is a fixed sequence of `macstab` CLI commands.  Complex
documents are generated here from the workload seed and handed to the program
through `--input`; family inputs need no document.  Seeded documents are
drawn from a pool of POOL instances (`seed % POOL`), so every report the
benchmark can produce has a digest pinned in `digests.json`.

The output checks in this file are computed by the benchmark's own code from
face counts and partitions, never by calling macstab.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import factorial
from pathlib import Path
from typing import Callable

POOL = 32

Check = Callable[[dict], "str | None"]


@dataclass(frozen=True)
class Command:
    label: str  # key of the pinned report digest
    argv: tuple[str, ...]
    check: Check


# -- complex documents ----------------------------------------------------------


def _document(vertices: list[dict], facets, group: list[list[int]] | None = None) -> dict:
    doc: dict = {"vertices": vertices, "facets": [sorted(f) for f in facets]}
    if group is not None:
        doc["group"] = {"degree": len(group[0]), "generators": group}
    return doc


def vc_cube_dual_document(m: int) -> dict:
    """Join of m index-labelled 0-spheres, minus the face of all 0-poles,
    with that face's boundary coned off by one unindexed vertex."""
    verts = [{"id": f"{i}.{t}", "index": i, "tag": t} for t in (0, 1) for i in range(1, m + 1)]
    verts.append({"id": "c", "tag": 0})
    deleted = {f"{i}.0" for i in range(1, m + 1)}
    facets = []
    for choice in range(2**m):
        face = {f"{i + 1}.{(choice >> i) & 1}" for i in range(m)}
        if face != deleted:
            facets.append(face)
    facets += [(deleted - {f"{i}.0"}) | {"c"} for i in range(1, m + 1)]
    return _document(verts, facets)


def random_regular_graph_document(rng: random.Random, n: int = 9, d: int = 4) -> dict:
    """A uniformly drawn simple d-regular graph on n vertices, as a 1-complex.

    Regular graphs keep the elimination work nearly constant across seeds
    (the degree sequence fixes most of the restriction sizes).
    """
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {frozenset(p) for p in zip(stubs[::2], stubs[1::2])}
        if len(edges) == n * d // 2 and all(len(e) == 2 for e in edges):
            break
    verts = [{"id": f"v{i}", "index": i, "tag": 0} for i in range(1, n + 1)]
    facets = [{f"v{i}" for i in e} for e in sorted(edges, key=sorted)]
    return _document(verts, facets)


def random_cyclic_document(rng: random.Random, m: int = 7, triangle_orbits: int = 2) -> dict:
    """Complete graph on indices 1..m plus random orbits of triangles under
    rotation, with the cyclic group of order m.  The face counts are the same
    for every draw."""
    reps = []
    seen = set()
    for t in combinations(range(m), 3):
        orbit = frozenset(frozenset((i + k) % m for i in t) for k in range(m))
        if orbit not in seen:
            seen.add(orbit)
            reps.append(t)
    chosen = rng.sample(reps, triangle_orbits)
    verts = [{"id": f"x{i}", "index": i, "tag": 0} for i in range(1, m + 1)]
    facets = {frozenset(f"x{(i + k) % m + 1}" for i in t) for t in chosen for k in range(m)}
    facets |= {
        frozenset({f"x{a}", f"x{b}"})
        for a, b in combinations(range(1, m + 1), 2)
        if not any({f"x{a}", f"x{b}"} <= f for f in facets)
    }
    rotation = [list(range(2, m + 1)) + [1]]
    return _document(verts, sorted(facets, key=sorted), rotation)


# -- checks computed from first principles --------------------------------------


def _faces(doc: dict) -> set[frozenset]:
    out: set[frozenset] = set()
    for f in doc["facets"]:
        for r in range(len(f) + 1):
            out.update(frozenset(c) for c in combinations(f, r))
    return out


def betti_check(doc: dict) -> Check:
    """Checks for `betti` on a document without a group (d = 1).

    Euler: Σ(−1)^i b_i = Σ_J (−1)^{|J|+1} χ̃(K_J), χ̃ from face counts.
    Low degrees: b_0 = 1 and b_3 = number of vertex pairs that are no edge
    (every vertex of the generated documents is a face).
    """
    ids = [v["id"] for v in doc["vertices"]]
    faces = _faces(doc)
    euler = 0
    for r in range(len(ids) + 1):
        for J in combinations(ids, r):
            Jset = set(J)
            chi = sum(1 if len(f) % 2 else -1 for f in faces if f <= Jset)  # (−1)^dim
            euler += (-1) ** (r + 1) * chi
    non_edges = sum(1 for e in combinations(ids, 2) if frozenset(e) not in faces)

    def check(report: dict) -> str | None:
        degrees = {int(i): b for i, b in report["degrees"].items()}
        got = sum((-1) ** i * b for i, b in degrees.items())
        if got != euler:
            return f"alternating Betti sum {got} != {euler} from face counts"
        if degrees.get(0) != 1 or degrees.get(3, 0) != non_edges:
            return f"b_0={degrees.get(0)}, b_3={degrees.get(3, 0)}; expected 1, {non_edges}"
        return None

    return check


def hook_dim(lam: tuple[int, ...]) -> int:
    n = sum(lam)
    cols = [sum(1 for a in lam if a > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    return factorial(n) // hooks


def _partition(key: str) -> tuple[int, ...]:
    inner = key.strip("()")
    return tuple(int(x) for x in inner.split(",")) if inner else ()


def scan_check(report: dict) -> str | None:
    """Σ mult · dim V(padded λ) = betti[m] for every m, and betti = betti_values."""
    if report["betti"] != report["betti_values"]:
        return "betti differs from betti_values"
    for m, table in report["multiplicities"].items():
        total = 0
        for key, mult in table.items():
            base = _partition(key)
            top = int(m) - sum(base)
            if base and top < base[0]:
                return f"m={m}: padded partition of {key} is not a partition"
            total += mult * hook_dim((top,) + base)
        if total != report["betti"][m]:
            return f"m={m}: irreducible dimensions sum to {total}, betti is {report['betti'][m]}"
    return None


def oracle_check(report: dict) -> str | None:
    if report["verdict"] != "no discrepancies" or report["discrepancies"]:
        return f"oracle verdict: {report['verdict']}"
    return None


def product_check(report: dict) -> str | None:
    return None if report.get("equivariant") is True else "product is not equivariant"


# -- workloads ------------------------------------------------------------------

def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def build(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Generate the workload's documents under `workdir` and list its commands."""
    k = seed % POOL
    if workload == "betti-plain":
        cube = vc_cube_dual_document(4)
        graph = random_regular_graph_document(random.Random(f"regular:{k}"))
        return [
            Command("betti/vccube4", ("betti", "--input", _write(workdir, "vccube4.json", cube)),
                    betti_check(cube)),
            Command(f"betti/regular9-{k}",
                    ("betti", "--input", _write(workdir, f"regular9-{k}.json", graph)),
                    betti_check(graph)),
        ]
    if workload == "scan-traces":
        return [Command("scan/skeleton0-d6-m6..12",
                        ("scan", "--family", "skeleton:0", "--degree", "6", "--m", "6..12"),
                        scan_check)]
    if workload == "scan-orbits":
        return [
            Command("scan/vccube-d5-m3..7",
                    ("scan", "--family", "vccube", "--degree", "5", "--m", "3..7"), scan_check),
            Command("scan/join0,0-d5-m3..7",
                    ("scan", "--family", "join:0,0", "--degree", "5", "--m", "3..7"), scan_check),
        ]
    if workload == "oracle-product":
        cyclic = random_cyclic_document(random.Random(f"cyclic:{k}"))
        return [
            Command("oracle/skeleton1-m6", ("oracle", "--family", "skeleton:1", "--m", "6"),
                    oracle_check),
            Command("oracle/vccube-m3", ("oracle", "--family", "vccube", "--m", "3"), oracle_check),
            Command(f"oracle/cyclic7-{k}",
                    ("oracle", "--input", _write(workdir, f"cyclic7-{k}.json", cyclic)),
                    oracle_check),
            Command("product/skeleton0-m4",
                    ("product", "--family", "skeleton:0", "--m", "4", "--check-equivariance"),
                    product_check),
        ]
    if workload == "smoke":
        return [
            Command("smoke/betti-skeleton0-m3", ("betti", "--family", "skeleton:0", "--m", "3"),
                    lambda report: None),
            Command("smoke/scan-skeleton0-d2-m3..4",
                    ("scan", "--family", "skeleton:0", "--degree", "2", "--m", "3..4"),
                    scan_check),
        ]
    raise ValueError(f"unknown workload {workload!r}")
