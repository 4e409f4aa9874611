"""Run one macstab CLI command with spans around the calls into each layer.

    python3 bench/traced.py SPANS_FILE macstab-args...

The report is written to stdout exactly as `python -m macstab.cli` writes it.
Spans (name, start, end, parent, key), counters and the cohomology cache
statistics are kept in memory and written to SPANS_FILE as JSON when the
command ends.  The wrapping happens here, from outside the program: every
public function in TARGETS is replaced in its own module and in every macstab
module that bound it with `from ... import`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, attribute, span name).  "Class.method" patches the class.
TARGETS = [
    ("simplicial", "full_subcomplex", "simplicial.restrict"),
    ("perms", "subset_orbit_reps", "perms.orbit_table"),
    ("perms", "support_split", "perms.support_split"),
    ("perms", "enumerate_group", "perms.group_enum"),
    ("linalg", "Matrix.rank", "linalg.rank"),
    ("linalg", "Matrix.rref", "linalg.rref"),
    ("linalg", "Matrix.solve", "linalg.solve"),
    ("linalg", "extend_to_basis", "linalg.extend"),
    ("homology", "CohomologyBasis.__init__", "homology.basis"),
    ("homology", "induced_cohomology_map", "homology.induced_map"),
    ("symrep", "induce_to_sym", "symrep.induce"),
    ("symrep", "decompose", "symrep.decompose"),
    ("symrep", "pieri_induce", "symrep.pieri"),
    ("hochster", "betti", "hochster.betti"),
    ("hochster", "summand_character", "hochster.summand_character"),
    ("hochster", "orbit_summands", "hochster.orbit_summands"),
    ("hochster", "sym_irreducible_decomposition", "hochster.sym_decomposition"),
    ("hochster", "cup_product", "hochster.cup"),
    ("hochster", "transported_action", "hochster.transport"),
    ("hochster", "basis_classes", "hochster.basis_classes"),
    ("hochster", "class_is_zero_in_cohomology", "hochster.class_is_zero"),
    ("hochster", "g_algebra_equivariance_check", "hochster.equivariance"),
    ("cellular", "MomentAngleCellComplex.__init__", "cellular.build"),
    ("cellular", "block_trace", "cellular.block_trace"),
    ("cellular", "compare_with_hochster", "cellular.compare"),
    ("families", "betti_at_degree", "families.betti_at_degree"),
    ("families", "multiplicity_scan", "families.multiplicity_scan"),
    ("families", "betti_growth", "families.betti_growth"),
    ("documents", "parse_complex", "documents.parse"),
    ("documents", "dumps_report", "documents.dumps"),
]


def _rank_of_scan_step(name, args):
    """Family rank m of a per-rank scan step, used to split time by m."""
    if name == "hochster.sym_decomposition":
        return args[3]
    if name == "families.betti_at_degree":
        return args[3].degree
    return None


def _count(counters, name, args, result):
    if name in ("linalg.rank", "linalg.rref"):
        counters["linalg.elim_entries"] += args[0].rows * args[0].cols
    elif name == "perms.orbit_table":
        counters["perms.subsets_visited"] += result.total_subsets
        counters["perms.orbits"] += len(result.representatives)
    elif name == "cellular.build":
        counters["cellular.cells"] += args[0].cell_count()
    elif name == "documents.dumps":
        counters["documents.report_bytes"] += len(result.encode())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, key]
        self.stack: list[int] = []
        self.counters = dict.fromkeys(
            ["linalg.elim_entries", "perms.subsets_visited", "perms.orbits",
             "cellular.cells", "documents.report_bytes"], 0)

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   _rank_of_scan_step(name, args)]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            _count(counters, name, args, result)
            return result

        return traced

    def install(self):
        loaded = [m for n, m in sys.modules.items() if n == "macstab" or n.startswith("macstab.")]
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(f"macstab.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(span, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(span, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import macstab.cli as cli
    from macstab.homology import reduced_cohomology

    tracer = Tracer()
    tracer.install()
    start = perf_counter()
    code = cli.main(cli_args)
    main_s = perf_counter() - start
    sys.stdout.flush()
    info = reduced_cohomology.cache_info()
    with open(spans_path, "w") as fh:
        json.dump({
            "main_s": main_s,
            "spans": tracer.spans,
            "counters": tracer.counters,
            "cache": {"hits": info.hits, "misses": info.misses},
        }, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
