"""Command line surface.

Commands: betti, decompose, scan, check-family, oracle, product.
Exit codes: 0 success, 1 validation or usage error, 2 cap exceeded, 3
internal oracle/consistency mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import CapExceeded, NotACharacter, OracleMismatch, ValidationError
from .documents import dumps_report, make_report, parse_complex, parse_int, read_json
from .hochster import (
    SpherePair,
    betti,
    betti_split,
    class_is_zero_in_cohomology,
    equivariant_decomposition,
    g_algebra_equivariance_check,
    product_table,
    spanning_classes,
    summand_memo,
    sym_irreducible_decomposition,
)
from .homology import reduced_cohomology
from .perms import (
    DEFAULT_GROUP_CAP,
    DEFAULT_ORACLE_CAP,
    DEFAULT_SUBSET_CAP,
    DEFAULT_SUPPORT_CAP,
    PermGroup,
    _checked_sizes,
    is_g_complex,
    pattern_orbit_reps,
    subset_orbit_reps,
)
from .simplicial import SimplicialComplex, subset_label


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation errors: exit 1, where argparse exits 2 (the cap code)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)  # a flag only as spelled in full

    def error(self, message):
        raise ValidationError(message)


# flag -> (the key a report echoes it under, default)
_CAPS = {
    "--cap-subsets": ("subsets", DEFAULT_SUBSET_CAP),
    "--cap-group": ("group", DEFAULT_GROUP_CAP),
    "--cap-support": ("support", DEFAULT_SUPPORT_CAP),
    "--cap-oracle": ("oracle_vertices", DEFAULT_ORACLE_CAP),
}


def _add_common(p: argparse.ArgumentParser, caps, inputs=True, pair=True):
    """`caps` are the cap flags the command reads; without `inputs` it takes only a family."""
    if inputs:
        p.add_argument("--input", help="complex document (JSON file, '-' for stdin)")
    p.add_argument("--family", required=not inputs,
                   help="family spec: skeleton:k | join:k1,k2 | vccube | custom:FILE")
    if inputs:
        p.add_argument("--m", type=int, help="family rank")
    if pair:
        p.add_argument("--d", type=int, default=1, help="sphere dimension of the pair (default 1)")
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    for flag in caps:
        p.add_argument(flag, type=int, default=_CAPS[flag][1])


def _caps(args) -> dict:
    """Every cap as the report echoes it; one the command does not take reads its default."""
    return {key: getattr(args, flag[2:].replace("-", "_"), default)
            for flag, (key, default) in _CAPS.items()}


def _resolve_input(args) -> tuple[SimplicialComplex, PermGroup | None, int | None]:
    """Returns (complex, group, family rank when instantiated from a family)."""
    # a document and a family are two inputs: neither may be dropped silently
    given = [f for f, v in (("--family", args.family), ("--m", args.m)) if v is not None]
    if args.input is not None and given:
        raise ValidationError(f"--input conflicts with {' and '.join(given)}: give one input")
    if args.family is not None:
        if args.m is None:
            raise ValidationError("--family needs --m")
        if args.m < 1:
            raise ValidationError(f"--m {args.m}: need at least 1")
        from .families import parse_family  # a document reads no family module

        fam = parse_family(args.family)
        K, G = fam.instantiate(args.m)
        return K, G, args.m
    if args.input is not None:
        K, G = parse_complex(read_json(args.input))
        if G is not None and not is_g_complex(K, G):
            raise ValidationError("the group does not preserve the complex")
        return K, G, None
    raise ValidationError("provide --input FILE or --family SPEC --m N")


def _open_for_writing(path: str, mode: str = "w", **kwargs):
    try:
        return open(path, mode, **kwargs)
    except OSError as err:
        raise ValidationError(f"cannot write {path!r}: {err.strerror}") from None


def _check_writable(path: str) -> None:
    """Fail before any computation when `path` cannot be written; leaves no file behind."""
    existed = os.path.exists(path)
    with _open_for_writing(path, "a"):  # "a" keeps an existing file's contents
        pass
    if not existed:
        os.remove(path)


def _emit(args, doc: dict) -> None:
    text = dumps_report(doc)
    if args.output is not None:
        with _open_for_writing(args.output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _partition_key(p) -> str:
    return "(" + ",".join(map(str, p)) + ")"


def cmd_betti(args) -> int:
    K, G, m = _resolve_input(args)
    pair = SpherePair(args.d)
    if not args.per_multidegree:
        orbits = None  # the plain sum over every subset
        if m is not None:
            # the cap counts every subset, as a search for the same orbits would
            _checked_sizes(len(K.vertices), None, args.cap_subsets)
            orbits = pattern_orbit_reps(K, m, cap=args.cap_subsets)
        elif G is not None:
            orbits = subset_orbit_reps(K, G, cap=args.cap_subsets).orbit_sizes
        table = betti(K, pair, orbits, args.cap_subsets)
        payload = {"degrees": {str(i): b for i, b in table.items()}}
    else:
        # every summand once: the Betti numbers are the sums of the split's rows
        split = betti_split(K, pair, cap=args.cap_subsets)
        table: dict[int, int] = {}
        for row in split.values():
            for i, dim in row.items():
                table[i] = table.get(i, 0) + dim
        payload = {"degrees": {str(i): b for i, b in sorted(table.items())}}
        payload["multidegrees"] = {
            subset_label(J): {str(i): d for i, d in row.items()}
            for J, row in sorted(split.items(), key=lambda kv: subset_label(kv[0]))
        }
    _emit(args, make_report("betti", payload, _caps(args)))
    return 0


def cmd_decompose(args) -> int:
    K, G, m = _resolve_input(args)
    pair = SpherePair(args.d)
    if G is None:
        raise ValidationError("decompose needs a group (document group or --family)")
    if args.irreducibles and m is None:
        raise ValidationError("--irreducibles needs a family input (index action)")
    if args.irreducibles and args.d < 1:
        raise ValidationError(f"--d {args.d}: --irreducibles needs at least 1")
    components = equivariant_decomposition(
        K, G, pair, args.degree, args.cap_subsets, args.cap_group
    )
    payload = {
        "degree": args.degree,
        "betti": sum(c.orbit_size * c.dim for c in components),
        "components": [
            {
                "orbit_representative": subset_label(c.rep),
                "orbit_size": c.orbit_size,
                "restriction_degree": c.degree_p,
                "dimension": c.dim,
                "stabilizer_order": len(c.character),
                "generator_traces": {str(g): str(c.character[g]) for g in c.generators},
                "character": {str(g): str(t) for g, t in c.character.items()},
            }
            for c in components
        ],
    }
    if args.irreducibles:
        table = sym_irreducible_decomposition(
            K, pair, args.degree, m, args.cap_support, args.cap_subsets
        )
        payload["irreducibles"] = {_partition_key(b): mult for b, mult in table.items()}
    _emit(args, make_report("decompose", payload, _caps(args)))
    return 0


def _parse_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        ms = range(int(lo), int(hi) + 1)
    except ValueError:
        raise ValidationError(f"range {text!r} must look like A..B") from None
    if not ms:
        raise ValidationError(f"range {text!r} is empty: A..B needs A <= B")
    if ms[0] < 1:
        raise ValidationError(f"--m {text}: need at least 1")
    return ms


def cmd_scan(args) -> int:
    from .families import multiplicity_scan, parse_family

    if not args.betti_only and args.d < 1:
        raise ValidationError(f"--d {args.d}: a scan without --betti-only needs at least 1")
    fam = parse_family(args.family)
    pair = SpherePair(args.d)
    scan = multiplicity_scan(fam, pair, args.degree, _parse_range(args.m_range), args.cap_support,
                             args.cap_subsets, characters=not args.betti_only)
    payload: dict = {"family": fam.description, "degree": args.degree}
    if not args.betti_only:
        payload["multiplicities"] = {
            str(m): {_partition_key(b): mult for b, mult in t.items()}
            for m, t in scan.tables.items()
        }
        payload["onset"] = scan.onset
        payload["certified_within_window"] = scan.certified
        payload["weight"] = scan.weight
        payload["betti"] = {str(m): b for m, b in scan.betti.items()}
    payload["betti_values"] = {str(m): b for m, b in scan.betti.items()}
    payload["difference_table"] = scan.diff_table
    if scan.fit is None:
        payload["growth"] = "not yet polynomial in the scanned window"
    else:
        payload["growth"] = {
            "degree": scan.fit.degree,
            "coefficients_ascending": [str(c) for c in scan.fit.coefficients],
            "onset_m": scan.fit.onset_m,
        }
    if args.csv is not None:
        _write_scan_csv(args.csv, fam.description, args.degree, scan)
    _emit(args, make_report("scan", payload, _caps(args)))
    return 0


def _write_scan_csv(path, family, degree, scan):
    import csv  # only `scan --csv` writes CSV; start-up stays lean

    with _open_for_writing(path, newline="") as fh:
        writer = csv.writer(fh)
        bases = sorted({b for t in scan.tables.values() for b in t})
        writer.writerow(["family", "degree", "m", "betti"] + [_partition_key(b) for b in bases])
        for m, b in scan.betti.items():
            row = [scan.tables[m].get(base, 0) for base in bases]
            writer.writerow([family, degree, m, b, *row])


def cmd_check_family(args) -> int:
    from .families import (
        check_consistent,
        check_r_face_stable,
        check_r_vertex_stable,
        check_stabiliser_consistent,
        parse_family,
    )

    # with no size to check, "all_passed" would be vacuously true
    if args.max_r < 0:
        raise ValidationError(f"--max-r {args.max_r}: need at least 0")
    if args.max_stab_size < 1:
        raise ValidationError(f"--max-stab-size {args.max_stab_size}: need at least 1")
    fam = parse_family(args.family).memoised()  # the checks read each K_m, built once
    ms = _parse_range(args.m_range)
    results: dict = {"family": fam.description, "m_range": [ms[0], ms[-1]]}
    results["consistent"] = check_consistent(fam, ms, args.cap_subsets)
    stability = {}
    for r in range(args.max_r + 1):
        stability[str(r)] = {
            "vertex_stable_at_degree": r + 1,
            "vertex_stable": check_r_vertex_stable(fam, r, r + 1, ms, args.cap_subsets),
            "face_stable": check_r_face_stable(fam, r, r + 1, ms, args.cap_subsets),
        }
    results["stability"] = stability
    # the subsets each scan reads: one per Σ_B-orbit at the window's last rank
    KB, _ = fam.instantiate(ms[-1])
    reps = pattern_orbit_reps(KB, ms[-1], args.max_stab_size, args.cap_subsets)
    results["stabiliser_consistent"] = {
        subset_label(J): check_stabiliser_consistent(fam, J, ms, args.cap_support)
        for J in reps if J
    }
    # vertex stability + stabiliser splitting is what the stability theory
    # needs; face stability at the same degree is reported informationally
    results["all_passed"] = bool(
        results["consistent"]
        and all(results["stabiliser_consistent"].values())
        and all(v["vertex_stable"] for v in stability.values())
    )
    _emit(args, make_report("check-family", results, _caps(args)))
    return 0 if results["all_passed"] else 3


def cmd_oracle(args) -> int:
    from .cellular import compare_with_hochster  # only the oracle builds the cellular model

    K, G, _ = _resolve_input(args)
    if G is None:
        G = PermGroup.trivial(max((v.index or 1 for v in K.vertices), default=1))
    if args.degrees is not None:
        degrees = [parse_int(x, "--degrees entry") for x in args.degrees.split(",")]
    else:
        degrees = list(range(0, 2 * len(K.vertices) + 1))
    found = compare_with_hochster(
        K, G, degrees,
        flip_koszul=args.flip_koszul, cap=args.cap_oracle, subset_cap=args.cap_subsets,
    )
    payload = {
        "degrees": degrees,
        "flip_koszul": bool(args.flip_koszul),
        "discrepancies": found,
        "verdict": f"{len(found)} discrepancies" if found else "no discrepancies",
    }
    _emit(args, make_report("oracle", payload, _caps(args)))
    return 3 if found else 0


def cmd_product(args) -> int:
    K, G, _ = _resolve_input(args)
    classes = spanning_classes(K, args.cap_subsets)
    products = product_table(K, classes)
    table = []
    for a, row in zip(classes, products):
        for b, prod in zip(classes, row):
            table.append(
                {
                    "left": {"subset": subset_label(a.subset), "degree": a.degree},
                    "right": {"subset": subset_label(b.subset), "degree": b.degree},
                    "zero": class_is_zero_in_cohomology(K, prod),
                }
            )
    payload: dict = {"classes": len(classes), "products": table}
    ok = True
    if args.check_equivariance:
        if G is None:
            raise ValidationError("--check-equivariance needs a group")
        ok = g_algebra_equivariance_check(K, G, args.cap_subsets, products)
        payload["equivariant"] = ok
    _emit(args, make_report("product", payload, _caps(args)))
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="macstab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="Betti numbers of the polyhedral product")
    _add_common(p, ("--cap-subsets",))
    p.add_argument("--per-multidegree", action="store_true")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("decompose", help="orbit decomposition at one degree")
    _add_common(p, ("--cap-subsets", "--cap-group", "--cap-support"))
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--irreducibles", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("scan", help="stability scan over a family")
    _add_common(p, ("--cap-subsets", "--cap-support"), inputs=False)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--m-range", "--m", dest="m_range", required=True,
                   help="rank window A..B")
    p.add_argument("--betti-only", action="store_true")
    p.add_argument("--csv", help="also write the scan table as CSV")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("check-family", help="structural checks over a family")
    _add_common(p, ("--cap-subsets", "--cap-support"), inputs=False, pair=False)
    p.add_argument("--m-range", "--m", dest="m_range", required=True)
    p.add_argument("--max-r", type=int, default=2)
    p.add_argument("--max-stab-size", type=int, default=3)
    p.set_defaults(func=cmd_check_family)

    p = sub.add_parser("oracle", help="cross-check the two pipelines (d = 1)")
    _add_common(p, ("--cap-subsets", "--cap-oracle"), pair=False)
    p.add_argument("--degrees", help="comma separated ambient degrees")
    p.add_argument("--flip-koszul", action="store_true",
                   help="deliberately corrupt the smash twist (negative control)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("product", help="cup product table and equivariance check (d = 1)")
    _add_common(p, ("--cap-subsets",), pair=False)
    p.add_argument("--check-equivariance", action="store_true")
    p.set_defaults(func=cmd_product)
    return top


def main(argv=None) -> int:
    # one command's caches; kept after it returns so its statistics can be read
    reduced_cohomology.cache_clear()
    summand_memo.clear()
    try:
        args = build_parser().parse_args(argv)
        for flag in (*_CAPS, "--d"):
            value = getattr(args, flag[2:].replace("-", "_"), 0)  # 0: a flag it does not take
            if value < 0:
                raise ValidationError(f"{flag} {value}: need at least 0")
        paths = (args.output, getattr(args, "csv", None))
        if all(paths) and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
            raise ValidationError(f"--output and --csv both name {paths[1]!r}: give two files")
        for path in paths:
            if path is not None:
                _check_writable(path)
        return args.func(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except CapExceeded as err:
        print(f"cap exceeded: {err}", file=sys.stderr)
        return 2
    except (NotACharacter, OracleMismatch) as err:
        print(f"internal mismatch: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
