"""Self-describing JSON documents for complexes, groups and reports.

A complex document carries vertex records {id, index?, tag}, facets as id
lists and an optional permutation group in one-line notation.  Parsing and
serialisation round-trip; reports are emitted with sorted keys so a
deterministic run is byte-identical.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from . import __version__
from .errors import ValidationError
from .perms import PermGroup, Permutation
from .simplicial import SimplicialComplex, Vertex, face_key


def serialize_complex(
    K: SimplicialComplex, group: PermGroup | None = None
) -> dict[str, Any]:
    verts = []
    for v in K.vertices:
        rec: dict[str, Any] = {"id": str(v), "tag": v.tag}
        if v.index is not None:
            rec["index"] = v.index
        verts.append(rec)
    facets = [
        sorted(str(v) for v in sorted(f))
        for f in sorted(K.facets, key=face_key)
    ]
    doc: dict[str, Any] = {"vertices": verts, "facets": facets}
    if group is not None:
        doc["group"] = {
            "degree": group.degree,
            "generators": [list(g) for g in group.generators],
        }
    return doc


def read_json(path: str):
    """Parsed JSON from a file, or from stdin when `path` is '-'."""
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ValidationError(f"cannot read {path!r}: {err.strerror}") from None
    except ValueError as err:  # bad JSON, bad UTF-8 or an integer past Python's digit limit
        raise ValidationError(f"{path!r} is not valid JSON: {err}") from None


def parse_int(value, what: str) -> int:
    """`value` as an int, from a JSON integer or a string of one; a bool, a
    fraction or anything else is a ValidationError naming `what`."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValidationError(f"{what} must be an integer, not {value!r}")


def expect(value, kind: type, what: str):
    """`value` when it is a JSON array (kind list) or object (kind dict)."""
    if not isinstance(value, kind):
        name = "an array" if kind is list else "an object"
        raise ValidationError(f"{what} must be {name}, not {value!r}")
    return value


def parse_complex(doc: dict) -> tuple[SimplicialComplex, PermGroup | None]:
    expect(doc, dict, "document")
    try:
        vrecs = expect(doc["vertices"], list, "'vertices'")
        frecs = expect(doc["facets"], list, "'facets'")
    except KeyError as missing:
        raise ValidationError(f"document lacks {missing} section") from None
    by_id: dict[str, Vertex] = {}
    for k, rec in enumerate(vrecs):
        if not isinstance(rec, dict):
            raise ValidationError(f"vertex #{k} must be an object {{id, index?, tag}}")
        if "id" not in rec:
            raise ValidationError(f"vertex #{k} has no id")
        vid = str(rec["id"])
        if vid in by_id:
            raise ValidationError(f"duplicate vertex id {vid!r} (vertex #{k})")
        index = rec.get("index")
        if index is not None:
            index = parse_int(index, f"vertex {vid!r}: index")
            if index < 1:
                raise ValidationError(f"vertex {vid!r}: index must be >= 1")
        by_id[vid] = Vertex(index, parse_int(rec.get("tag", 0), f"vertex {vid!r}: tag"))
    if len(set(by_id.values())) != len(by_id):
        raise ValidationError("two vertex ids map to the same (index, tag) label")
    facets = []
    for k, ids in enumerate(frecs):
        expect(ids, list, f"facet #{k}")
        try:
            facets.append(frozenset(by_id[str(x)] for x in ids))
        except KeyError as bad:
            raise ValidationError(f"facet #{k} references unknown id {bad}") from None
    K = SimplicialComplex(list(by_id.values()), facets)
    group = None
    if "group" in doc and doc["group"] is not None:
        grec = expect(doc["group"], dict, "'group'")
        degree = parse_int(grec.get("degree", 0), "group degree")
        if degree < 0:
            raise ValidationError(f"group degree must be >= 0, not {degree}")
        gens = []
        for k, images in enumerate(expect(grec.get("generators", []), list, "group generators")):
            what = f"group generator #{k}"
            images = tuple(parse_int(x, f"{what} entry") for x in expect(images, list, what))
            try:
                gens.append(Permutation(images))
            except ValidationError:
                raise ValidationError(f"{what} is not a bijection") from None
        if not gens:
            gens = [Permutation.identity(max(degree, 1))]
        size = degree or gens[0].degree
        for k, g in enumerate(gens):
            if g.degree != size:
                but = f"the group degree is {degree}" if degree else f"generator #0 has {size}"
                raise ValidationError(f"group generator #{k} has {g.degree} entries, but {but}")
        group = PermGroup(size, tuple(gens))
        top = max((v.index for v in K.vertices if v.index is not None), default=0)
        if group.degree < top:
            raise ValidationError("group degree smaller than the largest vertex index")
    return K, group


def make_report(command: str, payload: dict, caps: dict) -> dict:
    return {
        "tool": "macstab",
        "version": __version__,
        "command": command,
        "deterministic": True,
        "caps": dict(sorted(caps.items())),
        "conventions": {
            "orbit_representative": "lexicographically least subset in vertex order",
            "orientation": "vertices sorted by (index, tag), unindexed last",
        },
        "report": payload,
    }


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
