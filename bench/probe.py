"""Set-up probe: import the CLI and resolve a workload's inputs, computing nothing.

    python3 bench/probe.py INPUTS_JSON

INPUTS_JSON lists {"input": PATH} and {"family": SPEC, "ms": [m, ...]} items;
documents are parsed with `documents.parse_complex`, families instantiated
with `Family.instantiate` at every listed rank.
"""

from __future__ import annotations

import json
import sys


def main(path: str) -> int:
    import macstab.cli  # noqa: F401  (the import is part of what is measured)
    from macstab.documents import parse_complex
    from macstab.families import parse_family

    with open(path) as fh:
        items = json.load(fh)
    for item in items:
        if "input" in item:
            with open(item["input"]) as doc:
                parse_complex(json.load(doc))
        else:
            family = parse_family(item["family"])
            for m in item["ms"]:
                family.instantiate(m)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
