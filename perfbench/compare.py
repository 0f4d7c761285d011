"""Compare two benchmark records of the same workload.

    python3 perfbench/compare.py .perfbench/old/record-exact-seed1-trace0.json \\
                                 .perfbench/record-exact-seed1-trace0.json

Prints each metric of the two records with the new/old ratio.  Refuses, with
exit code 2, records whose kernel backends differ (a compiled-core run and a
NumPy-fallback run measure different programs) or whose workload or tracing
differ.
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path):
    with open(path) as fh:
        return json.load(fh)


def values(record) -> dict:
    """The workload's named metrics and the result line's metrics of one record."""
    return {**record["named"], **{k: m["value"] for k, m in record["result"]["metrics"].items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare two perfbench records")
    p.add_argument("old")
    p.add_argument("new")
    args = p.parse_args(argv)
    old, new = load(args.old), load(args.new)
    for key, a, b in (
        ("backend", old["provenance"]["backend"], new["provenance"]["backend"]),
        ("workload", old["workload"], new["workload"]),
        ("trace", old["trace"], new["trace"]),
    ):
        if a != b:
            print(f"refusing to compare: {key} differs ({a!r} vs {b!r})", file=sys.stderr)
            return 2
    print(f"workload {new['workload']}  backend {new['provenance']['backend']}")
    print(f"old {old['provenance']['git_sha'] or old['provenance']['source_sha256'][:12]} "
          f"seed {old['seed']}  new {new['provenance']['git_sha'] or new['provenance']['source_sha256'][:12]} "
          f"seed {new['seed']}")
    a, b = values(old), values(new)
    for name, x in a.items():
        y = b.get(name)
        numbers = isinstance(x, (int, float)) and isinstance(y, (int, float)) and x
        print(f"  {name:<48} {x!s:>24} {y!s:>24} {f'{y / x:8.3f}' if numbers else '-':>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
