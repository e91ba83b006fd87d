"""Compare two result sets written by ``run.py --report``.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) unless both sets come from the same workload, the same
trace mode and the same environment stamp (kernel, Python, nproc, every
``REPRO_*`` variable): a number measured under another kernel, or with
tracing on, says nothing about a change of code.
"""

from __future__ import annotations

import json
import sys

STAMPED = ("workload", "trace", "environment")


def differences(base: dict, new: dict) -> list[str]:
    """Why two result sets may not be compared; empty when they may."""
    return [
        f"{key}: {base.get(key)!r} != {new.get(key)!r}"
        for key in STAMPED
        if base.get(key) != new.get(key)
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(path)) for path in argv)
    refused = differences(base, new)
    if refused:
        for line in refused:
            print(f"refused: {line}", file=sys.stderr)
        return 2
    print(f"{'metric':<36} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, entry in base["metrics"].items():
        before = entry["value"]
        after = new["metrics"].get(name, {}).get("value")
        if after is None:
            print(f"{name:<36} {before:>14.6g} {'-':>14}")
            continue
        ratio = f"{after / before:9.3f}" if before else ""
        print(f"{name:<36} {before:>14.6g} {after:>14.6g} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
