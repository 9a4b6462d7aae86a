"""Digests of the verdicts on the benchmark corpora, for byte-identity checks.

Builds the `rank4-3x3` and `classify-mixed` corpora of
`perfbench/workloads.py` (`build_rank4`, `build_mixed`) for seeds 1-3 at
20 cycles, 1,200 items in all, and runs each item's library call
(`call_rank4`, `call_mixed`).  Every result is walked field by field:
arrays are hashed by dtype, shape and `tobytes()`, and every other leaf
by its type and repr, which for a float round-trips its bytes.  It
prints one sha256 per corpus and seed, then a last line that digests
all of them.

    python3 scripts/corpus_digests.py                 # this checkout
    python3 scripts/corpus_digests.py --src OTHER/src # another one

The corpora come from this checkout's `perfbench/workloads.py`; --src
chooses the library that runs them.  Two checkouts return byte-identical
certificates on the corpora iff their outputs are equal.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
CYCLES = 20


def _feed(h, obj):
    """Update the hash h with obj, recursing through containers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        arr = np.asarray(obj)
        h.update(f"array {arr.dtype.str} {arr.shape}:".encode())
        h.update(arr.tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"{type(obj).__name__}(".encode())
        for field in dataclasses.fields(obj):
            h.update(field.name.encode() + b"=")
            _feed(h, getattr(obj, field.name))
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            h.update(repr(key).encode() + b":")
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}[".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src directory of the checkout to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    corpora = [("rank4-3x3", workloads.build_rank4, workloads.call_rank4),
               ("classify-mixed", workloads.build_mixed, workloads.call_mixed)]
    lines, count = [], 0
    for name, build, call in corpora:
        for seed in SEEDS:
            items = build(seed, CYCLES)
            h = hashlib.sha256()
            for item in items:
                _feed(h, call(item))
            count += len(items)
            lines.append(f"{name} seed={seed} items={len(items)} {h.hexdigest()}")
    for line in lines:
        print(line)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"all {count} {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
