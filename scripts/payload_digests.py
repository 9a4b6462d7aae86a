"""Digests of the deterministic CLI payloads, for byte-identity checks.

Regenerates nine fixtures with `entcert generate`, runs `entcert analyze
--seed 3` on each of them in all six modes (54 calls), writes twelve
subspace files from `default_rng(11)` and runs `entcert product-test
--seed 3` on each.  For every call it prints the exit code and the
sha256 of the payload, serialized with sorted keys and without
`timing_seconds`; a call that prints no payload is hashed by its
standard output and standard error.  The last line digests all lines.

    python3 scripts/payload_digests.py                 # this checkout
    python3 scripts/payload_digests.py --src OTHER/src # another one

Two checkouts have byte-identical payloads iff their outputs are equal.
Each call is a fresh `python -m entcert.cli` process, one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (file stem, `entcert generate` arguments)
FIXTURES = [
    ("as", ["antisymmetric", "3"]),
    ("tiles", ["upb_tiles_3x3"]),
    ("cb9", ["checkerboard", "--random", "--seed", "9"]),
    ("cb5", ["checkerboard", "--random", "--seed", "5"]),
    ("werner", ["werner", "3", "-0.8"]),
    ("ghz", ["generalized_ghz", "1,0.5"]),
    ("shifts", ["upb_shifts_2x2x2"]),
    ("checkerboard_ppt", ["checkerboard_ppt"]),
    ("reducible_4x4", ["reducible_4x4_example"]),
]
MODES = ["auto", "ppt", "full-rank", "rank4", "reduce", "tripartite"]
# (stem, dim_a, dim_b, dim, planted), three files each, in this order
SUBSPACES = [("planted_2x4", 2, 4, 3, True), ("generic_2x4", 2, 4, 3, False),
             ("planted_3x3", 3, 3, 4, True), ("generic_3x3", 3, 3, 4, False)]


def _digest(proc) -> str:
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        text = proc.stdout + "\0" + proc.stderr
    else:
        doc.pop("timing_seconds", None)
        text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="the src directory of the checkout to run")
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)
    import numpy as np
    from entcert import product_search
    from entcert.io import save_state

    env = dict(os.environ, PYTHONPATH=src)

    def cli(*cli_args):
        return subprocess.run([sys.executable, "-m", "entcert.cli", *cli_args],
                              capture_output=True, text=True, env=env, timeout=300)

    lines = []
    with tempfile.TemporaryDirectory() as work:
        for stem, gen_args in FIXTURES:
            proc = cli("generate", *gen_args, "--out", os.path.join(work, stem + ".json"))
            if proc.returncode != 0:
                raise SystemExit(f"entcert generate {' '.join(gen_args)} exited "
                                 f"{proc.returncode}: {proc.stderr.strip()}")
        for stem, _ in FIXTURES:
            for mode in MODES:
                proc = cli("analyze", os.path.join(work, stem + ".json"),
                           "--seed", "3", "--mode", mode)
                lines.append(f"analyze {stem} {mode} exit={proc.returncode} {_digest(proc)}")
        rng = np.random.default_rng(11)
        for stem, dim_a, dim_b, dim, planted in SUBSPACES:
            make = (product_search.random_product_containing_subspace if planted
                    else product_search.random_subspace)
            for k in range(3):
                path = os.path.join(work, f"{stem}_{k}.json")
                save_state(make(dim_a, dim_b, dim, rng), path)
                proc = cli("product-test", path, "--seed", "3")
                lines.append(f"product-test {stem}_{k} exit={proc.returncode} {_digest(proc)}")
    for line in lines:
        print(line)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"all {len(lines)} {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
