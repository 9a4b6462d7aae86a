"""Self-check of the benchmark at a tiny size.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json for a second, untraced and
traced, and asserts that the last output line has exactly the result
keys and every metric BENCHMARK.json names, with its unit.  Then shows
that the correctness gate trips: a Separable certificate with one
product vector scaled is rejected by the gate, and a run whose
decide_rank4 returns such certificates exits with code 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def last_line(args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, expected, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int), label
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, f"{label}: metric names or units differ: " \
        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
    for name, v in result["metrics"].items():
        assert set(v) == {"value", "unit"}, (label, name)
        assert isinstance(v["value"], (int, float)), (label, name)


def check_gate_trips():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads
    from entcert.certificates import Separable

    item = next(i for i in workloads.build_rank4(5, 1) if i.truth == "separable")
    cert = workloads.call_rank4(item).outcome
    assert workloads.check_certificate(item.data, cert, item.truth) == "ok"
    (a, b), *rest = cert.products
    bad = Separable(products=((1.5 * np.asarray(a), b), *rest))
    try:
        workloads.check_certificate(item.data, bad, item.truth)
    except workloads.WrongVerdict:
        pass
    else:
        raise AssertionError("gate accepted a corrupted Separable certificate")

    import run

    original = workloads.call_rank4

    def corrupted(item):
        verdict = original(item)
        out = verdict.outcome
        if isinstance(out, Separable):
            (a, b), *rest = out.products
            out = Separable(products=((1.5 * np.asarray(a), b), *rest))
        return type(verdict)(out, verdict.trail)

    workloads.call_rank4 = corrupted
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "rank4-3x3", "--seed", "5",
                             "--seconds", "1"])
    finally:
        workloads.call_rank4 = original
    assert code == 1, f"run with corrupted certificates exited {code}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, expected in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            result = last_line(["--workload", name, "--seed", "3",
                                "--seconds", "1", "--trace", trace])
            check_metrics(result, expected, f"{name} --trace {trace}")
            print(f"ok: {name} --trace {trace}: {len(expected)} metrics, "
                  f"{result['attempted']} calls")
    check_gate_trips()
    print("ok: the gate rejects a corrupted Separable certificate and the run exits 1")


if __name__ == "__main__":
    main()
