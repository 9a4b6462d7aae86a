"""The benchmark's correctness gate rejects a corrupted rank-4 certificate,
and every name the traced benchmark run wraps still exists.

perfbench/selfcheck.check_gate_trips builds a Separable certificate
through the rank-4 workload, checks that the gate accepts it and rejects
it with one product scaled, and that a 1 s rank4-3x3 run returning such
certificates exits with code 1.
"""

import gc
import importlib
import signal
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_bench_gate_trips_on_a_corrupted_separable_certificate(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(PERFBENCH)] + sys.path)
    sigterm = signal.getsignal(signal.SIGTERM)
    import selfcheck

    try:
        selfcheck.check_gate_trips()
    finally:
        # the run installs a SIGTERM handler and freezes the heap
        signal.signal(signal.SIGTERM, sigterm)
        gc.unfreeze()


def test_every_name_the_traced_run_wraps_resolves(monkeypatch):
    # perfbench/spans.py wraps each (module, attribute) by name, so a name
    # the library drops fails `run.py --trace 1` with AttributeError
    monkeypatch.setattr(sys, "path", [str(PERFBENCH)] + sys.path)
    import spans

    missing = []
    for module, attr in spans.TARGETS:
        owner = importlib.import_module("entcert." + module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing, "traced names that no longer resolve: " + ", ".join(missing)
