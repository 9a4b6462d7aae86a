"""entcert benchmark: one closed-loop caller, one workload per run.

    python3 perfbench/run.py --workload rank4-3x3 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The seed fixes the inputs.  With ``--trace 0`` the verdict
calls run for ``--seconds`` and the end-to-end metrics are reported;
with ``--trace 1`` a fixed number of calls runs with spans installed
around the library's public functions, then again without them, and
the per-layer metrics are reported.  Every verdict is checked against
the ground truth of its input; a wrong one ends the run with exit
code 1.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
is the run record and the full report.

Workloads (see README.md in this directory for seeds and predictions):
  rank4-3x3       decide_rank4 on seeded 3x3 rank-4 states
  classify-mixed  classify_state, classify_checkerboard, classify_pairs
                  and ghz_test on a mix of low-rank inputs
  cli-fixtures    cold `python -m entcert.cli` processes, one at a time
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3


def _fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def run_record(args):
    import numpy as np

    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "entcert").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def child_import_seconds(statement, env):
    """Wall time of a fresh interpreter that runs `statement`."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", statement], env=env,
                          capture_output=True, text=True, timeout=120)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"`{statement}` failed: {proc.stderr.strip()}")
    return took


def percentile_ms(latencies, q):
    import numpy as np

    return float(np.percentile(np.asarray(latencies) * 1e3, q))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class InProcess:
    """A workload whose verdict call is a library function in this process."""

    compact_repeats = True  # results are objects; keep repeats as Repeat

    def __init__(self, import_stmt, build, call, check, cycles, warmup,
                 trace_calls):
        self.import_stmt = import_stmt
        self.build = build
        self.call = call
        self.check = check
        self.cycles = cycles
        self.trace_calls = trace_calls
        self.warmup = warmup
        self.corpus = None
        self.import_samples = []

    def setup(self, seed, env):
        samples = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            self.import_samples.append(child_import_seconds(self.import_stmt, env))
            corpus = self.build(seed, self.cycles)
            samples.append(time.perf_counter() - start)
            self.corpus = self.corpus or corpus
        return samples

    def invoke(self, item):
        return self.call(item)

    invoke_traced = invoke

    def gate(self, item, out):
        return self.check(item, out)

    def close(self):
        pass


class Cli:
    """Cold `python -m entcert.cli` processes on generated fixture files."""

    import_stmt = "import entcert.cli"
    compact_repeats = False  # results are small; repeats are gated in full
    cycles = 12
    warmup = 2
    trace_calls = 90

    def __init__(self):
        self.corpus = None
        self.import_samples = []
        self.env = None
        self.workdir = None
        self._loaded = {}

    def setup(self, seed, env):
        from workloads import WrongVerdict, generate_cli_corpus

        self.env = env
        self.workdir = WORK / f"cli-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        samples, fixtures = [], []
        for rep in range(SETUP_REPS):
            repdir = self.workdir / f"rep{rep}"
            repdir.mkdir(parents=True)
            start = time.perf_counter()
            self.import_samples.append(child_import_seconds(self.import_stmt, env))
            corpus = generate_cli_corpus(seed, self.cycles, str(repdir), env)
            samples.append(time.perf_counter() - start)
            fixtures.append({p.name: p.read_bytes() for p in repdir.iterdir()})
            self.corpus = self.corpus or corpus
        if any(f != fixtures[0] for f in fixtures[1:]):
            raise WrongVerdict("two set-ups with the same seed wrote different files")
        return samples

    def invoke(self, item):
        from workloads import run_cli

        proc = run_cli(item.data, self.env)
        return proc.returncode, proc.stdout

    def invoke_traced(self, item):
        import entcert.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entcert.cli.main(list(item.data))
        return code, out.getvalue()

    def _load(self, path):
        from entcert.io import load_state

        if path not in self._loaded:
            self._loaded[path] = load_state(path)
        return self._loaded[path]

    def gate(self, item, out):
        from workloads import check_cli

        code, stdout = out
        return check_cli(item, code, stdout, self._load)

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def make_workload(name):
    import workloads as w

    if name == "rank4-3x3":
        return InProcess("import entcert.rank4", w.build_rank4,
                         w.call_rank4, w.check_rank4, cycles=50,
                         warmup=len(w.RANK4_CYCLE), trace_calls=50)
    if name == "classify-mixed":
        return InProcess("import entcert.analyze, entcert.families, "
                         "entcert.tripartite, entcert.rank4",
                         w.build_mixed, w.call_mixed, w.check_mixed,
                         cycles=100, warmup=len(w.MIXED_CYCLE), trace_calls=1200)
    if name == "cli-fixtures":
        return Cli()
    raise ValueError(name)


WORKLOAD_NAMES = ["rank4-3x3", "classify-mixed", "cli-fixtures"]


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Repeat:
    """Verdict classes of a call repeated from a reused corpus.  Only these
    are kept, so memory does not grow with the number of calls."""

    def __init__(self, out):
        self.summary = summarize(out)


def summarize(out):
    if isinstance(out, tuple):
        return tuple(summarize(o) for o in out)
    if hasattr(out, "outcome"):
        out = out.outcome
    if hasattr(out, "certificates"):
        return summarize(tuple(out.certificates.values()))
    return out if isinstance(out, (bool, int, str)) else type(out).__name__


def closed_loop(items, invoke, deadline=None, cyclic=False, compact=False):
    """Call invoke on each item in turn, the next only after the last
    returns.  Stops after the items (or, cyclic, reuses them) or at the
    first call that ends past the deadline.  With compact, a reused
    item's result is kept as a Repeat.
    Returns (results, latencies, wall seconds)."""
    from entcert.certificates import UndecidableError

    results, latencies = [], []
    start = time.perf_counter()
    i = 0
    while True:
        if i == len(items) and not cyclic:
            break
        item = items[i % len(items)]
        t0 = time.perf_counter()
        try:
            out, status = invoke(item), None
        except UndecidableError:
            out, status = None, "undecided"
        except Exception:  # counted in error_frac, reported on stderr
            out, status = traceback.format_exc(limit=3), "error"
        latencies.append(time.perf_counter() - t0)
        if compact and i >= len(items) and status is None:
            out = Repeat(out)
        results.append((item, out, status))
        i += 1
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return results, latencies, time.perf_counter() - start


def freeze_heap():
    """The corpus is the harness's data: keep the cyclic garbage collector
    from walking it again and again inside the timed calls."""
    gc.collect()
    gc.freeze()


def host_steal(since=None):
    """Share of CPU time the hypervisor took from this machine since `since`."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None
    now = (fields[7], sum(fields))
    if since is None:
        return now
    return (now[0] - since[0]) / max(now[1] - since[1], 1)


def by_kind(results, latencies):
    """Median latency and call count of each input kind."""
    groups = {}
    for (item, _, _), dt in zip(results, latencies):
        key = item.kind if item.kind not in ("analyze", "product-test") \
            else f"{item.kind}:{item.truth}"
        groups.setdefault(key, []).append(dt * 1e3)
    return {k: [statistics.median(v), len(v)] for k, v in sorted(groups.items())}


def gate_results(workload, results):
    """Check every result; returns counts.  Raises WrongVerdict.

    The first call of each input is checked in full.  A repeated call
    (same input, same seed) must return the same verdict classes."""
    from workloads import WrongVerdict

    counts = {"ok": 0, "undecided": 0, "error": 0}
    payloads = {}
    first = {}  # id(item) -> (verdict classes, status) of its first call
    for item, out, status in results:
        if isinstance(out, Repeat):
            summary, status = first.get(id(item), (None, None))
            if out.summary != summary:
                raise WrongVerdict(f"a repeated {item.kind} call returned "
                                   f"{out.summary}, the first {summary}")
        else:
            if status is None:
                status = workload.gate(item, out)
            first.setdefault(id(item), (summarize(out), status))
        if status == "error":
            sys.stderr.write(f"perfbench: {item.kind} call failed: {out}\n")
        counts[status] += 1
        if isinstance(workload, Cli) and status == "ok":
            key = tuple(item.data)
            payload = json.dumps(json.loads(out[1])["payload"], sort_keys=True)
            if payloads.setdefault(key, payload) != payload:
                raise WrongVerdict(f"payload of `entcert {' '.join(key)}` changed "
                                "between two runs with the same seed")
    return counts


def run(args):
    from workloads import WrongVerdict, cli_env

    env = cli_env(str(SRC))
    workload = make_workload(args.workload)
    report = {}
    try:
        setup = workload.setup(args.seed, env)
        corpus = workload.corpus
        report["setup_samples_s"] = setup
        if args.trace:
            metrics, results, extra = traced(workload, corpus, args, env)
            report.update(extra)
        else:
            closed_loop(corpus[:workload.warmup], workload.invoke)
            freeze_heap()
            steal0 = host_steal()
            deadline = time.perf_counter() + args.seconds
            results, latencies, wall = closed_loop(
                corpus, workload.invoke, deadline, cyclic=True,
                compact=workload.compact_repeats)
            rusage = resource.RUSAGE_CHILDREN if isinstance(workload, Cli) \
                else resource.RUSAGE_SELF
            n = len(results)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "calls_per_s": (n / wall, "1/s"),
                "call_ms.p50": (percentile_ms(latencies, 50), "ms"),
                "call_ms.p90": (percentile_ms(latencies, 90), "ms"),
                "peak_rss_mb": (resource.getrusage(rusage).ru_maxrss / 1024.0, "MB"),
            }
            report["call_ms.samples"] = n
            report["call_ms.p50_by_kind"] = by_kind(results, latencies)
            report["wall_s"] = wall
            report["host_steal_frac"] = host_steal(steal0)
        try:
            counts = gate_results(workload, results)
            correct = True
        except WrongVerdict as exc:
            sys.stderr.write(f"perfbench: WRONG VERDICT: {exc}\n")
            counts, correct = None, False
    finally:
        workload.close()
    attempted = len(results)
    if counts is not None:
        report["error_frac"] = counts["error"] / attempted
        report["undecided_frac"] = counts["undecided"] / attempted
    report["attempted"] = attempted
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": counts["error"] if counts else 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, report


def traced(workload, corpus, args, env):
    """Traced calls, then the same calls untraced; per-layer metrics."""
    from spans import Tracer

    import_samples = workload.import_samples
    if not isinstance(workload, Cli):
        import_samples = [child_import_seconds(Cli.import_stmt, env)
                          for _ in range(SETUP_REPS)]
    items = corpus[:workload.trace_calls]
    invoke = workload.invoke_traced
    closed_loop(items[:workload.warmup], invoke)
    freeze_heap()
    tracer = Tracer()
    tracer.install()
    try:
        call_ids = itertools.count()

        def traced_invoke(item):
            tracer.call_id = next(call_ids)
            try:
                return invoke(item)
            finally:
                tracer.call_id = None

        # the cap keeps a slow host inside --seconds; it does not bind at
        # the run_seconds of BENCHMARK.json on the reference machine
        deadline = time.perf_counter() + args.seconds / 2
        results, _, traced_wall = closed_loop(items, traced_invoke, deadline)
    finally:
        tracer.uninstall()
    _, _, plain_wall = closed_loop(items[:len(results)], invoke)
    metrics = tracer.metrics()
    metrics["cli.import_s"] = (statistics.median(import_samples), "s")
    metrics["trace_overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed})
    return metrics, results, {"traced_wall_s": traced_wall,
                              "untraced_wall_s": plain_wall,
                              "spans": len(tracer.spans),
                              "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps its child and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "entcert" / "__init__.py").is_file():
        return _fail(f"no entcert sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import entcert

    if Path(entcert.__file__).resolve().parent != (SRC / "entcert").resolve():
        return _fail(f"imported entcert from {entcert.__file__}, not {SRC}")
    record = run_record(args)
    result, report = run(args)
    print(json.dumps({"run_record": record, "report": report,
                      "metrics": result["metrics"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
