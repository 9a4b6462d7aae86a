"""Spans around the public functions of entcert, installed from outside.

The library has no tracing of its own yet, so the traced run replaces
each listed function with a wrapper in every entcert namespace that
bound it (``rank4`` and ``structure`` both do ``from .product_search
import rank_one_in_span``; patching ``product_search`` alone would miss
their calls).  Imports made inside a function body read the patched
module attribute at call time, so they are covered too.

A span records (id, name, start, end, parent id, call id).  Self time is
a span's duration minus the durations of its direct child spans, so
recursive calls such as ``classify_state`` are not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# (module, attribute path) of every wrapped public function
TARGETS = [
    ("product_search", "rank_one_in_span"),
    ("product_search", "find_product_vector"),
    ("product_search", "hypersurface_value"),
    ("structure", "decompose_b_direct"),
    ("structure", "common_kernel_distill"),
    ("structure", "aggregate"),
    ("criteria", "is_ppt"),
    ("criteria", "trivially_distillable"),
    ("criteria", "schmidt2_witness"),
    ("criteria", "classify_rank_le_max"),
    ("criteria", "restrict_to_local_ranges"),
    ("criteria", "reduction_criterion"),
    ("states", "block_form"),
    ("states", "partial_transpose"),
    ("states", "apply_local"),
    ("states", "BipartiteState.rank"),
    ("states", "BipartiteState.local_ranks"),
    ("linalg", "hermitian_eigen"),
    ("linalg", "numerical_rank"),
    ("rank4", "decide_rank4"),
    ("rank4", "separable_decomposition"),
    ("rank4", "separable_decomposition_rank_n"),
    ("analyze", "classify_state"),
    ("certificates", "validate_certificate"),
    ("certificates", "validate_witness"),
    ("families", "classify_checkerboard"),
    ("tripartite", "classify_pairs"),
    ("tripartite", "ghz_test"),
    ("io", "load_state"),
    ("io", "save_state"),
]

# first trail tag of every route decide_rank4 can return
RANK4_ROUTES = [
    "max-local-rank-4",
    "small-locals",
    "reducible-b",
    "reducible-a",
    "sector-rank-1",
    "product-in-range",
    "no-product-in-range",
]

# subcommands the cli-fixtures workload times
CLI_SUBCOMMANDS = ["analyze", "product-test"]


def _outcome(name, result):
    """Tag for the ratio metrics, read from a wrapped function's result."""
    if name == "product_search.rank_one_in_span":
        return "found" if result.found else "notfound"
    if name == "structure.decompose_b_direct":
        return "irreducible" if result.irreducible else "reducible"
    if name == "criteria.schmidt2_witness":
        return "notfound" if result is None else "found"
    if name == "rank4.decide_rank4":
        return "route." + result.trail[0]
    return None


class Tracer:
    """In-memory span recorder; records only while a call id is set."""

    def __init__(self):
        self.spans = []
        self.names = []
        self._name_ids = {}
        self._stack = []  # [span id, child seconds]
        self.call_id = None
        self.calls = {}
        self.self_s = {}
        self.outcomes = {}  # (name, tag) -> [count, self seconds]
        self._restore = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, args, kwargs):
        if self.call_id is None:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        self.spans.append(None)
        result, returned = None, False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            own = dur - frame[1]
            if name == "cli.main":
                name = "cli.main." + str(args[0][0])
            self.spans[sid] = (sid, self._name_id(name), start, end, parent,
                               self.call_id)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            if returned:
                tag = _outcome(name, result)
                if tag is not None:
                    slot = self.outcomes.setdefault((name, tag), [0, 0.0])
                    slot[0] += 1
                    slot[1] += own

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs)

        return wrapper

    def install(self):
        """Patch every entcert namespace that binds a target function."""
        import importlib

        targets = list(TARGETS) + [("cli", "main")]
        mods = {m: importlib.import_module("entcert." + m)
                for m in {t[0] for t in targets}}
        originals = {}
        for module, attr in targets:
            owner = mods[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            wrapper = self._wrap(f"{module}.{attr}", fn)
            if isinstance(owner, type):
                self._restore.append((owner, leaf, fn))
                setattr(owner, leaf, wrapper)
            else:
                originals[id(fn)] = (fn, wrapper)
        for modname, mod in list(sys.modules.items()):
            if not (modname == "entcert" or modname.startswith("entcert.")):
                continue
            for key, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, hit[1])

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def metrics(self):
        """Per-layer counts and self times, every name present (0 if unseen)."""
        out = {}
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            out[name + ".calls"] = (self.calls.get(name, 0), "count")
            out[name + ".self_s"] = (self.self_s.get(name, 0.0), "s")

        def tagged(name, tag):
            return self.outcomes.get((name, tag), [0, 0.0])

        r1 = "product_search.rank_one_in_span"
        found, notfound = tagged(r1, "found"), tagged(r1, "notfound")
        out[r1 + ".found_ratio"] = (_ratio(found[0], found[0] + notfound[0]), "ratio")
        out[r1 + ".found_self_s"] = (found[1], "s")
        out[r1 + ".notfound_self_s"] = (notfound[1], "s")
        bd = "structure.decompose_b_direct"
        red, irr = tagged(bd, "reducible"), tagged(bd, "irreducible")
        out[bd + ".reducible_ratio"] = (_ratio(red[0], red[0] + irr[0]), "ratio")
        s2 = "criteria.schmidt2_witness"
        hit, miss = tagged(s2, "found"), tagged(s2, "notfound")
        out[s2 + ".found_ratio"] = (_ratio(hit[0], hit[0] + miss[0]), "ratio")
        for route in RANK4_ROUTES:
            out[f"rank4.route.{route}.calls"] = (
                tagged("rank4.decide_rank4", "route." + route)[0], "count")
        for sub in CLI_SUBCOMMANDS:
            name = "cli.main." + sub
            out[name + ".calls"] = (self.calls.get(name, 0), "count")
            out[name + ".self_s"] = (self.self_s.get(name, 0.0), "s")
        return out

    def write(self, path, header):
        """Write the spans as gzipped JSON lines: a header, then one span a line."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({**header, "span_fields":
                                 ["id", "name", "start", "end", "parent", "call"],
                                 "names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
