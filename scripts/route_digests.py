"""Digests of the verdicts on the routes that the other digest scripts miss.

The benchmark corpora and the CLI fixtures never reach the eigen-frame
search (the 2-frames read off the eigenvectors of rho^G) of the rank-4
tree or of the NPT chain (criteria._npt_witness: the coordinate scan,
then the eigen-frames), the B-direct aggregation or an int-seeded
reducible-b verdict.  This script runs seeded inputs through each of
them.  The pair-fallback, aggregate and reducible-b verdicts do not
depend on a seed: the eigen-frames draw nothing, and the B-direct split
is a fixed choice.

  eigen-frames   662 NPT near-PPT checkerboards (one parameter of
                 checkerboard_ppt_instance moved by 10^U(-9,-6) e^{i theta},
                 default_rng(5)), through decide_rank4;
  eigen-frames-unitary
                 the same items under a random local unitary U_A (x) U_B
                 each (default_rng(6)), where the verdicts must not move;
  eigen-frames-high-rank
                 NPT states of rank 5-7 in 3x3, 3x4 and 4x4
                 (default_rng(3)), through classify_state, with the
                 NPT chain's coordinate scan made to miss;
  pair-fallback  NPT states of rank 3 in 3x3 and rank 4 in 3x4
                 (default_rng(4)), through classify_rank_le_max, with the
                 NPT chain's scan made to miss, so that the eigen-frames
                 decide them where the rank = max local rank theorem's
                 2xN projection once did;
  sector         20 NPT 3x3 rank-4 states with a rank-1 B sector
                 (default_rng(41)), through decide_rank4, with its
                 coordinate 2x3 scan made to miss;
  cascade        600 sums of 4 random 3x3 products, the last 3 moved by
                 1e-4 (complex Gaussian), under A (x) B of condition
                 number 10 (default_rng(31)), through decide_rank4;
  near-product-ilo
                 25 such sums per move 1e-6, 1e-4, 1e-2 and condition
                 number 1, 10, 100, 1e3 (default_rng(32)), then 20
                 rank-1-sector states per condition number 1, 10, 100
                 (default_rng(42)), through decide_rank4, with its
                 coordinate 2x3 scan made to miss;
  aggregate      make_reducible_4x4_example under random invertible
                 local maps (default_rng(8)), through decompose_b_direct,
                 classify_state on each component (seed 0) and aggregate;
  reducible-b    12 PPT 3x3 rank-4 states a (x) C^2 on B levels 0, 1 plus
                 two products on B level 2, whose range holds product
                 families, under random invertible local maps
                 (default_rng(12)), through decide_rank4 with the item's
                 index as its int seed; step (0)'s enumeration draws,
                 and the B-direct split that follows draws nothing.

A scan "made to miss" returns None to the one caller named, and stays
real for every other caller.  In a checkout without the NPT chain, the
caller is the one that ran the scan there (rank4._npt_certificate or
criteria._distill_rank_max), so that --src runs an older checkout too.
An irreducible NPT state of the sector, cascade and near-product-ilo
routes that the scan misses goes to the eigen-frames, whose calls those
routes count.  For each route it prints the number of calls of the
route's function, in every entcert module that binds it (`-` where the
checkout has no such function), the count of each trail (the
certificate type where the entry point has no trail, and the exception
type where it raises) and one sha256 over every result, hashed field by
field as `scripts/corpus_digests.py` does.  The last line digests all lines.

    python3 scripts/route_digests.py                 # this checkout
    python3 scripts/route_digests.py --src OTHER/src # another one

Two checkouts return byte-identical results on a route iff its lines
are equal.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import Counter
from contextlib import ExitStack, nullcontext
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np

from corpus_digests import _feed

ROOT = Path(__file__).resolve().parent.parent


def _miss_scan(*callers):
    """A patch of module.schmidt2_witness that finds nothing when called
    from module.caller, for the first (module, caller) of callers that
    the checkout has."""
    module, caller = next((m, c) for m, c in callers if hasattr(m, c))
    scan, code = module.schmidt2_witness, getattr(module, caller).__code__

    def missing(state):
        return None if sys._getframe(1).f_code is code else scan(state)

    return mock.patch.object(module, "schmidt2_witness", missing)


def _counted(module, name, calls):
    """Patches of module.name, and of every entcert module that binds the
    same function, that count its calls in calls[0]; a module without
    name gets no patch and calls[0] None."""
    if (func := getattr(module, name, None)) is None:
        calls[0] = None
        return nullcontext()

    def counted(*args, **kwargs):
        calls[0] += 1
        return func(*args, **kwargs)

    stack = ExitStack()
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("entcert") and vars(mod).get(name) is func:
            stack.enter_context(mock.patch.object(mod, name, counted))
    return stack


def _routes():
    """(name, module, function counted, patches, items, call) per route;
    call returns (trail, result)."""
    from entcert import criteria, families, rank4, structure
    from entcert.criteria import classify_rank_le_max, is_ppt
    from entcert.random_states import (
        complex_gaussian, random_invertible, random_rank_r_state, random_unitary,
    )
    from entcert.states import BipartiteState, apply_local

    def decided(state, seed=0):
        verdict = rank4.decide_rank4(state, rng=seed)
        return verdict.trail, verdict.outcome

    def classified(classify):
        def call(state):
            cert = classify(state)
            return (type(cert).__name__,), cert
        return call

    def npt(states):
        return [s for s in states if not is_ppt(s)[0]]

    def ilo(kappa, rng):
        """random_unitary . diag(1 .. 1/kappa) . random_unitary"""
        s = np.diag(np.logspace(0, -np.log10(kappa), 3))
        return random_unitary(3, rng) @ s @ random_unitary(3, rng)

    def near_product(move, kappa, rng):
        prods = [np.kron(complex_gaussian(rng, 3), complex_gaussian(rng, 3)) for _ in range(4)]
        moved = [p + move * complex_gaussian(rng, 9) for p in prods[1:]]
        a, b = ilo(kappa, rng), ilo(kappa, rng)
        return apply_local(BipartiteState.from_vectors(3, 3, prods[:1] + moved), a, b)

    def sector(rng, local=partial(random_invertible, 3)):
        c1 = np.zeros((4, 3), complex)
        c1[0, 0] = 1.0
        w = np.hstack([c1, complex_gaussian(rng, (4, 3)), complex_gaussian(rng, (4, 3))])
        return apply_local(BipartiteState(3, 3, w.conj().T @ w), local(rng), local(rng))

    rng = np.random.default_rng(5)
    names = [f.name for f in fields(families.CheckerboardParams)]
    checkerboards = []
    for s in range(1500):
        name = names[rng.integers(len(names))]
        delta = 10 ** rng.uniform(-9, -6) * np.exp(2j * np.pi * rng.uniform())
        params, _ = families.checkerboard_ppt_instance(s % 20)
        checkerboards.append(families.make_checkerboard(
            replace(params, **{name: getattr(params, name) + delta})))

    checkerboards = npt(checkerboards)
    rng = np.random.default_rng(6)
    rotated = [apply_local(s, random_unitary(3, rng), random_unitary(3, rng))
               for s in checkerboards]

    rng = np.random.default_rng(3)
    high_rank = [random_rank_r_state(m, n, r, rng)
                 for m, n in ((3, 3), (3, 4), (4, 4)) for r in (5, 6, 7) for _ in range(12)]

    rng = np.random.default_rng(4)
    rank_max = [random_rank_r_state(m, n, n, rng) for m, n in ((3, 3), (3, 4)) for _ in range(20)]

    rng = np.random.default_rng(41)
    sectors = [sector(rng) for _ in range(20)]

    rng = np.random.default_rng(31)
    near_products = [near_product(1e-4, 10, rng) for _ in range(600)]

    rng = np.random.default_rng(32)
    near_ilo = [near_product(move, kappa, rng) for move in (1e-6, 1e-4, 1e-2)
                for kappa in (1, 10, 100, 1e3) for _ in range(25)]
    rng = np.random.default_rng(42)
    near_ilo += [sector(rng, partial(ilo, kappa)) for kappa in (1, 10, 100) for _ in range(20)]

    rng = np.random.default_rng(8)
    example = families.make_reducible_4x4_example()[0]
    reducible = [apply_local(example, random_invertible(4, rng), random_invertible(4, rng))
                 for _ in range(20)]

    rng = np.random.default_rng(12)
    e = np.eye(3)
    b_reducible = []
    for _ in range(4):
        a = complex_gaussian(rng, 3)
        vecs = [np.kron(a, e[0]), np.kron(a, e[1]),
                np.kron(complex_gaussian(rng, 3), e[2]), np.kron(complex_gaussian(rng, 3), e[2])]
        b_reducible += [apply_local(BipartiteState.from_vectors(3, 3, vecs),
                                    random_invertible(3, rng), random_invertible(3, rng))
                        for _ in range(3)]
    seeds = iter(range(len(b_reducible)))

    def aggregated(state):
        decomp = structure.decompose_b_direct(state)
        cert = rank4.aggregate(decomp, [rank4.classify_state(c, rng=0)
                                        for c in decomp.components])
        return (type(cert).__name__,), cert

    return [
        ("eigen-frames", rank4, "_eigen_frame_witness", [], checkerboards, decided),
        ("eigen-frames-unitary", rank4, "_eigen_frame_witness", [], rotated, decided),
        ("eigen-frames-high-rank", criteria, "_eigen_frame_witness",
         [_miss_scan((criteria, "_npt_witness"), (rank4, "_npt_certificate"))], npt(high_rank),
         classified(lambda s: rank4.classify_state(s, rng=0))),
        ("pair-fallback", criteria, "_eigen_frame_witness",
         [_miss_scan((criteria, "_npt_witness"), (criteria, "_distill_rank_max"))],
         npt(rank_max), classified(classify_rank_le_max)),
        ("sector", rank4, "_eigen_frame_witness", [_miss_scan((rank4, "_decide_rank4_local"))],
         sectors, decided),
        ("cascade", rank4, "_eigen_frame_witness", [], near_products, decided),
        ("near-product-ilo", rank4, "_eigen_frame_witness",
         [_miss_scan((rank4, "_decide_rank4_local"))], near_ilo, decided),
        ("aggregate", rank4, "aggregate", [], reducible, aggregated),
        ("reducible-b", rank4, "_reducible_verdict", [], b_reducible,
         lambda s: decided(s, next(seeds))),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src directory of the checkout to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))

    lines = []
    for name, module, func, patches, items, call in _routes():
        calls, trails, h = [0], Counter(), hashlib.sha256()
        with ExitStack() as stack:
            for patch in patches + [_counted(module, func, calls)]:
                stack.enter_context(patch)
            for state in items:
                try:
                    trail, result = call(state)
                except (ArithmeticError, RuntimeError, ValueError) as exc:
                    trail, result = (type(exc).__name__,), str(exc)
                trails["/".join(trail)] += 1
                _feed(h, result)
        counts = " ".join(f"{t}={c}" for t, c in sorted(trails.items()))
        n_calls = "-" if calls[0] is None else calls[0]
        lines.append(f"{name} items={len(items)} calls={n_calls} {counts} {h.hexdigest()}")
    for line in lines:
        print(line)
    print(f"all {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
