"""The package's modules import each other at module level, in one direction,
only linalg applies the rank cutoff and calls np.kron, states counts
ranks with psd_eigen, the common eigenbases of commuting normal block
families come from linalg.common_eigenbasis, the witness constructions
that theorems back draw no random numbers, only named functions of
criteria, structure and tripartite take a seed or draw, the NPT routes
from the max local rank up open with the coordinate scan, no function
takes a restart budget, only the public verdict functions check certificates,
the rank-4 tree never uses the trivial-submatrix scan and reads range
products in one helper, the named families compute no witness,
criteria.Frame alone maps results on a transformed state back, and one
helper values every 2-frame projection of rho^G.

Reads the source with ast only (nothing is imported), so a cycle that
an import inside a function would hide at load time is still reported.
"""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "entcert"


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(tree, names):
    """Sibling modules named by any import statement of one module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(a.name for a in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("entcert."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("entcert."))
    return found & names


def test_no_function_level_imports():
    nested = {}
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    nested[f"{name}.py:{node.lineno}"] = None
    assert not nested, "imports inside function bodies: " + ", ".join(nested)


def test_import_graph_is_acyclic():
    modules = _modules()
    names = set(modules) - {"__init__"}
    graph = {name: _imported_modules(modules[name], names) - {name}
             for name in names}
    # raises graphlib.CycleError naming the cycle
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert set(order) == names


def test_rank_cutoff_is_applied_only_in_linalg():
    calls = [f"{name}.py:{node.lineno}"
             for name, tree in _modules().items() if name != "linalg"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "rank_cutoff"]
    assert not calls, "rank cutoffs outside linalg: " + ", ".join(calls)


def test_np_kron_is_called_only_in_linalg():
    # linalg.kron gives np.kron's bytes for vectors and matrices at a
    # fraction of its cost; every other module goes through it
    calls = [f"{name}.py:{node.lineno}"
             for name, tree in _modules().items() if name != "linalg"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "kron" and getattr(node.func.value, "id", None) == "np"]
    assert not calls, "np.kron outside linalg: " + ", ".join(calls)


def test_states_counts_ranks_only_through_psd_eigen():
    # a singular-value count disagrees with range_basis on a state whose
    # tiny negative eigenvalues pass the PSD floor
    tree = _modules()["states"]
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and "numerical_rank" in
             {getattr(node.func, "id", None), getattr(node.func, "attr", None)}]
    assert not calls, f"states.py calls numerical_rank at lines {calls}"


def test_common_eigenbases_come_from_linalg():
    # linalg.common_eigenbasis is the one owner of the commuting normal
    # family's eigenbasis and of its tolerance; these callers do not
    # diagonalize by themselves
    modules = _modules()
    for module, func_name in (("criteria", "_rank_n_products"), ("structure", "classical_side")):
        func = next(node for node in ast.walk(modules[module])
                    if isinstance(node, ast.FunctionDef) and node.name == func_name)
        called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                  for node in ast.walk(func) if isinstance(node, ast.Call)}
        assert "common_eigenbasis" in called, f"{module}.{func_name} skips common_eigenbasis"
        assert "eigh" not in called, f"{module}.{func_name} calls eigh"


def test_theorem_backed_witnesses_draw_no_random_numbers():
    # the rank < max local rank construction, the 2xN block scan and the
    # eigen-frames of rho^G each certify by construction; a random draw
    # in them would make a verdict depend on the seed
    modules = _modules()
    for module, func_name in (("criteria", "schmidt2_witness"),
                              ("criteria", "reduction_criterion"),
                              ("criteria", "_eigen_frame_witness"),
                              ("structure", "common_kernel_distill")):
        func = next(node for node in ast.walk(modules[module])
                    if isinstance(node, ast.FunctionDef) and node.name == func_name)
        called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                  for node in ast.walk(func) if isinstance(node, ast.Call)}
        drawn = called & {"complex_gaussian", "unit_disc"}
        assert not drawn, f"{module}.{func_name} calls {sorted(drawn)}"
    # the NPT routes at and above the max local rank open with the
    # coordinate scan, so the full-rank direction, the eigen-frames or the
    # reduction split runs only when it misses
    constructions = {"reduction_criterion", "_full_rank_direction", "_eigen_frame_witness"}
    for module, func_name in (("criteria", "_distill_rank_max"), ("rank4", "_npt_certificate")):
        func = next(node for node in ast.walk(modules[module])
                    if isinstance(node, ast.FunctionDef) and node.name == func_name)
        names = [name for *_, name in sorted(
            (node.lineno, node.col_offset,
             getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            for node in ast.walk(func) if isinstance(node, ast.Call))]
        assert "schmidt2_witness" in names, f"{module}.{func_name} skips the scan"
        early = constructions & set(names[:names.index("schmidt2_witness")])
        assert not early, f"{module}.{func_name} calls {sorted(early)} before the scan"


def test_no_function_takes_a_restart_budget():
    # the product search enumerates every candidate, so "not found" is a
    # proof; a restart count would only feed a search whose miss proves
    # nothing
    found = [f"{name}.{node.name}"
             for name, tree in _modules().items()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for arg in ast.walk(node.args)
             if isinstance(arg, ast.arg) and arg.arg == "restarts"]
    assert not found, "functions with a restarts parameter: " + ", ".join(found)


# each returns a Separable or Distillable it checked against its argument
CHECKING_FUNCTIONS = {
    "rank4.decide_rank4", "rank4.classify_state", "rank4.separable_decomposition",
    "criteria.classify_rank_le_max", "criteria.separable_decomposition_rank_n",
    "criteria.certify_pure_plus_sigma", "structure.common_kernel_distill",
    "tripartite.classify_pairs",
}


def test_only_public_verdict_functions_check_certificates():
    # internal code builds certificates unchecked and each public verdict
    # function checks the one it returns, so no private function, no
    # method of Frame and no other helper checks one.  The CLI
    # re-checks what it prints, and is left out
    checkers = {"validate_certificate", "validate_witness"}
    callers = set()
    for name, tree in _modules().items():
        if name in ("certificates", "cli"):
            continue
        owners = {id(func): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for func in cls.body if isinstance(func, ast.FunctionDef)}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and checkers & {
                    getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    for node in ast.walk(func) if isinstance(node, ast.Call)}:
                owner = owners.get(id(func))
                callers.add(f"{name}.{owner}.{func.name}" if owner else f"{name}.{func.name}")
    private = sorted(c for c in callers if c.split(".")[-1].startswith("_")
                     or c.split(".")[1] == "Frame")
    assert not private, "certificates checked inside " + ", ".join(private)
    assert callers == CHECKING_FUNCTIONS


def test_rank4_never_references_trivially_distillable():
    # a negative trivial 2x2 submatrix of rho^G lies in an A-pair block,
    # whose 2xN scan then finds a witness at least as negative, so the
    # rank-4 tree certifies with schmidt2_witness alone
    names = [f"rank4.py:{node.lineno}" for node in ast.walk(_modules()["rank4"])
             if "trivially_distillable" in {getattr(node, "id", None), getattr(node, "attr", None),
                                            getattr(node, "name", None)}]
    assert not names, "rank4 references trivially_distillable at " + ", ".join(names)


def test_families_compute_no_witness():
    # classify_checkerboard passes classify_state's checked verdict
    # through; the eigen-frame search lives in criteria, and only rank4
    # runs it
    banned = {"partial_transpose", "eigh", "trivially_distillable", "validate_certificate"}
    calls = [f"families.py:{node.lineno} {called}"
             for node in ast.walk(_modules()["families"]) if isinstance(node, ast.Call)
             for called in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
             if called in banned]
    assert not calls, "families computes a witness: " + ", ".join(calls)


def test_only_the_rank4_tree_runs_the_projection_sweep():
    # the eigen-frame search runs where a coordinate scan misses: at step
    # (d) of the rank-4 tree and in classify_state's general branch
    assert _callers("_eigen_frame_witness") == {"rank4._decide_rank4_local",
                                                "rank4._npt_certificate"}


def test_rank4_reads_range_products_in_one_helper():
    # the 3x3 tree's step (0) and the 2xN peeling end a separable state
    # by the same readout, whose one SVD per subset gives both the rank
    # test and the pseudo-inverse, so no np.linalg.pinv is left in rank4
    tree = _modules()["rank4"]
    funcs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for caller in ("_peel_two_by_n", "_decide_rank4_local"):
        called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                  for node in ast.walk(funcs[caller]) if isinstance(node, ast.Call)}
        assert "_range_product_basis" in called, f"rank4.{caller} skips _range_product_basis"
    pinv = sorted({name for name, func in funcs.items()
                   for node in ast.walk(func) if isinstance(node, ast.Call)
                   and getattr(node.func, "attr", None) == "pinv"})
    assert pinv == [], "rank4 calls pinv in " + ", ".join(pinv)


def _callers(name):
    """module.[Class.]function of every top-level function or method that
    calls name; nested functions count as their enclosing one."""
    callers = set()
    for module, tree in _modules().items():
        scopes = [(f"{module}.{node.name}", node) for node in tree.body
                  if isinstance(node, ast.FunctionDef)]
        scopes += [(f"{module}.{cls.name}.{node.name}", node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)]
        for qualname, func in scopes:
            if any(isinstance(node, ast.Call) and name in {getattr(node.func, "id", None),
                                                          getattr(node.func, "attr", None)}
                   for node in ast.walk(func)):
                callers.add(qualname)
    return callers


def test_dispatchers_pass_the_seed_through():
    # a Generator is built from an int seed only in the function that
    # draws, after its early returns, so a route that draws nothing
    # builds none.  These pass the seed on to the enumeration of
    # rank_one_in_span and to the 2xN peeling
    dispatchers = {"rank4.decide_rank4", "rank4._decide_rank4_local", "rank4._ppt_products",
                   "rank4._reducible_verdict", "rank4.classify_state", "rank4._npt_certificate",
                   "structure.common_kernel_distill", "tripartite.classify_pairs"}
    converting = dispatchers & _callers("as_rng")
    assert not converting, "as_rng called in " + ", ".join(sorted(converting))


# the only functions of criteria, structure and tripartite that take a
# seed: full_rank_property samples for its "violated" verdict,
# common_kernel_distill and classify_pairs pass theirs to the product
# search and to classify_state, and ghz_test keeps an unused keyword
SEEDED = {"criteria.full_rank_property", "structure.common_kernel_distill",
          "tripartite.classify_pairs", "tripartite.ghz_test"}
DRAWS = {"as_rng", "complex_gaussian", "unit_disc", "standard_normal", "uniform", "default_rng"}


def test_only_named_functions_take_a_seed_or_draw():
    # the rank = max local rank constructions choose their full-rank
    # direction among fixed points, and the B-direct split eigen-splits
    # a fixed element of the commutant, so no other function takes rng
    seeded, drawing = set(), {}
    for module in ("criteria", "structure", "tripartite"):
        for func in ast.walk(_modules()[module]):
            if not isinstance(func, ast.FunctionDef):
                continue
            name = f"{module}.{func.name}"
            if any(arg.arg == "rng" for arg in ast.walk(func.args) if isinstance(arg, ast.arg)):
                seeded.add(name)
            drawn = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                     for node in ast.walk(func) if isinstance(node, ast.Call)} & DRAWS
            if drawn:
                drawing[name] = sorted(drawn)
    assert seeded == SEEDED
    assert set(drawing) <= SEEDED, f"functions that draw: {drawing}"
    for name in ("criteria._full_rank_direction", "structure.commutant_decompose",
                 "criteria._pair_witness"):
        assert name not in drawing, f"{name} calls {drawing.get(name)}"
        module, func_name = name.split(".")
        assert any(isinstance(node, ast.FunctionDef) and node.name == func_name
                   for node in ast.walk(_modules()[module])), f"{name} is gone"


def test_one_frame_maps_every_construction_back():
    # a witness found on a transformed state is revalued for the caller's
    # state in one place, and the local ranges are compressed in one place
    assert _callers("lifted_value") == {"criteria.Frame.lift_witness"}
    assert _callers("restrict_to_local_ranges") == {"criteria.Frame.local"}
    modules = _modules()
    for module in ("rank4", "structure"):
        imported = {alias.name for node in ast.walk(modules[module])
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        lifts = imported & {"lifted_value", "lift_through_local"}
        assert not lifts, f"{module} imports {sorted(lifts)}"


def test_one_routine_values_every_2_frame_projection():
    # the eigen-frames and the rank = max local rank theorem's 2xN
    # fallback compress rho^G to an A 2-frame through one helper, on the
    # state itself, with no pair state built.  The eigen-frames read
    # their rows off one eigh of rho^G itself, and project nothing there
    modules = _modules()
    funcs = {node.name: node for node in modules["criteria"].body
             if isinstance(node, ast.FunctionDef)}
    for name, reads_rho_gamma in (("_eigen_frame_witness", True), ("_pair_witness", False)):
        calls = [getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                 for node in ast.walk(funcs[name]) if isinstance(node, ast.Call)]
        assert "_projection_witness" in calls, f"criteria.{name} skips _projection_witness"
        if reads_rho_gamma:
            assert calls.count("eigh") == calls.count("partial_transpose") == 1, name
            calls = [c for c in calls if c not in ("eigh", "partial_transpose")]
        own = set(calls) & {"eigh", "partial_transpose", "BipartiteState"}
        assert not own, f"criteria.{name} calls {sorted(own)}"
    defined = [f"{module}.{node.name}" for module, tree in modules.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_pair_state"]
    assert not defined, f"{defined} is left"
    rank4 = [f"rank4.py:{node.lineno}" for node in ast.walk(modules["rank4"])
             if isinstance(node, ast.Call) and {getattr(node.func, "id", None),
                                                getattr(node.func, "attr", None)}
             & {"eigh", "partial_transpose"}]
    assert not rank4, "rank4 projects rho^G itself at " + ", ".join(rank4)
