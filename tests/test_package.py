"""Package hygiene: no unused imports, __all__ matches the public namespace,
and the import graph keeps its layers."""

import ast
import dataclasses
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

import srqkd

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "srqkd").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A name listed in __all__ is imported to be re-exported.
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_no_line_exceeds_99_characters():
    paths = [*SOURCES, *TESTS]
    long_lines = [f"{path.name}:{i}" for path in paths
                  for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                  if len(line) > 99]
    assert long_lines == []


def test_all_lists_the_public_namespace():
    public = {name for name, value in vars(srqkd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(srqkd.__all__) == sorted(public)
    assert len(srqkd.__all__) == len(set(srqkd.__all__))


def test_src_defines_no_test_only_function():
    # Every module-level function of the package is called (or passed) by
    # name elsewhere in src/; a reference function that only tests need
    # lives in tests/oracles.py. The exceptions are library entry points
    # that no module calls: attack_point (one b's full parameter set,
    # criterion 4) and decoy_bounds (criterion 8).
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    defined = {node.name for path, tree in trees.items() if path.name != "__init__.py"
               for node in tree.body if isinstance(node, ast.FunctionDef)}
    loaded = {n.id for tree in trees.values() for node in tree.body for n in ast.walk(node)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
              and not (isinstance(node, ast.FunctionDef) and node.name == n.id)}
    assert defined - loaded == {"attack_point", "decoy_bounds"}


def _imports(path: Path, module_level: bool = False) -> list[tuple[str, str]]:
    """(module, name) for every name a source file imports; '' for whole-module imports.

    With module_level, only the imports a plain ``import`` of the module runs.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in tree.body if module_level else ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (node.module or "")
            out += [(module, alias.name) for alias in node.names]
    return out


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_name_crosses_modules(path):
    assert [(m, n) for m, n in _imports(path) if n.startswith("_")] == []


def test_physics_and_rates_are_the_scalar_layers():
    src = SOURCES[0].parent
    # physics is the base: nothing from the package above it.
    physics = [m for m, _ in _imports(src / "physics.py")]
    assert not [m for m in physics if m.startswith((".", "srqkd"))]
    # rates assembles scalars from physics and nothing else.
    rates = [m for m, _ in _imports(src / "rates.py")]
    assert {m for m in rates if m.startswith((".", "srqkd"))} == {".physics"}


def _importers(package: str, module_level: bool = False) -> set[str]:
    return {path.name for path in SOURCES
            if any(m.split(".")[0] == package for m, _ in _imports(path, module_level))}


def test_numpy_only_where_it_earns_its_place():
    # The simulator's RNG and the --trace-out scan, each imported inside the
    # function that needs it; every other module, discrimination's POVM and
    # the sweeps' grids included, is plain Python.
    assert _importers("numpy") == {"attack.py", "simulation.py"}
    assert _importers("numpy", module_level=True) == set()


def test_no_module_issues_python_warnings():
    # A suspect value is a row flag or a refusal. A warning would print once
    # per process and write the shared warnings registry.
    assert _importers("warnings") == set()


def test_runtime_dependencies_are_the_third_party_imports():
    # Both ways: every import outside the standard library and the package is
    # a listed dependency, and every listed dependency is imported.
    tomllib = pytest.importorskip("tomllib")
    pyproject = ROOT / "pyproject.toml"
    listed = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9._-]+", dep).group().lower().replace("-", "_")
             for dep in listed}
    imported = {m.split(".")[0] for path in SOURCES for m, _ in _imports(path)
                if not m.startswith(".")}
    assert imported - set(sys.stdlib_module_names) - {"srqkd"} == names == {"numpy"}


def test_moved_functions_still_resolve():
    from srqkd import physics, sweeps

    assert srqkd.secret_rate is sweeps.secret_rate
    assert srqkd.grey_region_mu_floor is sweeps.grey_region_mu_floor \
        is physics.grey_region_mu_floor


def _function(path: Path, name: str) -> ast.FunctionDef:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (node,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _calls(node: ast.AST, name: str) -> list[ast.Call]:
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def test_attack_maximizer_decides_without_the_grid():
    # One Brent search between the two scored edges decides Eve's optimum;
    # the array objective only draws the --trace-out scan.
    node = _function(SOURCES[0].parent / "attack.py", "maximize_eve_information")
    assert "_information_curve" not in _names(node)
    (call,) = _calls(node, "grid_then_golden_max")
    assert isinstance(call.args[1], ast.Tuple) and len(call.args[1].elts) == 2
    # The scan is its own call: the maximizer takes no knob of it.
    assert list(inspect.signature(srqkd.maximize_eve_information).parameters) == [
        "setup", "detector"]


def test_attack_terms_are_worked_out_once():
    # One function derives a setup's channel and one lays out its b-interval;
    # every entry point reads them from the per-setup terms.
    tree = ast.parse((SOURCES[0].parent / "attack.py").read_text(encoding="utf-8"))
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    for name in ("derive_channel", "_b_bounds"):
        assert len([f.name for f in functions if _calls(f, name)]) == 1, name
    # The points read every b-independent term (q, p, mu'(1 +/- delta)) from
    # the terms: they call only math, _expm1 and AttackPoint, and name
    # neither eta nor delta.
    for function in functions:
        if function.name in ("_filtering_point", "_beam_splitting_point"):
            calls = {ast.unparse(n.func) for n in ast.walk(function) if isinstance(n, ast.Call)}
            assert {c for c in calls if not c.startswith("math.")} <= {"_expm1", "AttackPoint"}
            attrs = {n.attr for n in ast.walk(function) if isinstance(n, ast.Attribute)}
            assert not (_names(function) | attrs) & {"eta", "delta"}, function.name


def test_grid_search_scores_in_one_loop():
    # grid_then_golden_max calls f in two places: the collapsed grid's one
    # point, and one loop, which scores the grid with a bound or without one
    # (every point then, in index order). No comprehension scores a grid.
    node = _function(SOURCES[0].parent / "optimize.py", "grid_then_golden_max")
    (collapsed,) = [n for n in ast.walk(node)
                    if isinstance(n, ast.If) and ast.unparse(n.test) == "hi == lo"]
    (loop,) = [n for n in ast.walk(node) if isinstance(n, ast.For)]
    assert [len(_calls(n, "f")) for n in (node, collapsed, loop)] == [2, 1, 1]
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not [n for n in ast.walk(node) if isinstance(n, comprehensions) and _calls(n, "f")]


def test_pulse_rate_enters_the_rate_chain_once():
    # The rate chain works per pulse: rates never reads the pulse rate, and
    # in sweeps f multiplies a rate only where an output record is built,
    # in rate_row and in optimize_mu's result. The mu search scores and
    # bounds per-pulse rates, so no mu depends on f.
    src = SOURCES[0].parent
    rates_tree = ast.parse((src / "rates.py").read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(rates_tree) if "pulse_rate_hz" in (
        getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "arg", None))]
    fields = [field.name for field in dataclasses.fields(srqkd.RateBreakdown)]
    assert fields == ["raw", "qber", "i_ab", "i_e", "per_pulse", "unclamped"]
    assert list(inspect.signature(srqkd.rates._breakdown).parameters) == [
        "raw", "qber", "i_ab", "i_e"]

    def names_f(node: ast.AST) -> bool:
        return "pulse_rate_hz" in (getattr(node, "id", None), getattr(node, "attr", None))

    tree = ast.parse((src / "sweeps.py").read_text(encoding="utf-8"))
    products = {}
    for function in tree.body:
        if isinstance(function, ast.FunctionDef):
            for n in ast.walk(function):
                if (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                        and (names_f(n.left) or names_f(n.right))):
                    products.setdefault(function.name, []).append(ast.unparse(n))
    assert products == {"rate_row": ["breakdown.per_pulse * setup.pulse_rate_hz"],
                        "optimize_mu": ["r_best * pulse_rate_hz"]}
    search = _function(src / "sweeps.py", "optimize_mu")
    (result,) = [n for n in _calls(search, "MuOptimum")
                 if any(names_f(m) for m in ast.walk(n))]
    assert "r_best * pulse_rate_hz" in ast.unparse(result)
    closures = [n for n in ast.walk(search) if isinstance(n, ast.FunctionDef)
                and n.name in ("objective", "rate_bound")]
    assert len(closures) == 2
    for closure in closures:
        attrs = {n.attr for n in ast.walk(closure) if isinstance(n, ast.Attribute)}
        assert "pulse_rate_hz" not in _names(closure) | attrs, closure.name


def test_attack_objective_makes_no_python_call_per_b():
    # The scalar objective runs about 23 times per maximizer call. Its
    # factory _objective binds math's functions once per setup, and the
    # closure it returns computes chi inline: every call in the closure is
    # a math function the factory bound, or the ValueError it raises for an
    # infinite intensity. The maximizer hands the closure to its search
    # with no wrapper, and no second scalar objective is left.
    path = SOURCES[0].parent / "attack.py"
    factory = _function(path, "_objective")
    from_math = set()
    for node in factory.body:
        if isinstance(node, ast.Assign):
            (target,) = node.targets
            pairs = (zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple)
                     else [(target, node.value)])
            from_math |= {t.id for t, v in pairs if ast.unparse(v).startswith("math.")}
    (closure,) = [n for n in factory.body if isinstance(n, ast.FunctionDef)]
    calls = [ast.unparse(n.func) for n in ast.walk(closure) if isinstance(n, ast.Call)]
    assert {"expm1", "log"} <= from_math and calls
    assert [c for c in calls if c not in from_math | {"ValueError"}] == []
    maximizer = _function(path, "maximize_eve_information")
    assert not [n for stmt in maximizer.body for n in ast.walk(stmt)
                if isinstance(n, (ast.FunctionDef, ast.Lambda))]
    (call,) = _calls(maximizer, "grid_then_golden_max")
    assert ast.unparse(call.args[0]) == "_objective(terms)"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "_information" not in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_json_is_never_encoded_with_indent():
    # json.dumps drops to its pure-Python encoder whenever indent is set;
    # cli.render_rows writes that layout directly.
    calls = [ast.unparse(call) for path in SOURCES
             for call in _calls(ast.parse(path.read_text(encoding="utf-8")), "dumps")
             if any(keyword.arg == "indent" for keyword in call.keywords)]
    assert calls == []


def test_trace_scan_goes_to_the_renderer_as_it_is():
    # render_rows takes value tuples, and scan_information returns the
    # (b, I_E) tuples: attack --trace-out hands the one to the other with no
    # per-row object built in between.
    node = _function(SOURCES[0].parent / "cli.py", "_cmd_attack")
    (call,) = _calls(node, "render_rows")
    assert ast.unparse(call.args[1]) == "scan_information(setup, detector)"
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not [n for n in ast.walk(node) if isinstance(n, comprehensions)]


def test_one_rule_for_unimodal_searches():
    # One helper, optimize.grid_then_golden_max, serves every maximizer:
    # Brent's search runs only inside optimize, and optimize_mu calls the
    # helper twice: once for both mu policies, and once more on the
    # fallback grid of a floored search that found no positive rate. Both
    # calls pass the one rate bound, whatever the protocol or policy.
    src = SOURCES[0].parent
    tree = ast.parse((src / "optimize.py").read_text(encoding="utf-8"))
    assert [n.name for n in tree.body if isinstance(n, ast.FunctionDef)] == [
        "golden_max", "grid_then_golden_max"]
    callers = {path.name for path in SOURCES
               if _calls(ast.parse(path.read_text(encoding="utf-8")), "golden_max")}
    assert callers == {"optimize.py"}
    search = _function(src / "sweeps.py", "optimize_mu")
    calls = _calls(search, "grid_then_golden_max")
    assert len(calls) == 2
    for call in calls:
        assert [ast.unparse(arg) for arg in call.args] == ["objective", "ys", "rate_bound"]
        assert not call.keywords
    # rate_bound is its def alone: no assignment swaps it for None.
    assert not [n for n in ast.walk(search) if isinstance(n, ast.Name)
                and n.id == "rate_bound" and isinstance(n.ctx, ast.Store)]
    names = _names(_function(src / "sweeps.py", "min_srp_photons"))
    assert "optimize_mu" in names and "secret_rate" not in names


def test_each_input_has_one_source():
    # Decoys are ratios of the setup's mu, min-srp has one mu policy
    # (optimized at each t within mu_bounds; rate-vs-t holds mu fixed), the
    # grey flag and the SR rate read the channel the attack was solved for
    # (sr_secret_rate takes no setup beside it), simulate solves Eve's
    # point for the setup it samples, and Bob's conclusive probability is
    # derived with the channel: the attack's terms and the SR rate read it.
    assert [f.name for f in dataclasses.fields(srqkd.DecoyConfig)] == [
        "nu1_ratio", "nu2_ratio", "p_mu"]
    params = inspect.signature(srqkd.min_srp_photons).parameters
    assert "mu_policy" not in params and "fixed_mu" not in params
    assert [f.name for f in dataclasses.fields(srqkd.sweeps.MinSrpResult)] == [
        "length_km", "criterion", "nu_threshold", "mu_at", "t_db_at", "r_sec_hz"]
    assert [f.name for f in dataclasses.fields(srqkd.attack.AttackSolution)] == [
        "best", "b_min", "b_max", "channel", "interval_empty"]
    assert list(inspect.signature(srqkd.sr_secret_rate).parameters) == [
        "protocol", "channel", "detector", "i_e"]
    assert [f.name for f in dataclasses.fields(srqkd.SimConfig)] == [
        "n_pulses", "seed", "attack", "double_click"]
    assert [f.name for f in dataclasses.fields(srqkd.ChannelDerived)] == [
        "transmittance", "mu_prime", "delta", "conclusive", "qber"]
    assert "conclusive" not in srqkd.attack._Terms._fields
    rate = _function(SOURCES[0].parent / "rates.py", "sr_secret_rate")
    attrs = {n.attr for n in ast.walk(rate) if isinstance(n, ast.Attribute)}
    assert not (_names(rate) | attrs) & {"eta", "expm1"}


def test_no_module_reads_the_environment():
    # A run's inputs are its flags and its --config file: no module of src/
    # reads the process environment.
    readers = {"environ", "environb", "getenv"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        imported = {name for _, name in _imports(path)}
        found += [f"{path.name}: {name}" for name in sorted((attrs | imported) & readers)]
    assert found == []


def test_sweeps_state_each_rule_once():
    # One range rule, run where a range enters: no other function in sweeps
    # raises a "range needs" error, and the axis builders only lay out
    # checked ranges. sweep_mu_t is rate_vs_t over mu, and the grey bound
    # is read only where physics defines its rule.
    src = SOURCES[0].parent
    tree = ast.parse((src / "sweeps.py").read_text(encoding="utf-8"))

    def range_errors(node: ast.AST) -> bool:
        return any(isinstance(n, ast.Constant) and "range needs" in str(n.value)
                   for r in ast.walk(node) if isinstance(r, ast.Raise) for n in ast.walk(r))

    assert {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and range_errors(node)} == {"_check_axis"}
    for name in ("_axis", "_log_axis"):
        assert not [n for n in ast.walk(_function(src / "sweeps.py", name))
                    if isinstance(n, ast.Raise)]
    names = _names(_function(src / "sweeps.py", "sweep_mu_t"))
    assert "rate_vs_t" in names and "evaluate_sr_point" not in names
    readers = {path.name for path in SOURCES
               if "GREY_REGION_DELTA" in _names(ast.parse(path.read_text(encoding="utf-8")))
               | {n for _, n in _imports(path)}}
    assert readers == {"physics.py"}


def test_mutation_catalogue_matches_the_code():
    # Each mutant's text is in its file exactly once, and its killers are
    # tests that exist; tests/run_mutants.py runs the mutants themselves.
    from mutants import MUTANTS

    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1, mutant.id
        assert mutant.new != mutant.old and mutant.killers, mutant.id
        for killer in mutant.killers:
            path, _, name = killer.partition("::")
            assert _function(ROOT / path, name.split("[")[0]), killer
