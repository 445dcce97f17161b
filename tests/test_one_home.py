"""Each model decision is written once in `src/fddrecon`: a scan of the
package's syntax trees for a second copy of the dB rule, the noise power,
the observation, the two-FFT angle spectrum, a scalar atom factor build in
extraction, a trial stream made outside its helper, or a scalar type test
outside the two input checks. Each top-level function and class is used in
the package or listed with its outside caller. And each slow reference is
written once, in `tests/reference.py`, sharing no code with the fast paths
it checks."""

import ast
import importlib
import inspect
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "fddrecon"


def _walk(node, scope=None):
    """(enclosing function name or None, node) for every node below `node`."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield inner, child
        yield from _walk(child, inner)


def _called(node, *names) -> bool:
    """`node` is a call of a function or method named one of `names`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in names


def _is_ten(node) -> bool:
    return isinstance(node, ast.Constant) and not isinstance(node.value, bool) and node.value == 10


def _db_rule(module, node) -> bool:
    # 10 ** x, np.power(10, x) or math.pow(10, x)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _is_ten(node.left)
    return _called(node, "power", "pow") and bool(node.args) and _is_ten(node.args[0])


def _noise_constant(module, node) -> bool:
    # an upper-case name holding NOISE: a constant, not a drawn noise vector
    targets = {ast.Assign: lambda n: n.targets, ast.AnnAssign: lambda n: [n.target]}
    get = targets.get(type(node))
    return get is not None and any(
        isinstance(t, ast.Name) and t.id.isupper() and "NOISE" in t.id for t in get(node))


def _observation(module, node) -> bool:
    # sqrt(p_tx) * x: the scaled channel of a noisy observation
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(_called(side, "sqrt") and len(side.args) == 1
                    and isinstance(side.args[0], ast.Name) and side.args[0].id == "p_tx"
                    for side in (node.left, node.right)))


def _angle_spectrum(module, node) -> bool:
    # an FFT of an FFT, or a multi-axis FFT
    return _called(node, "fft2", "fftn") or (
        _called(node, "fft") and bool(node.args) and _called(node.args[0], "fft"))


def _extraction_delay_build(module, node) -> bool:
    return module == "enomp" and _called(node, "delay_vector")


def _trial_stream(module, node) -> bool:
    # a generator made, a seed list holding the master seed written, or a
    # `seed=` argument given anything but a trial stream, in the harness or
    # the CLI
    if module not in ("harness", "cli"):
        return False
    return _called(node, "default_rng") or (
        isinstance(node, (ast.List, ast.Tuple))
        and any(isinstance(e, ast.Attribute) and e.attr == "seed" for e in node.elts)) or (
        isinstance(node, ast.keyword) and node.arg == "seed"
        and not _called(node.value, "_trial_rng"))


def _scalar_type_test(module, node) -> bool:
    # isinstance(x, T) with T naming bool, int, float, numbers.Real or numbers.Integral
    if not (_called(node, "isinstance") and len(node.args) == 2):
        return False
    names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.args[1])}
    return bool(names & {"bool", "int", "float", "Real", "Integral"})


# (decision, predicate, the (module, function) of its one home; none for the
# scalar delay build, whose home `sysmodel.atom_factors` is outside enomp)
HOMES = [
    ("db_to_linear", _db_rule, [("sysmodel", "db_to_linear")]),
    ("noise_power", _noise_constant, [("sysmodel", None)]),
    ("observation", _observation, [("sysmodel", "observation")]),
    ("angle_spectrum", _angle_spectrum, [("enomp", "stopping_statistic")]),
    ("atom_factors", _extraction_delay_build, []),
    ("trial_streams", _trial_stream, [("harness", "_trial_rng")]),
    # each check tests for a bool, then for a number
    ("scalar_type_rule", _scalar_type_test, [("sysmodel", "check_integer")] * 2
     + [("sysmodel", "check_real")] * 2),
]


def _sites(predicate):
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out.extend((path.stem, scope, node.lineno)
                   for scope, node in _walk(tree) if predicate(path.stem, node))
    return out


@pytest.mark.parametrize("decision, predicate, home", HOMES, ids=[h[0] for h in HOMES])
def test_each_decision_has_one_home(decision, predicate, home):
    # the home itself must be found too, so a renamed home fails here
    sites = _sites(predicate)
    assert [(module, scope) for module, scope, _ in sites] == home, (
        f"{decision} written at {sites}; its one home is {home}")


# top-level names no `src/` code uses: tests/test_acceptance.py calls these,
ACCEPTANCE_API = {"enomp.objective_S", "enomp.objective_derivatives", "enomp.synth_atom",
                  "dltrain.coefficient_matrix", "dltrain.predict_nmse"}
# and pipebench/tracer.py wraps this one
TRACED_ONLY = {"enomp.coarse_gain"}


def _unused_top_level_names():
    """`module.name` of each top-level function and class of the package
    that no code in the package names, as a name or an attribute, outside
    its own definition; a docstring is a string and names nothing."""
    defined, refs = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = top.name
                defined.add((path.stem, owner))
            refs.extend(((path.stem, owner), getattr(node, "id", None) or node.attr)
                        for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute)))
    return {f"{module}.{name}" for module, name in defined
            if not any(ref == name and where != (module, name) for where, ref in refs)}


def test_every_top_level_name_is_used():
    unused = _unused_top_level_names()
    kept = ACCEPTANCE_API | TRACED_ONLY
    assert not unused - kept, f"no code in src/ uses {sorted(unused - kept)}"
    assert not kept - unused, f"{sorted(kept - unused)} no longer need listing here"


# test helpers that `reference.py` replaced
RETIRED = {"brute_force_uplink", "kron_reference", "materialized_basis", "cube_oracle",
           "whole_cube_detect", "reference_visit", "residual_loop_extract", "reference_sinr",
           "precoder", "materialized_reference"}
# the modules of the fast paths, whose functions a reference must not call
FAST = {"fddrecon.enomp", "fddrecon._kernels", "fddrecon.mueval", "fddrecon.dltrain"}


def _tree(name):
    return ast.parse((TESTS / name).read_text(encoding="utf-8"))


def _is_fast_function(name) -> bool:
    module, _, leaf = name.rpartition(".")
    return module in FAST and inspect.isfunction(getattr(importlib.import_module(module), leaf))


def test_each_reference_has_one_home():
    tree = _tree("reference.py")
    taken = RETIRED | {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                       and not node.name.startswith("_")}
    for path in sorted(TESTS.glob("test_*.py")) + [TESTS / "conftest.py"]:
        defined = {node.name for node in ast.walk(_tree(path.name))
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & taken, f"{path.name} defines {sorted(defined & taken)}"
    # a module import brings its functions; `from fddrecon import enomp` is "fddrecon.enomp"
    imported = [".".join(filter(None, (getattr(node, "module", None), alias.name)))
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    bad = [name for name in imported if name in FAST or _is_fast_function(name)]
    assert not bad, f"reference.py imports {bad}, code of a fast path"
