"""The tolerance policy, checked on the source: a function receives its
thresholds only through a ``tols: Tolerances`` parameter, a function
that has ``tols`` hands it on to every library function that takes one,
and each threshold verdict is compared in one function."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import timps
from timps.config import Tolerances

SOURCES = sorted(Path(timps.__file__).parent.glob("*.py"))
SHADOWS = {f.name for f in fields(Tolerances)} | {"residual_cap"}


def functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]


def parameters(fn):
    args = fn.args
    return args.posonlyargs + args.args + args.kwonlyargs + [
        a for a in (args.vararg, args.kwarg) if a is not None]


def callee(call):
    """The bare name a call resolves by: ``f(...)`` and ``mod.f(...)`` both give ``f``."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def tols_slots():
    """Position of ``tols`` among the positional parameters of every library
    function that takes it (``None`` when it is keyword-only)."""
    slots = {}
    for tree in TREES.values():
        for fn in functions(tree):
            if isinstance(fn, ast.Lambda):
                continue
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            if "tols" in positional:
                slots[fn.name] = positional.index("tols")
            elif "tols" in (a.arg for a in fn.args.kwonlyargs):
                slots[fn.name] = None
    return slots


def test_sources_are_found():
    assert "tensors.py" in TREES and "invariants.py" in TREES


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_parameter_shadows_a_tolerance(module):
    shadowing = [
        f"{getattr(fn, 'name', 'lambda')}:{fn.lineno} takes {a.arg}"
        for fn in functions(TREES[module]) for a in parameters(fn) if a.arg in SHADOWS
    ]
    assert not shadowing


@pytest.mark.parametrize("module", sorted(TREES))
def test_tols_is_passed_on(module):
    slots = tols_slots()
    missing = []
    for fn in functions(TREES[module]):
        if "tols" not in (a.arg for a in parameters(fn)):
            continue
        for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
            name = callee(call)
            if name not in slots:
                continue
            slot = slots[name]
            by_keyword = any(k.arg == "tols" for k in call.keywords)
            by_position = slot is not None and len(call.args) > slot
            if not (by_keyword or by_position):
                missing.append(f"{fn.name}:{call.lineno} calls {name} without tols")
    assert not missing


def comparing_functions(tree, matches):
    """Innermost functions (``<module>`` outside any) holding an ``ast.Compare``
    with a node that ``matches`` accepts; printed values are not compared."""
    return owning_functions(tree, lambda node: isinstance(node, ast.Compare)
                            and any(map(matches, ast.walk(node))))


def owning_functions(tree, accepts):
    """Innermost functions (``<module>`` outside any) holding a node that
    ``accepts`` accepts."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Lambda):
            owner = "lambda"
        if accepts(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def named(name):
    return lambda node: (isinstance(node, ast.Name) and node.id == name
                         or isinstance(node, ast.Attribute) and node.attr == name)


def literal(value):
    return lambda node: isinstance(node, ast.Constant) and node.value == value


@pytest.mark.parametrize("matches, modules, owners", [
    (named("tol_gap"), sorted(TREES), {"tensors.py:_degenerate"}),
    (named("tol_recon"), sorted(TREES), {"tensors.py:_memberships"}),
    (named("RESIDUAL_CAP"), sorted(TREES), {"invariants.py:chern_verdict"}),
    (named("BRANCH_CUT_MARGIN"), sorted(TREES), {"invariants.py:chern_verdict"}),
    # the traceless guard; cli's 1e-14 bounds are acceptance bounds
    (literal(1e-14), ["tensors.py", "transfer.py"], {"tensors.py:_leading_fixed_point"}),
], ids=["tol_gap", "tol_recon", "RESIDUAL_CAP", "BRANCH_CUT_MARGIN", "traceless-1e-14"])
def test_each_threshold_is_compared_in_one_function(matches, modules, owners):
    assert {f"{module}:{fn}" for module in modules
            for fn in comparing_functions(TREES[module], matches)} == owners


# The message of each refusal of a decomposition, and the rank-window refusal.
DECOMPOSITION_REFUSALS = ("inside the cutoff window", "numerically zero left Gram matrix",
                          "no block canonical form", "core is not right-normalized",
                          "core matrices do not span")


def test_decomposition_refusals_are_built_in_one_function():
    def builds(node):
        return (isinstance(node, ast.Call) and callee(node) == "AmbiguousRankError"
                or isinstance(node, ast.Constant) and isinstance(node.value, str)
                and any(text in node.value for text in DECOMPOSITION_REFUSALS))

    assert {f"{module}:{fn}" for module, tree in TREES.items()
            for fn in owning_functions(tree, builds)} == {"tensors.py:_refusal"}
