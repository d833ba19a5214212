import ast
import types
from collections import Counter
from pathlib import Path

import ptqtune

ROOT = Path(__file__).resolve().parents[1]
# acceptance criterion 6 calls it; the tuner would once it reports the
# last surrogate's importance
NO_PRODUCT_CALLER = {"feature_importance"}


def test_all_names_exactly_the_public_attributes():
    exported = ptqtune.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(ptqtune, n)] == []
    public = {n for n, v in vars(ptqtune).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(exported)
    namespace: dict = {}
    exec("from ptqtune import *", namespace)
    assert set(exported) <= set(namespace)


def _reads(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name, as a bare name or an attribute;
    strings and import statements read nothing."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def test_every_public_function_has_a_product_caller():
    """Every public module-level function of the package is read somewhere
    in the package or the benchmark outside its own body, so no entry point
    exists only for the tests."""
    package = sorted((ROOT / "src" / "ptqtune").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package + sorted(
        (ROOT / "perfbench").glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    uncalled = {node.name for path in package for node in trees[path].body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and reads[node.name] == _reads(node)[node.name]}
    assert uncalled - NO_PRODUCT_CALLER == set()
