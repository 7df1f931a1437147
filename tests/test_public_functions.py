"""The public functions of the traced library layers stay plain functions,
and each of them has a caller in the package or in the README.

perfbench's tracer wraps only callables that carry `__code__`, so a
decorator such as functools.lru_cache on a public name would silently take
that function out of the per-layer counters; memoise a private helper
instead.
"""

import ast
from pathlib import Path

import pytest

from edgeideals import (bounds, certificates, classify, constructions, covers,
                        graphs, homology, polynomials)


@pytest.mark.parametrize("mod", [graphs, covers, bounds, classify, homology,
                                 constructions, certificates, polynomials],
                         ids=lambda m: m.__name__)
def test_public_functions_have_code(mod):
    public = {name: obj for name, obj in vars(mod).items()
              if not name.startswith("_") and callable(obj)
              and not isinstance(obj, type)
              and getattr(obj, "__module__", None) == mod.__name__}
    assert public
    assert [name for name, obj in public.items()
            if getattr(obj, "__code__", None) is None] == []


# Public API kept with no caller in the package: Prop 4.2's bound waits on
# the ROADMAP item that wires it into `bound --improve` (item 15), and
# perfbench's tracer counts trace nodes with `TraceNode.walk`
# (`_hook_theorem34_trace`).
UNCALLED_ON_PURPOSE = {"proposition42_bound", "TraceNode.walk"}

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(tree, skip=frozenset()):
    """Every name a tree refers to, outside the nodes in `skip`, as two
    sets: the bare names and import aliases, and the attributes and string
    constants (`cli._RESULTS` names functions as strings)."""
    bare, attrs = set(), set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            bare.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
        todo.extend(ast.iter_child_nodes(node))
    return bare, attrs


def _public_definitions(tree):
    """The public module-level functions and the public methods of every
    class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (("%s.%s" % (node.name, f.name), f) for f in node.body
                        if isinstance(f, ast.FunctionDef)
                        and not f.name.startswith("_"))
        elif isinstance(node, ast.FunctionDef) \
                and not node.name.startswith("_"):
            yield node.name, node


def test_every_public_function_has_a_caller():
    # A public function that nothing in `src/` calls, and that the README
    # `## Library` block does not document, is dead API: delete it, or move
    # it to `tests/conftest.py` as an oracle.  A method counts as used only
    # through an attribute or a string, never through a local of its name.
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "edgeideals").glob("*.py"))}
    library = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    documented = _referenced_names(ast.parse(
        library.split("```python\n", 1)[1].split("```", 1)[0]))
    uncalled = []
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            method = qualified != node.name
            used = set()
            for bare, attrs in [documented] + [_referenced_names(t, inside)
                                               for t in trees.values()]:
                used |= attrs if method else bare | attrs
            if node.name not in used and qualified not in UNCALLED_ON_PURPOSE:
                uncalled.append("%s:%s" % (module, qualified))
    assert uncalled == []
