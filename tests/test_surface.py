"""The CLI's one exit for bad input, and the package root's four names."""

import ast
import types

import polobstruct
from polobstruct import cli


def _count(pred):
    """(nodes of cli.py that satisfy pred, how many of them main holds)."""
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    main = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    return sum(map(pred, ast.walk(tree))), sum(map(pred, ast.walk(main)))


def _writes_stderr(node):
    return isinstance(node, ast.Call) and any(
        kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
        for kw in node.keywords)


def _returns_2(node):
    return (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
            and node.value.value == 2)


def _raises_system_exit(node):
    return isinstance(node, ast.Raise) and node.exc is not None and "SystemExit" in {
        n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}


def test_bad_input_leaves_main_through_one_handler():
    assert _count(_writes_stderr) == (1, 1)
    assert _count(_returns_2) == (1, 1)
    assert _count(_raises_system_exit) == (0, 0)


def test_package_root_reexports_only_what_the_benchmark_imports():
    public = {name for name, value in vars(polobstruct).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"CycElem", "complex_conj", "format_element", "twist_model"}
    assert polobstruct.__version__ == "0.1.0"
