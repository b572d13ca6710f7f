"""The CLI's one exit for bad input, what it counts as bad input, the
package root's four names, the one value protocol and the one way it stores
fields, and the module state a command may leave behind: none."""

import ast
import importlib
import os
import sys
import types

import polobstruct
from polobstruct import cli
from polobstruct.intlinalg import Record
from polobstruct.kergroup import twist_model


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


def test_load_model_catches_only_what_outside_text_raises():
    # opening the file, json.loads and from_json on its text raise these
    # three; a KeyError or TypeError is a fault inside the program
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    load = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "_load_model")
    handlers = [h for n in ast.walk(load) if isinstance(n, ast.Try) for h in n.handlers]
    assert len(handlers) == 1 and isinstance(handlers[0].type, ast.Tuple)
    caught = sorted(ast.unparse(e) for e in handlers[0].type.elts)
    assert caught == ["OSError", "RecursionError", "ValueError"]


def test_package_root_reexports_only_what_the_benchmark_imports():
    public = {name for name, value in vars(polobstruct).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"CycElem", "complex_conj", "format_element", "twist_model"}
    assert polobstruct.__version__ == "0.1.0"


def _package_trees():
    """(module name, parsed source) for each module of the package."""
    root = os.path.dirname(polobstruct.__file__)
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                yield name[:-3], ast.parse(fh.read())


def test_only_record_writes_with_object_setattr():
    # every value class stores its fields with one Record._set call
    writers = set()
    for module, tree in _package_trees():
        for top in tree.body:
            if any(isinstance(n, ast.Attribute)
                   and ast.unparse(n) == "object.__setattr__" for n in ast.walk(top)):
                writers.add(f"{module}.{getattr(top, 'name', '')}")
    assert writers == {"intlinalg.Record"}


def test_every_class_is_a_record():
    # the exception cli raises and the descriptor Record's caches use are
    # the two classes that are not values
    others = set()
    for module, tree in _package_trees():
        mod = importlib.import_module(f"polobstruct.{module}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                if not issubclass(getattr(mod, node.name), Record):
                    others.add(f"{module}.{node.name}")
    assert others == {"cli.BadInput", "intlinalg.cached"}


def _module_state():
    """Every module-level binding of polobstruct, with a copy of the
    contents of each dict, list and set."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if name == "polobstruct" or name.startswith("polobstruct."):
            for key, value in vars(mod).items():
                contents = next((kind(value) for kind in (dict, list, set)
                                 if isinstance(value, kind)), None)
                state[name, key] = value, contents
    return state


def test_no_command_leaves_module_state_behind(tmp_path, capsys):
    # a later command in the same process, a perfbench pass among them,
    # must find what a fresh process finds; lru_cache contents aside, which
    # perfbench clears before each command, nothing may persist
    model = tmp_path / "model13.json"
    model.write_text(twist_model(13).to_json())
    before = _module_state()
    for argv in (["verify", "-p", "43"], ["norm", "13; 3, 0, -1, 2, 0, 0, 1, 0, 0, 5, 0, -2"],
                 ["attainable", "--model", str(model), "--class", "1"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    after = _module_state()
    assert after.keys() == before.keys()
    for key, (value, contents) in before.items():
        assert after[key][0] is value, key
        assert after[key][1] == contents, key
