"""The CLI's one exit for bad input, what it counts as bad input, the
package root's four names, the one value protocol and the one way it stores
fields, the exact-value rule as the source spells it, the Python floor that
pyproject.toml declares, and the module state a command may leave behind:
none."""

import ast
import importlib
import os
import re
import sys
import types

import polobstruct
from polobstruct import cli
from polobstruct.cyclotomic import CycElem, format_element
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


def _is_plain_int_test(node):
    """Is node the plain-int type test, set(map(type, ...)) <= {int}?"""
    return (isinstance(node, ast.Compare) and ast.unparse(node.left).startswith("set(map(type,")
            and any(isinstance(c, ast.Set) and ast.unparse(c) == "{int}"
                    for c in node.comparators))


def test_the_plain_int_test_is_spelled_once():
    # every other module and function reads intlinalg._plain_ints
    spellings = []
    for module, tree in _package_trees():
        for top in tree.body:
            inner = top.body if isinstance(top, ast.ClassDef) else [top]
            for node in inner:
                spellings += [f"{module}.{getattr(node, 'name', '')}"
                              for n in ast.walk(node) if _is_plain_int_test(n)]
    assert spellings == ["intlinalg._plain_ints"]


def _bool_tests(node, site):
    """(site, call) for each isinstance(..., bool) under node, site its
    dotted function name; bool in a tuple of types counts as well."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            found += _bool_tests(child, f"{site}.{child.name}")
            continue
        if (isinstance(child, ast.Call) and ast.unparse(child.func) == "isinstance"
                and len(child.args) == 2
                and "bool" in {ast.unparse(t) for t in ast.walk(child.args[1])}):
            found.append((site, ast.unparse(child)))
        found += _bool_tests(child, site)
    return found


def test_a_count_is_checked_only_by_the_count_rule():
    # bool subclasses int, so a count check spells isinstance(x, bool); an
    # inline one fails here: every count reads intlinalg._count, and the
    # other two tests are of an exact scalar and of a flag
    found = [hit for module, tree in _package_trees() for hit in _bool_tests(tree, module)]
    assert sorted(found) == [
        ("intlinalg._count", "isinstance(x, bool)"),
        ("intlinalg._norm_scalar", "isinstance(x, bool)"),
        ("kergroup.SimpleLabel.__init__", "isinstance(alt_pairing, bool)"),
    ]


def _floats_and_divisions(node, site):
    """(site, what) for each float literal, float(...) call and true
    division under node, site its dotted function name."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            found += _floats_and_divisions(child, f"{site}.{child.name}")
            continue
        if isinstance(child, ast.Constant) and isinstance(child.value, (float, complex)):
            found.append((site, "float literal"))
        elif isinstance(child, ast.Call) and ast.unparse(child.func) == "float":
            found.append((site, "float()"))
        elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
            found.append((site, "/"))
        found += _floats_and_divisions(child, site)
    return found


def test_no_float_enters_the_package_source():
    # floating point appears only inside test oracles: the package has no
    # float literal and no float() call, and true division only where the
    # divisor is a Fraction, so that no quotient is a float
    found = [hit for module, tree in _package_trees()
             for hit in _floats_and_divisions(tree, module)]
    assert sorted(found) == [
        ("intlinalg._hessenberg", "/"),
        ("intlinalg._vector_minpoly", "/"),
        ("intlinalg.solve_exact", "/"),
        ("kergroup.QuaternionAlgebra.inverse", "/"),
        ("kergroup.is_square_in_Qp", "/"),
    ]


def test_the_source_parses_at_the_declared_python_floor():
    # ast.parse with a feature_version refuses syntax newer than it, such
    # as except*, which the installed interpreter would accept
    root = os.path.dirname(polobstruct.__file__)
    with open(os.path.join(root, "..", "..", "pyproject.toml")) as fh:
        floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', fh.read(), re.M)
    version = tuple(map(int, floor.groups()))
    names = sorted(n for n in os.listdir(root) if n.endswith(".py"))
    assert "cli.py" in names
    for name in names:
        with open(os.path.join(root, name)) as fh:
            ast.parse(fh.read(), filename=name, feature_version=version)


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
    x = CycElem(13, (3, 0, -1, 2, 0, 0, 1, 0, 0, 5, 0, -2))
    for argv in (["verify", "-p", "43"], ["norm", "13; 3, 0, -1, 2, 0, 0, 1, 0, 0, 5, 0, -2"],
                 ["attainable", "--model", str(model), "--class", "1"],
                 ["bgroup", "--model", str(model)], ["tp", format_element(x * x.conj())]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    after = _module_state()
    assert after.keys() == before.keys()
    for key, (value, contents) in before.items():
        assert after[key][0] is value, key
        assert after[key][1] == contents, key
