"""Checks on the package source itself."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import haarbloom

SRC = Path(__file__).resolve().parent.parent / "src" / "haarbloom"
TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def _trees(*folders):
    for folder in folders:
        for path in sorted(folder.glob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def test_no_assert_statements_in_the_package():
    # guards must still run under python -O, which strips assert statements
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees(SRC)
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert SRC.is_dir() and not found, found


def _uses(*folders):
    """Where ``folders`` name each name, as a bare name or an attribute: name -> [(path, line)]."""
    uses = defaultdict(list)
    for path, tree in _trees(*folders):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((path, node.lineno))
    return uses


def _named_only_inside(node, path, uses):
    return all(where == path and node.lineno <= line <= node.end_lineno
               for where, line in uses[node.name])


def unused(*folders):
    """Module-level functions and classes of src/ that nothing in ``folders`` names
    outside their own body, as (file name, name)."""
    uses = _uses(*folders)
    return [(path.name, node.name)
            for path, tree in _trees(SRC)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and _named_only_inside(node, path, uses)]


def test_every_module_level_function_and_class_is_used():
    # a helper that nothing in src/ or tests/ names outside its own body is dead code
    dead = [f"{module}:{name}" for module, name in unused(SRC, TESTS)]
    assert SRC.is_dir() and not dead, dead


def unused_imports(*folders):
    """Names a module in ``folders`` imports and never names again, as "file:name";
    ``__init__.py`` re-exports and ``from __future__`` imports are exempt."""
    found = []
    for path, tree in _trees(*folders):
        if path.name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name.split(".")[0]): node.lineno for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {(a.asname or a.name): node.lineno for a in node.names}
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}:{name}" for name, line in imported.items()
                  if name not in named]
    return found


def test_every_import_in_the_package_is_used():
    # an import nothing names is dead code, and hides which modules depend on which
    assert SRC.is_dir() and not unused_imports(SRC), unused_imports(SRC)


def test_the_import_lint_sees_a_dead_import(tmp_path):
    (tmp_path / "module.py").write_text(
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from json import dumps, loads\nprint(os.sep, loads)\n")
    (tmp_path / "__init__.py").write_text("from .module import dumps\n")
    assert unused_imports(tmp_path) == ["module.py:3:np", "module.py:4:dumps"]


def test_public_names_only_tests_use_are_exported():
    # tests may keep alive only what the package exports: a public function or
    # class that nothing in src/ names must be in haarbloom.__all__, or it is a
    # wrapper that only tests call
    exported = set(haarbloom.__all__)
    stray = [f"{module}:{name}" for module, name in unused(SRC)
             if not name.startswith("_") and name not in exported]
    assert SRC.is_dir() and not stray, stray


def test_readme_library_use_runs(capsys):
    # the README example names public functions; deleting one must fail here
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README.name} (Library use)", "exec"), {})
    assert capsys.readouterr().out.split()[-1] == "True"


PLAIN_KEYS = {"int", "str", "bool"}


def _plain(annotation):
    """An annotation naming ``int``, ``str``, ``bool`` or a tuple of those."""
    if isinstance(annotation, ast.Name):
        return annotation.id in PLAIN_KEYS
    if (isinstance(annotation, ast.Subscript) and isinstance(annotation.value, ast.Name)
            and annotation.value.id == "tuple"):
        items = getattr(annotation.slice, "elts", [annotation.slice])
        return all(_plain(item) or isinstance(item, ast.Constant) and item.value is Ellipsis
                   for item in items)
    return False


def _is_lru_cache(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name in ("lru_cache", "cache")


def test_every_cache_is_keyed_on_plain_values():
    # a cache keyed on a dataclass runs its generated __hash__ and __eq__ in
    # Python on every lookup; plain ints, strings and bools hash in C
    found = []
    for path, tree in _trees(SRC):
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and any(_is_lru_cache(d) for d in node.decorator_list)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                found += [f"{path.name}:{node.name}({a.arg})" for a in params
                          if a.annotation is None or not _plain(a.annotation)]
    assert SRC.is_dir() and not found, found


PRIVATE_NUMPY = ("_core", "core")


def _reaches_private_numpy(node):
    """``np._core``/``np.core``, a ``getattr``/``hasattr`` of those names, or an import."""
    if isinstance(node, ast.Attribute):
        return (node.attr in PRIVATE_NUMPY and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Call) and getattr(node.func, "id", "") in ("getattr", "hasattr"):
        return any(isinstance(a, ast.Constant) and a.value in PRIVATE_NUMPY for a in node.args[1:2])
    modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
               else [a.name for a in node.names] if isinstance(node, ast.Import) else [])
    return any(m.split(".")[:2] in (["numpy", "_core"], ["numpy", "core"]) for m in modules)


def private_numpy_uses(*folders):
    """Module-level statements in ``folders`` that reach numpy's private modules, as
    "file:name" (an assignment's target, a def's name, else the line)."""
    found = []
    for path, tree in _trees(*folders):
        for stmt in tree.body:
            if any(_reaches_private_numpy(node) for node in ast.walk(stmt)):
                targets = getattr(stmt, "targets", None) or [getattr(stmt, "target", None)]
                name = getattr(stmt, "name", None) or getattr(targets[0], "id", stmt.lineno)
                found.append(f"{path.name}:{name}")
    return found


def test_numpy_private_modules_are_reached_in_one_place():
    # a private module may move in any numpy release; the per-pass C einsum of the
    # power iteration is the one use worth that risk
    assert private_numpy_uses(SRC) == ["opnorm.py:_einsum"]


def test_the_private_numpy_lint_sees_each_way_in(tmp_path):
    (tmp_path / "module.py").write_text(
        "import numpy as np\nimport numpy.core\nfrom numpy._core import umath\n"
        "a = np._core.multiarray\nb = getattr(np, '_core', None)\n"
        "def f():\n    return hasattr(np, 'core')\nc = np.linalg.svd\n")
    assert private_numpy_uses(tmp_path) == ["module.py:2", "module.py:3", "module.py:a",
                                            "module.py:b", "module.py:f"]


def unnamed_methods(src, *folders, text=""):
    """Public methods and properties of the classes in ``src`` that nothing in ``folders``
    names outside their own body and no `code span` of ``text`` names, as "file:Class.name"."""
    spans = " ".join(re.findall("`([^`]*)`", text))
    uses, words = _uses(*folders), set(re.findall(r"\w+", spans))
    return [f"{path.name}:{cls.name}.{node.name}"
            for path, tree in _trees(src)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in words and _named_only_inside(node, path, uses)]


def test_every_public_method_is_named_outside_the_tests():
    # the module-level lint cannot see methods: a public method or property that only
    # tests call is a helper kept for its own tests
    found = unnamed_methods(SRC, SRC, TESTS.parent / "tools", TESTS.parent / "bench",
                            text=README.read_text())
    assert SRC.is_dir() and not found, found


def test_the_method_lint_sees_a_method_only_tests_call(tmp_path):
    (tmp_path / "module.py").write_text(
        "class A:\n    def used(self):\n        return self.kept\n"
        "    @property\n    def kept(self):\n        return 1\n"
        "    def documented(self):\n        return 2\n"
        "    def recursive(self):\n        return self.recursive()\n"
        "    def _private(self):\n        return 3\n"
        "    class B:\n        def inner(self):\n            return 4\n"
        "print(A().used())\n")
    text = "`A.documented()`, and recursive outside a code span"
    assert unnamed_methods(tmp_path, tmp_path, text=text) == [
        "module.py:A.recursive", "module.py:B.inner"]
