"""The package holds what a CLI task runs: a static walk over the top-level names
of ``src/convexhmc`` reaches every name ``convexhmc`` exports from ``cli.main``."""

import ast
import pathlib
import types

import convexhmc

SRC = pathlib.Path(convexhmc.__file__).parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# exported names no CLI task reaches, each with the caller that keeps it
UNREACHED = {
    "metropolis_step": "perfbench/tracing.py wraps it by name for a traced round",
    "ideal_step": "perfbench/tracing.py wraps it by name for a traced round",
    "integrate": "perfbench/tracing.py wraps it by name for a traced round",
}


def package_imports(tree: ast.Module) -> dict:
    """Local name -> (module, name) for a name imported from a package module,
    or -> (module, None) for a package module itself, from every relative
    import in ``tree`` (the package imports itself no other way)."""
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name] = (
                (alias.name, None) if node.module is None else (node.module, alias.name))
    return bound


def top_level_names(stmt: ast.stmt) -> list:
    """The names a module-level statement defines: a def, a class or assigned names."""
    if isinstance(stmt, DEFS):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


class Package:
    """The top-level names (module, name) of every module, and what each one names."""

    def __init__(self, src: pathlib.Path):
        self.defined, self.imports, self.edges, self.roots = {}, {}, {}, set()
        trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
        for module, tree in trees.items():
            self.imports[module] = package_imports(tree)
            self.defined[module] = {name for stmt in tree.body for name in top_level_names(stmt)}
        for module, tree in trees.items():
            for stmt in tree.body:
                # a def or class body runs when its name is reached; any other
                # statement, an assignment's value included, runs at import
                if isinstance(stmt, DEFS):
                    self.edges[(module, stmt.name)] = self.named(module, stmt)
                else:
                    self.roots |= self.named(module, stmt)

    def resolve(self, module: str, name: str):
        """The (module, name) that defines ``name`` as ``module`` sees it, or None
        for a name from outside the package or a package module itself."""
        while name not in self.defined.get(module, ()):
            if name not in self.imports.get(module, {}):
                return None
            module, name = self.imports[module][name]
        return module, name

    def named(self, module: str, stmt: ast.stmt) -> set:
        """Every top-level name that ``stmt`` names: a bare name, or an attribute of
        an imported package module such as ``metrics.cdist``."""
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(self.resolve(module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = self.imports[module].get(node.value.id)
                if target is not None and target[1] is None:
                    found.add(self.resolve(target[0], node.attr))
        return found - {None}

    def reached(self, *roots) -> set:
        todo, seen = [*self.roots, *roots], set()
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo += self.edges.get(node, ())
        return seen


def test_every_export_is_reached_from_the_cli():
    pkg = Package(SRC)
    exports = {name: pkg.resolve("__init__", name) for name in pkg.imports["__init__"]}
    # the static reading of __init__ is the package's exported surface
    assert set(exports) == {name for name in convexhmc.__all__
                            if not isinstance(getattr(convexhmc, name), types.ModuleType)}
    assert None not in exports.values()
    reached = pkg.reached(("cli", "main"))
    assert {name for name, node in exports.items() if node not in reached} == set(UNREACHED)


def test_the_walk_follows_calls_and_module_attributes(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b\nfrom .b import g as h\nX = 1\n"
        "def main():\n    return b.f() + h()\n"
        "def unused():\n    return X\n")
    (tmp_path / "b.py").write_text(
        "from .c import k\nY = k()\n"
        "def f():\n    return 0\ndef g():\n    return 0\ndef lone():\n    return 0\n")
    (tmp_path / "c.py").write_text("def k():\n    return 0\n")
    pkg = Package(tmp_path)
    assert pkg.reached(("a", "main")) == {("a", "main"), ("b", "f"), ("b", "g"), ("c", "k")}
