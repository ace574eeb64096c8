"""The package's public names: what `fracsymp.__all__` promises exists,
and that each module reads every name it imports."""

import ast
import pathlib

import fracsymp


def test_every_exported_name_resolves():
    assert len(set(fracsymp.__all__)) == len(fracsymp.__all__)
    missing = [n for n in fracsymp.__all__ if not hasattr(fracsymp, n)]
    assert missing == []


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from fracsymp import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fracsymp.__all__)
    for name, value in namespace.items():
        assert value is getattr(fracsymp, name)


def _unread_imports(tree: ast.Module) -> list:
    """The names a module imports and never reads, counting a name that
    its `__all__` lists as read."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_every_module_reads_what_it_imports():
    unread = {}
    for path in sorted(pathlib.Path(fracsymp.__file__).parent.glob("*.py")):
        names = _unread_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unread[path.stem] = names
    assert unread == {}
