"""The package's public names: what `fracsymp.__all__` promises exists."""

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
