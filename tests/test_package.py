"""The package's public names: every exported name exists."""

import mmods


def test_every_exported_name_resolves():
    missing = [name for name in mmods.__all__ if not hasattr(mmods, name)]
    assert missing == []
    assert len(set(mmods.__all__)) == len(mmods.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from mmods import *", namespace)
    assert set(mmods.__all__) <= namespace.keys()
