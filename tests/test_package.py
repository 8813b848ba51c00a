"""The package's public names."""

import qszego


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qszego import *", namespace)
    missing = [name for name in qszego.__all__ if name not in namespace]
    assert not missing
    assert len(set(qszego.__all__)) == len(qszego.__all__)
