"""The package's export list matches what it binds."""

from types import ModuleType

import gnomon_triples


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gnomon_triples import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(gnomon_triples.__all__)


def test_all_is_every_public_name_that_is_not_a_module():
    public = {
        name
        for name, value in vars(gnomon_triples).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(gnomon_triples.__all__) == sorted(public)
