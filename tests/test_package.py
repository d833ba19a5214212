import types

import ptqtune


def test_all_names_exactly_the_public_attributes():
    exported = ptqtune.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(ptqtune, n)] == []
    public = {n for n, v in vars(ptqtune).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(exported)
    namespace: dict = {}
    exec("from ptqtune import *", namespace)
    assert set(exported) <= set(namespace)
