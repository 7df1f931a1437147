"""The public functions of the traced library layers stay plain functions.

perfbench's tracer wraps only callables that carry `__code__`, so a
decorator such as functools.lru_cache on a public name would silently take
that function out of the per-layer counters; memoise a private helper
instead.
"""

import pytest

from edgeideals import (bounds, certificates, classify, constructions, covers,
                        graphs, homology, polynomials)


@pytest.mark.parametrize("mod", [graphs, covers, bounds, classify, homology,
                                 constructions, certificates, polynomials],
                         ids=lambda m: m.__name__)
def test_public_functions_have_code(mod):
    public = {name: obj for name, obj in vars(mod).items()
              if not name.startswith("_") and callable(obj)
              and not isinstance(obj, type)
              and getattr(obj, "__module__", None) == mod.__name__}
    assert public
    assert [name for name, obj in public.items()
            if getattr(obj, "__code__", None) is None] == []
