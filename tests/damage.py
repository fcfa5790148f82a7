"""Damaged copies of certified values, for negative tests.

A built AffineModule and a LoopData are read-only: each was certified
when it was made, and nothing may change it afterwards.  A test that
plants damage therefore asks ``uncertified`` for a copy with some stores
replaced, which skips the certificate.  It is the one place that does:
``tests/test_imports.py`` keeps the bypass it uses out of the package.
"""

import dataclasses
from collections.abc import Mapping
from types import MappingProxyType

from qonsager.loopsl2 import AffineModule, LoopData


def uncertified(obj, **changes):
    """A copy of the module or loop data ``obj`` with the attributes named
    in ``changes`` replaced, certified by nothing.  A dict given for a
    mapping store is merged over it, so ``uncertified(M, E={0: X})``
    replaces E_0 alone."""
    new = {}
    for name, value in changes.items():
        old = getattr(obj, name)
        if isinstance(old, Mapping) and isinstance(value, dict):
            value = MappingProxyType({**old, **value})
        new[name] = value
    if isinstance(obj, LoopData):
        return dataclasses.replace(obj, **new)
    copy = object.__new__(AffineModule)
    for name in AffineModule.__slots__:
        setattr(copy, name, new[name] if name in new else getattr(obj, name))
    return copy
