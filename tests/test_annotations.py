"""Every public annotation resolves to the object it names."""

import typing

import pytest

import vcn


@pytest.mark.parametrize("name", vcn.__all__)
def test_type_hints_resolve(name):
    # a hint naming another kernel's class reads it through the lazy package
    typing.get_type_hints(getattr(vcn, name))
