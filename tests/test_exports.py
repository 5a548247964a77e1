"""The package's two lists of public names, its imports and ``__all__``,
stay in step."""

import types

import delzant


def test_all_names_exactly_the_public_names_the_package_binds():
    assert len(set(delzant.__all__)) == len(delzant.__all__)
    assert [name for name in delzant.__all__ if not hasattr(delzant, name)] == []
    bound = {
        name
        for name, value in vars(delzant).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(delzant.__all__)
