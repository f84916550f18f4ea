"""The package's public surface: every exported name is bound once."""

import inspect

import sorfilt


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(sorfilt.__all__) == len(set(sorfilt.__all__))
    for name in sorfilt.__all__:
        assert hasattr(sorfilt, name), name


def test_all_is_every_public_name_the_package_binds():
    bound = {
        name
        for name, value in vars(sorfilt).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(sorfilt.__all__) == bound
