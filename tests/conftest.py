"""Marks every test of the acceptance battery ``acceptance``, so that the
fast inner loop can deselect it with ``pytest -m "not acceptance"``.

Property tests run under one Hypothesis profile: derandomized, so every
run draws the same examples, and without a deadline, so a slow episode of
the host does not fail an example."""

import pytest
from hypothesis import settings

settings.register_profile("sorfilt", derandomize=True, deadline=None)
settings.load_profile("sorfilt")


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)
