"""Marks every test of the acceptance battery ``acceptance``, so that the
fast inner loop can deselect it with ``pytest -m "not acceptance"``."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)
