import pytest


def pytest_collection_modifyitems(config, items):
    """Every acceptance experiment is slow, so ``-m "not slow"`` leaves the
    unit suite."""
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)
