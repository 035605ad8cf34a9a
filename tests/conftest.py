import pytest

# the acceptance criteria that train on the medium and highcard presets; the
# other seven take seconds
SLOW_CRITERIA = ("TestCriterion4", "TestCriterion5", "TestCriterion7", "TestCriterion10")


def pytest_collection_modifyitems(config, items):
    """Mark the slow acceptance criteria, so ``-m "not slow"`` runs the unit
    suite and the seven fast criteria."""
    for item in items:
        if item.path.name == "test_acceptance.py" and item.cls.__name__ in SLOW_CRITERIA:
            item.add_marker(pytest.mark.slow)
