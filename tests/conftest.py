"""The fixtures that several test files share."""

import pytest

from eulersums.reduction import load_identity_table

from reference_oracles import STARTER_TABLE


@pytest.fixture(scope="session")
def starter_table():
    """The shipped starter table, loaded once, under its default label."""
    return load_identity_table(STARTER_TABLE)
