from fractions import Fraction
from pathlib import Path

import pytest

from emdenseries import Mode, OracleUnavailableError, Series
from emdenseries.validation import _closed_form

REPO_ROOT = Path(__file__).resolve().parent.parent


def rational(values):
    return Series([Fraction(v) for v in values], Mode.RATIONAL)


def floating(values):
    return Series([float(v) for v in values], Mode.FLOAT)


def has_closed_form(pid):
    """Whether ``exact_solution`` has a closed form for the preset."""
    try:
        _closed_form(pid)
    except OracleUnavailableError:
        return False
    return True


def relclose(a, b, rel=1e-12):
    a, b = float(a), float(b)
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


@pytest.fixture
def problems_dir():
    return REPO_ROOT / "problems"
