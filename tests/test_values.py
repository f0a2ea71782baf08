"""Every value type survives pickle, copy and deepcopy as an equal value
of the same type."""

import copy
import pickle
from fractions import Fraction

import pytest

from feident.poly import Polynomial
from feident.series import EgfSeries
from feident.verify import REQUIRED, Mismatch, Param, VerificationReport

MISMATCH = Mismatch("x^1", Fraction(1, 3), Fraction(-2, 3))

VALUES = [
    EgfSeries([1, Fraction(-1, 2), Fraction(1, 6)]),
    Polynomial([Fraction(1, 2), 0, -3]),
    MISMATCH,
    VerificationReport("theorem3", "as_printed", {"n": "2", "N": "2", "u": "2"}, (MISMATCH,)),
    Param("T", True, 16),
    Param("u", False, REQUIRED),
]


@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_round_trip(value, round_trip):
    result = round_trip(value)
    assert type(result) is type(value)
    assert result == value


@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_required_stays_the_one_sentinel(round_trip):
    assert round_trip(REQUIRED) is REQUIRED
    assert repr(REQUIRED) == "REQUIRED"
