"""The records are plain named tuples of the values they are given.

Their fields come from parsed scenario keys, which are checked once, by the
key table; the records add no checks of their own. Built by position, by
keyword (as the benchmark builds DephasingInput), by _make or by _replace,
each is the tuple of its fields.
"""

from __future__ import annotations

import pytest

from gravclock.core import YB, ClockSpecies, PhysicalConstants
from gravclock.dephasing import DephasingInput
from gravclock.thresholds import TauMaxProblem

# (record, valid fields)
CASES = [
    (PhysicalConstants, (9.80665, 2.99792458e8)),
    (ClockSpecies, tuple(YB)),
    (DephasingInput, (1e-5, 1e-3, 11, 30.0)),
    (TauMaxProblem, (201, 40_000, 1e-2, 1e-3)),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("record, good", CASES, ids=IDS)
def test_valid_record_is_the_tuple_of_its_fields(record, good):
    instance = record(*good)
    assert instance == good
    assert record(**dict(zip(record._fields, good))) == instance
    assert record._make(good) == instance
    assert instance._replace() == instance


@pytest.mark.parametrize("record, good", CASES, ids=IDS)
def test_record_is_immutable_and_has_no_dict(record, good):
    instance = record(*good)
    with pytest.raises(AttributeError):
        setattr(instance, record._fields[-1], good[-1])
    with pytest.raises(AttributeError):
        instance.extra = 1
    assert not hasattr(instance, "__dict__")
