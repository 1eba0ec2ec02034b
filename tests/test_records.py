"""The records that check their inputs refuse a bad value on every road in.

Each is a named tuple whose __new__ runs the checks. namedtuple's own _make,
which _replace calls, builds the tuple without __new__, so each record
overrides _make; these tests fail without that override.
"""

from __future__ import annotations

import pytest

from gravclock.core import YB, ClockSpecies, PhysicalConstants
from gravclock.dephasing import Convention, DephasingInput
from gravclock.thresholds import TauMaxProblem

# (record, valid fields, one field set to a refused value, the refusal's message)
CASES = [
    (PhysicalConstants, (9.80665, 2.99792458e8), ("g", -1.0), "g must be positive"),
    (ClockSpecies, tuple(YB), ("omega0", -1.0), "omega0 must be positive"),
    (DephasingInput, (1e-5, 1e-3, 11, 30.0, Convention.PHYSICAL), ("t", -1.0), "t must be >= 0"),
    (
        TauMaxProblem,
        (201, 40_000, 1e-2, 1e-3, Convention.PAPER_FIGURE),
        ("atoms_per_layer", 0),
        "atoms_per_layer must be >= 1",
    ),
]
IDS = [case[0].__name__ for case in CASES]


def _bad_fields(record, good, bad):
    name, value = bad
    return tuple(value if field == name else v for field, v in zip(record._fields, good))


@pytest.mark.parametrize("record, good, bad, message", CASES, ids=IDS)
def test_valid_record_is_the_tuple_of_its_fields(record, good, bad, message):
    instance = record(*good)
    assert instance == good
    assert record(**dict(zip(record._fields, good))) == instance
    assert record._make(good) == instance
    assert instance._replace() == instance


@pytest.mark.parametrize("record, good, bad, message", CASES, ids=IDS)
def test_bad_value_is_refused_on_every_road(record, good, bad, message):
    values = _bad_fields(record, good, bad)
    with pytest.raises(ValueError, match=message):
        record(*values)
    with pytest.raises(ValueError, match=message):
        record(**dict(zip(record._fields, values)))
    with pytest.raises(ValueError, match=message):
        record._make(values)
    with pytest.raises(ValueError, match=message):
        record(*good)._replace(**dict([bad]))


@pytest.mark.parametrize("record, good, bad, message", CASES, ids=IDS)
def test_record_is_immutable_and_has_no_dict(record, good, bad, message):
    instance = record(*good)
    with pytest.raises(AttributeError):
        setattr(instance, bad[0], bad[1])
    with pytest.raises(AttributeError):
        instance.extra = 1
    assert not hasattr(instance, "__dict__")
