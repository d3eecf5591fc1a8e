"""The five result records: repr, equality, hashing and immutability.

``Condensation``, ``ExtensionPlan``, ``BoundsReport`` and ``AnalysisReport``
are named tuples; ``DiceSet`` is a class that checks its one field.  A
complete dicut's side is a plain sorted tuple, as ``AnalysisReport``'s
``certificate`` shows.  Each repr below is pinned to the text the records
printed as frozen dataclasses, that certificate aside, and each record
compares and hashes by value and refuses assignment and deletion.
"""

import pytest

from strongext import (
    BoundsReport,
    DiceSet,
    InvalidDiceError,
    StrictDigraph,
    bounds,
    extend,
    strong_components,
)
from strongext.cli import analyze

PATH3 = StrictDigraph(3, [(0, 1), (1, 2)])
TT3 = StrictDigraph(3, [(0, 1), (0, 2), (1, 2)])

# (build, repr): build is called twice, for two separately built equal records
RECORDS = [
    (
        lambda: strong_components(PATH3),
        "Condensation(component_of=(0, 1, 2), components=((0,), (1,), (2,)), "
        "successors=(frozenset({1}), frozenset({2}), frozenset()), "
        "source_components=frozenset({0}), sink_components=frozenset({2}), "
        "weak_groups=((0, 1, 2),))",
    ),
    (
        lambda: extend(PATH3),
        "ExtensionPlan(added=((2, 0),), "
        "resulting=StrictDigraph(n=3, edges=[(0, 1), (1, 2), (2, 0)]))",
    ),
    (
        lambda: bounds(PATH3),
        "BoundsReport(lower=1, lower_matched=None, upper_theorem=2, "
        "upper_cyclic=None, upper_prop=None, brute_min=1)",
    ),
    (
        lambda: analyze(TT3),
        "AnalysisReport(verdict='not-strongly-connectable', "
        "summary=Condensation(component_of=(0, 1, 2), "
        "components=((0,), (1,), (2,)), "
        "successors=(frozenset({1, 2}), frozenset({2}), frozenset()), "
        "source_components=frozenset({0}), sink_components=frozenset({2}), "
        "weak_groups=((0, 1, 2),)), "
        "certificate=(0,), "
        "plan=None, bounds_report=None)",
    ),
    (
        lambda: DiceSet(((9, 1, 5), (3, 4, 8), (2, 6, 7))),
        "DiceSet(dice=((1, 5, 9), (3, 4, 8), (2, 6, 7)))",
    ),
]
IDS = [text.split("(", 1)[0] for _, text in RECORDS]


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_repr_is_pinned(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_equal_and_hashed_by_value(build, text):
    first, second = build(), build()
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_assignment_and_deletion_are_refused(build, text):
    record = build()
    field = text.split("(", 1)[1].split("=", 1)[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, field) == value
    assert repr(record) == text


def test_records_of_different_values_differ():
    assert BoundsReport(1, None, 2, None, None, 1) != BoundsReport(
        1, None, 2, None, None, None
    )
    assert DiceSet(((1, 4), (2, 3))) != DiceSet(((1, 3), (2, 4)))
    # a dice set is never equal to its bare field value
    assert DiceSet(((1, 2),)) != ((1, 2),)


@pytest.mark.parametrize(
    "dice, message",
    [
        (((1, 2), (2, 3)), "face 2 appears twice"),
        (((1, 1), (2, 3)), "face 1 appears twice"),
        (((1, 2), (3,)), "die 1 has 1 faces, expected 2"),
        (((0, 1), (2, 3)), "face values must be positive, got 0"),
        ((), "need at least one die"),
        (((), ()), "dice must have at least one face"),
    ],
)
def test_dice_set_rejects_bad_dice(dice, message):
    with pytest.raises(InvalidDiceError) as info:
        DiceSet(dice)
    assert str(info.value) == message
