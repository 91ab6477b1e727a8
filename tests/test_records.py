"""The record classes are immutable value objects.

Every record (trivalent._record.Record) is checked on one instance built
by keyword: its fields cannot be assigned or deleted, an instance with
equal fields is == and hashes the same, its repr reads Name(field=value,
...), and copy.deepcopy gives an equal instance; a deep-copied
propagator's matrices are its own.  The one constructor they share
rejects a missing, unknown, repeated or surplus argument, and the records
that validate their fields still do.
"""

import copy

import pytest

from trivalent import canon
from trivalent import graphs as G
from trivalent import morse as M
from trivalent import surgery as S

THETA = G.LabelledTrivalentGraph(2, ((0, 1), (0, 1), (0, 1)))
SLOT = S.HandleSlot(vertex=0, position=0, edge=0, end=0, outgoing=True, degree=1)

# each record class with the fields of one instance, in declaration order
RECORDS = [
    (canon.CanonResult, dict(enc=(0, 3, 0), perm=(0, 1), aut_generators=((1, 0),))),
    (G.LabelledTrivalentGraph, dict(num_vertices=2, edges=((0, 1), (0, 1), (0, 1)))),
    (G.GraphClass, dict(key="cub:4:0-1,0-2,0-3,1-2,1-3,2-3", sign=-1)),
    (G.Automorphism, dict(vertex_perm=(1, 0), edge_perm=(0, 2, 1))),
    (G.FourValentGraph, dict(num_vertices=1, edges=((0, 0), (0, 0)), hub=0,
                             tagging=((0, 0), (0, 1), (1, 0), (1, 1)))),
    (G.ArrowGraph, dict(graph=THETA, directions=((0, 1), (0, 1), (1, 0)))),
    (M.GradedComplex, dict(ranks=(1, 1, 0, 0, 0), boundaries={1: [[1]], 2: [[]], 3: [], 4: []})),
    (M.Propagator, dict(ranks=(1, 1, 0, 0, 0), mats={0: [[1]], 1: [], 2: [], 3: []},
                        dens={0: 2, 1: 1, 2: 1, 3: 1})),
    (M.BasisRef, dict(degree=1, position=0)),
    (M.HandleSlideEvent, dict(p=M.BasisRef(1, 0), q=M.BasisRef(1, 1), sign=-1)),
    (M.CGraph, dict(underlying=THETA, split=(0,), decorations={0: (M.BasisRef(2, 0), M.BasisRef(1, 0))},
                    arcs={0: ((0, 2), (3, 1))})),
    (S.HandleSlot, dict(vertex=1, position=2, edge=2, end=1, outgoing=False, degree=2)),
    (S.YLinkData, dict(vertex_types=("I", "II"), slots=(SLOT,), hopf_pairs=((0, 3),),
                       convention="default")),
    (S.LinkingMatrix, dict(size=2, entries=((0, 1), (1, 0)))),
    (S.BlockDegrees, dict(degrees=((1, 1, 2), (2, 2, 1)), parities=(0, 1))),
    (S.EvaluationReport, dict(mode="orbit", input_json={"vertices": 2}, result={"cub:2": 1},
                              diagnostics={"copies": "1"}, notes=("folded",))),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    r = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
        assert getattr(r, name) is value
    with pytest.raises(AttributeError):
        r.extra = 1


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_equal_fields_make_equal_records(cls, fields):
    """A copy of the fields, given by keyword or in order, and a deep copy
    of the record give an equal record with the same hash; another value
    in any one field does not compare equal."""
    r = cls(**fields)
    twins = (
        cls(**copy.deepcopy(fields)),
        cls(*copy.deepcopy(list(fields.values()))),
        copy.deepcopy(r),
    )
    for twin in twins:
        assert twin is not r
        assert twin == r and not twin != r
        assert hash(twin) == hash(r)
    for name in fields:
        other = cls.__new__(cls)  # past any validation in __init__
        other.__dict__.update(fields, **{name: object()})
        assert other != r and r != other


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_repr_names_each_field(cls, fields):
    want = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({want})"


def test_deepcopy_of_a_propagator_owns_its_matrices():
    """A deep copy's mats can be edited without touching the original,
    as bench/selfcheck.py does to build a wrong propagator."""
    p = M.Propagator(**dict(RECORDS)[M.Propagator])
    q = copy.deepcopy(p)
    q.mats[0][0][0] += 1
    assert (p.mats[0], q.mats[0]) == ([[1]], [[2]])
    assert q != p


def test_bad_reference_names_the_record():
    """The validation message shows the record by its repr."""
    with pytest.raises(M.InvalidDecorationError) as err:
        M.BasisRef(5, 0)
    assert str(err.value) == "bad basis reference BasisRef(degree=5, position=0)"


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_constructor_rejects_bad_arguments(cls, fields):
    """A missing first field (none has a default), an unknown keyword, a
    field given both by position and by keyword, and one positional
    argument too many are each a TypeError naming the class."""
    values = list(fields.values())
    first = next(iter(fields))
    bad_calls = (
        lambda: cls(**{name: v for name, v in fields.items() if name != first}),
        lambda: cls(**fields, extra=1),
        lambda: cls(values[0], **fields),
        lambda: cls(*values, object()),
    )
    for call in bad_calls:
        with pytest.raises(TypeError, match=rf"^{cls.__name__} "):
            call()


def test_notes_default_to_empty():
    fields = dict(RECORDS)[S.EvaluationReport]
    fields = {name: v for name, v in fields.items() if name != "notes"}
    report = S.EvaluationReport(**fields)
    assert report.notes == ()
    assert report == S.EvaluationReport(*fields.values()) == S.EvaluationReport(**fields, notes=())


REF = M.BasisRef(1, 0)
BOUNDARIES = {1: [[1]], 2: [[]], 3: [], 4: []}


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: M.GradedComplex((1, 1, 0, 0), BOUNDARIES), M.MorseError,
         "ranks must be five non-negative integers"),
        (lambda: M.GradedComplex(ranks=(1, -1, 0, 0, 0), boundaries=BOUNDARIES), M.MorseError,
         "ranks must be five non-negative integers"),
        (lambda: M.GradedComplex((1, 1, 0, 0, 0), {1: [[1]], 2: [[]], 4: []}), M.MorseError,
         "missing boundary for degree 3"),
        (lambda: M.GradedComplex((1, 1, 0, 0, 0), {**BOUNDARIES, 1: [[1, 0]]}), M.MorseError,
         "boundary 1 must be 1 x 1"),
        (lambda: M.BasisRef(degree=1, position=-1), M.InvalidDecorationError,
         "bad basis reference BasisRef(degree=1, position=-1)"),
        (lambda: M.HandleSlideEvent(REF, M.BasisRef(2, 0), 1), M.MorseError,
         "handle slides need two distinct same-degree elements"),
        (lambda: M.HandleSlideEvent(p=REF, q=M.BasisRef(1, 0), sign=1), M.MorseError,
         "handle slides need two distinct same-degree elements"),
        (lambda: M.HandleSlideEvent(REF, M.BasisRef(1, 1), 2), M.MorseError,
         "sign must be +1 or -1"),
    ],
)
def test_validating_records_reject_bad_fields(make, error, message):
    """Bad fields, given by position or by keyword, raise the record's own
    error with its message."""
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message
