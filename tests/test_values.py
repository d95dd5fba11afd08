"""The value-type contract: every public record is immutable and compares by value."""

import copy
import pickle
from fractions import Fraction

import pytest

from surjkit import (
    Asymptotics,
    BoxSpec,
    CellAddress,
    CoverageCertificate,
    CurveParam,
    DimLift,
    DomainError,
    EvalResult,
    PeanoLine,
    PhiCompose,
    PlanePoint,
    ProjectLift,
    ResourceError,
    ScalarSpan,
    StructuralError,
    VectorSpanMember,
    Witness,
    component_reduce,
)
from surjkit.cli import SpecFile

MEMBER = VectorSpanMember(((1.0, (1.0, 2.0)),), 2)
BOX = BoxSpec(((-1.0, 1.0), (0.0, 2.0)), 3)
WITNESS = Witness((0.5, 1.5), (Fraction(3, 4),), 1e-4)


# class -> (keyword arguments of one instance, in constructor order; the same
# with one field changed, which must compare unequal)
CASES = {
    CurveParam: ({"numerator": 3, "depth": 2}, {"depth": 3}),
    PlanePoint: ({"x": Fraction(1, 2), "y": Fraction(1, 4)}, {"y": Fraction(3, 4)}),
    CellAddress: ({"depth": 2, "col": 1, "row": 3}, {"row": 2}),
    ScalarSpan: ({"terms": ((1.0, 2.0), (-1.0, 1.0))}, {"terms": ((1.0, 2.0),)}),
    Asymptotics: (
        {"at_plus_infinity": float("inf"), "at_minus_infinity": float("-inf")},
        {"at_plus_infinity": 0.0},
    ),
    VectorSpanMember: ({"terms": ((1.0, (1.0, 2.0)),), "arity": 2}, {"terms": ()}),
    PeanoLine: ({}, None),
    DimLift: ({"inner": PeanoLine()}, {"inner": DimLift(PeanoLine())}),
    ProjectLift: ({"inner": PeanoLine(), "arity": 3}, {"arity": 2}),
    PhiCompose: (
        {"member": MEMBER, "inner": PeanoLine()},
        {"member": VectorSpanMember(((2.0, (1.0, 2.0)),), 2)},
    ),
    EvalResult: ({"value": (0.25, -0.5), "error_estimate": 1e-3}, {"error_estimate": 0.0}),
    BoxSpec: ({"bounds": ((-1.0, 1.0), (0.0, 2.0)), "grid_points": 3}, {"grid_points": 4}),
    Witness: (
        {"target": (0.5, 1.5), "preimage": (Fraction(3, 4),), "achieved_error": 1e-4},
        {"achieved_error": 2e-4},
    ),
    CoverageCertificate: (
        {
            "function_id": "peano_line",
            "box": BOX,
            "epsilon": 1e-3,
            "witnesses": (WITNESS,),
            "status": "failed",
            "worst_target": (0.5, 1.5),
        },
        {"status": "certified"},
    ),
    SpecFile: (
        {
            "pipeline": PhiCompose(MEMBER, PeanoLine()),
            "family_members": (MEMBER,),
            "certify_box": BOX,
            "certify_epsilon": 1e-3,
        },
        {"certify_epsilon": None},
    ),
}
CLASSES = list(CASES)


def make(cls, **changes):
    return cls(**{**CASES[cls][0], **changes})


@pytest.mark.parametrize("cls", CLASSES)
def test_assignment_and_deletion_raise(cls):
    obj = make(cls)
    for name in list(CASES[cls][0]) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    for name in CASES[cls][0]:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == make(cls)


@pytest.mark.parametrize("cls", CLASSES)
def test_equal_fields_compare_and_hash_equal(cls):
    a, b = make(cls), make(cls)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    changes = CASES[cls][1]
    if changes is not None:
        c = make(cls, **changes)
        assert a != c and not a == c


@pytest.mark.parametrize("cls", CLASSES)
def test_positional_and_keyword_construction_agree(cls):
    kwargs = CASES[cls][0]
    assert cls(*kwargs.values()) == cls(**kwargs)


def test_instances_of_different_classes_never_compare_equal():
    samples = [make(cls) for cls in CLASSES]
    for i, a in enumerate(samples):
        for j, b in enumerate(samples):
            assert (a == b) == (i == j)
    # equal field values in another class, or a bare tuple, are not equal
    assert Witness((0.5,), (1,), 0.25) != EvalResult((0.5,), 0.25)
    assert CurveParam(1, 1) != (1, 1)
    assert ScalarSpan(((1.0, 2.0),)) != ((1.0, 2.0),)

    class Sub(PeanoLine):
        __slots__ = ()

    assert Sub() != PeanoLine() and PeanoLine() != Sub()


def test_fields_outside_comparison_are_ignored():
    a, b = make(VectorSpanMember), make(VectorSpanMember)
    object.__setattr__(b, "spans", ())
    assert a == b and hash(a) == hash(b)
    assert "spans" not in repr(a)


@pytest.mark.parametrize("cls", CLASSES)
def test_repr_names_each_constructor_field(cls):
    obj = make(cls)
    shown = ", ".join(f"{name}={getattr(obj, name)!r}" for name in CASES[cls][0])
    assert repr(obj) == f"{cls.__name__}({shown})"


def test_repr_examples():
    assert repr(CurveParam(4, 2)) == "CurveParam(numerator=1, depth=1)"
    assert repr(PeanoLine()) == "PeanoLine()"
    assert repr(DimLift(PeanoLine())) == "DimLift(inner=PeanoLine())"
    assert repr(EvalResult((0.5,), 0.0)) == "EvalResult(value=(0.5,), error_estimate=0.0)"


@pytest.mark.parametrize("cls", CLASSES)
def test_copy_and_pickle_keep_the_value(cls):
    obj = make(cls)
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls and clone == obj and repr(clone) == repr(obj)


class TestValidation:
    def test_curve_param_is_canonical(self):
        assert CurveParam(4, 2) == CurveParam(1, 1)
        assert hash(CurveParam(4, 2)) == hash(CurveParam(1, 1))
        with pytest.raises(DomainError):
            CurveParam(17, 2)

    def test_plane_point_and_box_convert_their_fields(self):
        p = PlanePoint(0.5, 1)
        assert type(p.x) is Fraction and p == PlanePoint(Fraction(1, 2), Fraction(1))
        box = BoxSpec([(-1, 1)], 2)
        assert box.bounds == ((-1.0, 1.0),) and type(box.bounds[0][0]) is float

    def test_cell_address_checks_its_range(self):
        with pytest.raises(DomainError):
            CellAddress(1, 2, 0)

    def test_dim_lift_checks_arity_before_the_codomain_cap(self):
        six = DimLift(DimLift(DimLift(DimLift(PeanoLine()))))
        with pytest.raises(StructuralError):
            DimLift(ProjectLift(six, 2))
        with pytest.raises(ResourceError, match="^codomain 7 exceeds cap 6$"):
            DimLift(six)
        # a projection lift checks its inner map, then the arity's type, then the cap
        with pytest.raises(StructuralError):
            ProjectLift(ProjectLift(PeanoLine(), 2), 7)
        with pytest.raises(DomainError):
            ProjectLift(PeanoLine(), 7.0)
        with pytest.raises(ResourceError, match="^domain arity 7 exceeds cap 6$"):
            ProjectLift(PeanoLine(), 7)

    def test_project_lift_and_phi_compose_check_arities(self):
        with pytest.raises(DomainError):
            ProjectLift(PeanoLine(), 0)
        with pytest.raises(StructuralError):
            PhiCompose(VectorSpanMember(((1.0, (1.0,)),), 1), PeanoLine())

    def test_vector_span_member_normalises_its_terms(self):
        v = VectorSpanMember(((1.0, (1, 2)), (2.0, (1.0, 2.0)), (1.0, (3, 3)), (0.0, (4, 4))), 2)
        assert v.terms == ((1.0, (3.0, 3.0)), (3.0, (1.0, 2.0)))
        assert v == VectorSpanMember(((1.0, (3.0, 3.0)), (3.0, (1, 2))), 2)
        with pytest.raises(DomainError):
            VectorSpanMember(((1.0, (1.0,)),), 2)

    def test_phi_compose_reduces_its_spans(self):
        # the member reduces them once, when it is built; the node keeps no copy
        assert make(PhiCompose).member.spans == tuple(component_reduce(MEMBER))
        assert PhiCompose.__slots__ == PhiCompose._fields


@pytest.mark.parametrize("cls", CLASSES)
def test_constructor_rejects_misbound_arguments(cls):
    kwargs = CASES[cls][0]
    args = list(kwargs.values())
    with pytest.raises(TypeError):
        cls(*args, 0)
    with pytest.raises(TypeError):
        cls(**kwargs, not_a_field=0)
    if not kwargs:
        return  # no field to give twice or leave out
    with pytest.raises(TypeError):
        cls(*args[:1], **kwargs)
    for name in kwargs:
        with pytest.raises(TypeError):
            cls(**{key: value for key, value in kwargs.items() if key != name})
