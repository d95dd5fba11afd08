"""The value-type contract: every public record is immutable and compares by value."""

import copy
import pickle
from fractions import Fraction

import pytest

from surjkit import (
    Asymptotics,
    BoxSpec,
    CoverageCertificate,
    DomainError,
    EvalResult,
    FunctionExpr,
    ResourceError,
    ScalarSpan,
    StructuralError,
    VectorSpanMember,
    Witness,
    component_reduce,
    compose_with_base,
    extend_to_line,
    lift_dimension,
    project_lift,
)
from surjkit._formats import SpecFile

MEMBER = VectorSpanMember(((1.0, (1.0, 2.0)),), 2)
BOX = BoxSpec(((-1.0, 1.0), (0.0, 2.0)), 3)
WITNESS = Witness((0.5, 1.5), (Fraction(3, 4),), 1e-4)


# test id -> (class, keyword arguments of one instance, in constructor order;
# the same with one field changed, which must compare unequal); a value class
# is its own id, and the four tree shapes keep the ids of the node classes
# they once were, so that these test names stay stable
CASES = {
    "ScalarSpan": (
        ScalarSpan, {"terms": ((1.0, 2.0), (-1.0, 1.0))}, {"terms": ((1.0, 2.0),)}
    ),
    "Asymptotics": (
        Asymptotics,
        {"at_plus_infinity": float("inf"), "at_minus_infinity": float("-inf")},
        {"at_plus_infinity": 0.0},
    ),
    "VectorSpanMember": (
        VectorSpanMember, {"terms": ((1.0, (1.0, 2.0)),), "arity": 2}, {"terms": ()}
    ),
    # the bare line-to-plane map, one lift, a projection, a member after a base
    "PeanoLine": (FunctionExpr, {"lifts": 0, "arity": 1, "member": None}, {"lifts": 1}),
    "DimLift": (FunctionExpr, {"lifts": 1, "arity": 1, "member": None}, {"lifts": 2}),
    "ProjectLift": (FunctionExpr, {"lifts": 0, "arity": 3, "member": None}, {"arity": 2}),
    "PhiCompose": (
        FunctionExpr,
        {"lifts": 0, "arity": 1, "member": MEMBER},
        {"member": VectorSpanMember(((2.0, (1.0, 2.0)),), 2)},
    ),
    "EvalResult": (
        EvalResult, {"value": (0.25, -0.5), "error_estimate": 1e-3}, {"error_estimate": 0.0}
    ),
    "BoxSpec": (
        BoxSpec, {"bounds": ((-1.0, 1.0), (0.0, 2.0)), "grid_points": 3}, {"grid_points": 4}
    ),
    "Witness": (
        Witness,
        {"target": (0.5, 1.5), "preimage": (Fraction(3, 4),), "achieved_error": 1e-4},
        {"achieved_error": 2e-4},
    ),
    "CoverageCertificate": (
        CoverageCertificate,
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
    "SpecFile": (
        SpecFile,
        {
            "pipeline": compose_with_base(MEMBER, extend_to_line()),
            "family_members": (MEMBER,),
            "certify_box": BOX,
            "certify_epsilon": 1e-3,
        },
        {"certify_epsilon": None},
    ),
}
IDS = list(CASES)


def make(case, **changes):
    cls, kwargs, _ = CASES[case]
    return cls(**{**kwargs, **changes})


@pytest.mark.parametrize("case", IDS)
def test_assignment_and_deletion_raise(case):
    obj = make(case)
    for name in list(CASES[case][1]) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    for name in CASES[case][1]:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == make(case)


@pytest.mark.parametrize("case", IDS)
def test_equal_fields_compare_and_hash_equal(case):
    a, b = make(case), make(case)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    c = make(case, **CASES[case][2])
    assert a != c and not a == c


@pytest.mark.parametrize("case", IDS)
def test_positional_and_keyword_construction_agree(case):
    cls, kwargs, _ = CASES[case]
    assert cls(*kwargs.values()) == cls(**kwargs)


def test_instances_of_different_classes_never_compare_equal():
    # the four tree shapes are one class with unequal fields
    samples = [make(case) for case in IDS]
    for i, a in enumerate(samples):
        for j, b in enumerate(samples):
            assert (a == b) == (i == j)
    # equal field values in another class, or a bare tuple, are not equal
    assert Witness((0.5,), (1,), 0.25) != EvalResult((0.5,), 0.25)
    assert ScalarSpan(((1.0, 2.0),)) != ((1.0, 2.0),)

    class Sub(FunctionExpr):
        __slots__ = ()

    assert Sub(0, 1, None) != extend_to_line() and extend_to_line() != Sub(0, 1, None)


def test_fields_outside_comparison_are_ignored():
    a, b = make("VectorSpanMember"), make("VectorSpanMember")
    object.__setattr__(b, "spans", ())
    assert a == b and hash(a) == hash(b)
    assert "spans" not in repr(a)


@pytest.mark.parametrize("case", IDS)
def test_repr_names_each_constructor_field(case):
    cls, kwargs, _ = CASES[case]
    obj = make(case)
    shown = ", ".join(f"{name}={getattr(obj, name)!r}" for name in kwargs)
    assert repr(obj) == f"{cls.__name__}({shown})"


def test_repr_examples():
    assert repr(extend_to_line()) == "FunctionExpr(lifts=0, arity=1, member=None)"
    assert repr(project_lift(lift_dimension(extend_to_line()), 3)) == (
        "FunctionExpr(lifts=1, arity=3, member=None)"
    )
    assert repr(EvalResult((0.5,), 0.0)) == "EvalResult(value=(0.5,), error_estimate=0.0)"


@pytest.mark.parametrize("case", IDS)
def test_copy_and_pickle_keep_the_value(case):
    cls = CASES[case][0]
    obj = make(case)
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls and clone == obj and repr(clone) == repr(obj)


class TestValidation:
    def test_box_converts_its_fields(self):
        box = BoxSpec([(-1, 1)], 2)
        assert box.bounds == ((-1.0, 1.0),) and type(box.bounds[0][0]) is float

    def test_dim_lift_checks_arity_before_the_codomain_cap(self):
        six = extend_to_line()
        for _ in range(4):
            six = lift_dimension(six)
        with pytest.raises(StructuralError):
            lift_dimension(project_lift(six, 2))
        with pytest.raises(ResourceError, match="^codomain 7 exceeds cap 6$"):
            lift_dimension(six)
        # a projection lift checks its inner map, then the arity's type, then the cap
        with pytest.raises(StructuralError):
            project_lift(project_lift(extend_to_line(), 2), 7)
        with pytest.raises(DomainError):
            project_lift(extend_to_line(), 7.0)
        with pytest.raises(ResourceError, match="^domain arity 7 exceeds cap 6$"):
            project_lift(extend_to_line(), 7)

    def test_project_lift_and_phi_compose_check_arities(self):
        with pytest.raises(DomainError):
            project_lift(extend_to_line(), 0)
        with pytest.raises(StructuralError):
            compose_with_base(VectorSpanMember(((1.0, (1.0,)),), 1), extend_to_line())

    def test_vector_span_member_normalises_its_terms(self):
        v = VectorSpanMember(((1.0, (1, 2)), (2.0, (1.0, 2.0)), (1.0, (3, 3)), (0.0, (4, 4))), 2)
        assert v.terms == ((1.0, (3.0, 3.0)), (3.0, (1.0, 2.0)))
        assert v == VectorSpanMember(((1.0, (3.0, 3.0)), (3.0, (1, 2))), 2)
        with pytest.raises(DomainError):
            VectorSpanMember(((1.0, (1.0,)),), 2)

    def test_phi_compose_reduces_its_spans(self):
        # the member reduces them once, when it is built; the tree keeps no copy
        tree = compose_with_base(MEMBER, extend_to_line())
        assert tree.member.spans == tuple(component_reduce(MEMBER))
        assert FunctionExpr.__slots__ == FunctionExpr._fields


@pytest.mark.parametrize("case", IDS)
def test_constructor_rejects_misbound_arguments(case):
    cls, kwargs, _ = CASES[case]
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
