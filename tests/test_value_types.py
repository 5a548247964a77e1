"""The contract every value type keeps: keyword construction and defaults,
repr, equality and hashing by field tuple, immutability, no order, and
copy, deepcopy and pickle round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from delzant import (
    BlowUp,
    CircleDirection,
    DelzantReport,
    EdgeData,
    ExtendabilityReport,
    FatVertex,
    FixedPointData,
    HirzebruchParams,
    IntersectionForm,
    IntVec2,
    IsolatedFixed,
    IsolatedPoint,
    LabeledGraph,
    Polygon,
    RatVec2,
    SphereProduct,
    SurfaceFixed,
    UnimodularAffine,
    Violation,
    ZkEdge,
    edge_data,
    make_polygon,
)
from delzant.errors import (
    DelzantError,
    FormatError,
    GraphError,
    InvalidParamsError,
    NotUnimodularError,
)
from reference_polygons import mat_inverse_unimodular

TRIANGLE = ((0, 0), (1, 0), (0, 1))
TRIANGLE_REPR = (
    "(RatVec2(x=Fraction(0, 1), y=Fraction(0, 1)), RatVec2(x=Fraction(1, 1), y=Fraction(0, 1)), "
    "RatVec2(x=Fraction(0, 1), y=Fraction(1, 1)))"
)
NORMALS = (IntVec2(0, 1), IntVec2(-1, -1), IntVec2(1, 0))
LEVEL = Violation("level", Fraction(1, 2), "3 non-free orbits at level 1/2")
LEVEL_REPR = (
    "Violation(kind='level', moment=Fraction(1, 2), detail='3 non-free orbits at level 1/2')"
)
ENDS = (IsolatedPoint(0, (1, 2)), IsolatedPoint(1, (-1, -2)))

# (class, keyword arguments, repr, compared fields, defaults, keyword
# arguments of an unequal value)
CASES = [
    (IntVec2, dict(x=1, y=-2), "IntVec2(x=1, y=-2)", ("x", "y"), {}, dict(x=1, y=3)),
    (RatVec2, dict(x="5/2", y=-1), "RatVec2(x=Fraction(5, 2), y=Fraction(-1, 1))",
     ("_xyd",), {}, dict(x=Fraction(5, 2), y=1)),
    (UnimodularAffine, dict(linear=((1, 1), (0, 1)), translation=RatVec2(Fraction(1, 2), -3)),
     "UnimodularAffine(linear=((1, 1), (0, 1)), "
     "translation=RatVec2(x=Fraction(1, 2), y=Fraction(-3, 1)))",
     ("linear", "translation"),
     dict(linear=((1, 0), (0, 1)), translation=RatVec2(0, 0)),
     dict(linear=((1, 1), (0, 1)), translation=RatVec2(0, -3))),
    (EdgeData,
     dict(tail_index=0, direction=IntVec2(1, 0), inward_normal=IntVec2(0, 1),
          lattice_length=Fraction(5, 2)),
     "EdgeData(tail_index=0, direction=IntVec2(x=1, y=0), inward_normal=IntVec2(x=0, y=1), "
     "lattice_length=Fraction(5, 2))",
     ("tail_index", "direction", "inward_normal", "lattice_length"), {},
     dict(tail_index=1, direction=IntVec2(1, 0), inward_normal=IntVec2(0, 1),
          lattice_length=Fraction(5, 2))),
    (Polygon, dict(vertices=TRIANGLE),
     f"Polygon(vertices={TRIANGLE_REPR}, input_reversed=False)", ("_pts",), {},
     dict(vertices=((0, 0), (2, 0), (0, 1)))),
    (DelzantReport,
     dict(is_delzant=True, normals=NORMALS, failures=(), input_reversed=False),
     "DelzantReport(is_delzant=True, normals=(IntVec2(x=0, y=1), IntVec2(x=-1, y=-1), "
     "IntVec2(x=1, y=0)), failures=(), input_reversed=False)",
     ("is_delzant", "normals", "failures", "input_reversed"), dict(input_reversed=False),
     dict(is_delzant=True, normals=NORMALS, failures=(), input_reversed=True)),
    (HirzebruchParams, dict(a="5/2", b=1, m=2),
     "HirzebruchParams(a=Fraction(5, 2), b=Fraction(1, 1), m=2)", ("a", "b", "m"), {},
     dict(a="5/2", b=1, m=0)),
    (SphereProduct, dict(a=1, b="5/2"), "SphereProduct(a=Fraction(5, 2), b=Fraction(1, 1))",
     ("a", "b"), {}, dict(a=3, b=1)),
    (BlowUp, dict(l=3, e=2), "BlowUp(l=Fraction(3, 1), e=Fraction(2, 1))", ("l", "e"), {},
     dict(l=3, e=1)),
    (IntersectionForm, dict(matrix=((0, 1), (1, 0))),
     "IntersectionForm(matrix=((0, 1), (1, 0)))", ("matrix",), {},
     dict(matrix=((1, 0), (0, -1)))),
    (CircleDirection, dict(xi=(1, 2)), "CircleDirection(xi=IntVec2(x=1, y=2))", ("xi",), {},
     dict(xi=IntVec2(2, 1))),
    (IsolatedPoint, dict(moment="1/2", weights=(1, -1)),
     "IsolatedPoint(moment=Fraction(1, 2), weights=(-1, 1))", ("moment", "weights"), {},
     dict(moment="1/2", weights=(1, 1))),
    (FatVertex, dict(moment=0, area=3, genus=0),
     "FatVertex(moment=Fraction(0, 1), area=Fraction(3, 1), genus=0)",
     ("moment", "area", "genus"), dict(genus=0), dict(moment=0, area=3, genus=1)),
    (ZkEdge, dict(k=2, endpoints=(0, 1), moment_interval=(0, "1/2")),
     "ZkEdge(k=2, endpoints=(0, 1), moment_interval=(Fraction(0, 1), Fraction(1, 2)))",
     ("k", "endpoints", "moment_interval"), {},
     dict(k=3, endpoints=(0, 1), moment_interval=(0, "1/2"))),
    (LabeledGraph, dict(nodes=ENDS, edges=(ZkEdge(2, (0, 1), (0, 1)),)),
     "LabeledGraph(nodes=(IsolatedPoint(moment=Fraction(0, 1), weights=(1, 2)), "
     "IsolatedPoint(moment=Fraction(1, 1), weights=(-2, -1))), "
     "edges=(ZkEdge(k=2, endpoints=(0, 1), moment_interval=(Fraction(0, 1), Fraction(1, 1))),))",
     ("nodes", "edges"), dict(edges=()), dict(nodes=ENDS, edges=())),
    (IsolatedFixed, dict(index=2), "IsolatedFixed(index=2)", ("index",), {}, dict(index=4)),
    (SurfaceFixed, dict(index=0, genus=0), "SurfaceFixed(index=0, genus=0)",
     ("index", "genus"), dict(genus=0), dict(index=2, genus=0)),
    (FixedPointData, dict(components=(SurfaceFixed(0), IsolatedFixed(2), SurfaceFixed(2))),
     "FixedPointData(components=(SurfaceFixed(index=0, genus=0), IsolatedFixed(index=2), "
     "SurfaceFixed(index=2, genus=0)))", ("components",), {},
     dict(components=(IsolatedFixed(0),))),
    (Violation, dict(kind="level", moment=Fraction(1, 2), detail=LEVEL.detail), LEVEL_REPR,
     ("kind", "moment", "detail"), {}, dict(kind="genus", moment=None, detail="")),
    (ExtendabilityReport, dict(extendable=False, violations=(LEVEL,)),
     f"ExtendabilityReport(extendable=False, violations=({LEVEL_REPR},))",
     ("extendable", "violations"), {}, dict(extendable=True, violations=())),
]

SAMPLES = {cls: cls(**kwargs) for cls, kwargs, *_ in CASES}


def _key(value, fields):
    return tuple(getattr(value, name) for name in fields)


@pytest.mark.parametrize(
    "cls,kwargs,text,fields,defaults,other_kwargs", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_value_type_contract(cls, kwargs, text, fields, defaults, other_kwargs):
    value = cls(**kwargs)
    assert repr(value) == text
    positional = cls(*kwargs.values())
    assert value == positional and not value != positional
    assert hash(value) == hash(positional) == hash(_key(value, fields))

    other = cls(**other_kwargs)
    assert (value == other) is (_key(value, fields) == _key(other, fields)) is False
    assert value != other and hash(other) == hash(_key(other, fields))
    foreign = [v for c, v in SAMPLES.items() if c is not cls]
    for stranger in [_key(value, fields), object(), *foreign]:
        assert not value == stranger and value != stranger

    for name in (*kwargs, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in kwargs:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text

    bare = cls(**{k: v for k, v in kwargs.items() if k not in defaults})
    assert {name: getattr(bare, name) for name in defaults} == defaults

    with pytest.raises(TypeError):
        value < other  # noqa: B015

    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == text
        assert hash(twin) == hash(value)


def test_polygon_equality_ignores_input_reversed():
    ccw = Polygon(TRIANGLE)
    cw = Polygon(TRIANGLE[::-1])
    assert (ccw.input_reversed, cw.input_reversed) == (False, True)
    assert ccw == cw and hash(ccw) == hash(cw) == hash((ccw._pts,))
    assert repr(cw) == f"Polygon(vertices={TRIANGLE_REPR}, input_reversed=True)"
    assert edge_data(copy.deepcopy(cw)) == edge_data(ccw)


@pytest.mark.parametrize(
    "cls,args,error",
    [
        pytest.param(IntersectionForm, ([1, 2],), InvalidParamsError, id="form-flat"),
        pytest.param(IntersectionForm, (((0, 1), (1, 0.5)),), InvalidParamsError,
                     id="form-float-entry"),
        pytest.param(IntersectionForm, (((0, 1), (2, 0)),), InvalidParamsError,
                     id="form-not-symmetric"),
        pytest.param(IntersectionForm, (((1, 1), (1, 1)),), InvalidParamsError,
                     id="form-degenerate"),
        pytest.param(mat_inverse_unimodular, (((2, 0), (0, 1)),), NotUnimodularError,
                     id="inverse-determinant-2"),
        pytest.param(UnimodularAffine, (((1.0, 0), (0, 1)),), NotUnimodularError,
                     id="affine-float-entry"),
        pytest.param(UnimodularAffine, ([1, 2],), NotUnimodularError, id="affine-flat"),
        pytest.param(UnimodularAffine, (((1, 0), (0, 1)), (1,)), NotUnimodularError,
                     id="affine-short-translation"),
        pytest.param(IsolatedPoint, (0, 5), GraphError, id="point-scalar-weights"),
        pytest.param(ZkEdge, (2, (0, 1), 5), GraphError, id="edge-scalar-interval"),
        pytest.param(ZkEdge, (2, 5, (0, 1)), GraphError, id="edge-scalar-endpoints"),
        pytest.param(LabeledGraph, (5,), GraphError, id="graph-scalar-nodes"),
        pytest.param(LabeledGraph, ((IsolatedPoint(0, (1, 1)),), (5,)), GraphError,
                     id="graph-non-edge"),
        # a float, a tuple or a bool where a rational belongs
        pytest.param(IsolatedPoint, (0.5, (1, 1)), DelzantError, id="point-float-moment"),
        pytest.param(FatVertex, (0, (1,)), DelzantError, id="fat-vertex-tuple-area"),
        pytest.param(RatVec2, (1.5, 0), DelzantError, id="vector-float-entry"),
        pytest.param(HirzebruchParams, (True, 1, 0), DelzantError, id="params-bool-a"),
        # a point that is not a pair, and fixed components of the wrong type
        pytest.param(make_polygon, ([(0, 0, 9), (1, 0), (0, 1)],), FormatError,
                     id="polygon-triple-point"),
        pytest.param(Polygon, ([(0, 0), (1, 0), (1,)],), FormatError, id="polygon-short-point"),
        pytest.param(make_polygon, ([(0, 0), (1, 0), 5],), FormatError,
                     id="polygon-scalar-point"),
        pytest.param(Polygon, (5,), FormatError, id="polygon-scalar-vertices"),
        pytest.param(Polygon, (None,), FormatError, id="polygon-none-vertices"),
        pytest.param(make_polygon, (5,), FormatError, id="make-polygon-scalar"),
        pytest.param(FixedPointData, ((1, 2),), GraphError, id="fixed-data-int-components"),
        pytest.param(FixedPointData, (5,), GraphError, id="fixed-data-scalar"),
        # a direction that is not a pair
        pytest.param(CircleDirection, (5,), DelzantError, id="direction-scalar"),
        pytest.param(CircleDirection, (None,), DelzantError, id="direction-none"),
        pytest.param(CircleDirection, ((1, 2, 3),), DelzantError, id="direction-triple"),
    ],
)
def test_malformed_shapes_raise_package_errors(cls, args, error):
    with pytest.raises(error):
        cls(*args)
