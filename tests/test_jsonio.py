"""Serialization round trips and format validation."""

import copy
import json
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from delzant import (
    BlowUp,
    FatVertex,
    FixedPointData,
    HirzebruchParams,
    IntVec2,
    IsolatedFixed,
    IsolatedPoint,
    LabeledGraph,
    RatVec2,
    SphereProduct,
    SurfaceFixed,
    UnimodularAffine,
    ZkEdge,
    circle_graph,
    fixed_point_data,
    is_delzant,
    make_polygon,
    standard_trapezoid,
)
from delzant import jsonio
from delzant.errors import DelzantError, FormatError, GraphError
from delzant.lattice import as_rational


def test_rational_strings():
    assert str(Fraction(5, 2)) == "5/2"
    assert str(Fraction(3)) == "3"
    assert jsonio.rational_from_json("5/2") == Fraction(5, 2)
    with pytest.raises(FormatError):
        jsonio.rational_from_json(2.5)
    with pytest.raises(FormatError):
        jsonio.rational_from_json("abc")
    with pytest.raises(FormatError):
        jsonio.rational_from_json("1/0")


def test_rational_serialization_round_trip():
    for text in ["5/2", "3", "-7/12", "0"]:
        assert str(jsonio.rational_from_json(text)) == text


def test_polygon_round_trip():
    poly = standard_trapezoid(HirzebruchParams(2, 1, 1))
    data = jsonio.polygon_to_json(poly)
    assert data == {"vertices": [["0", "0"], ["5/2", "0"], ["3/2", "1"], ["0", "1"]]}
    assert jsonio.polygon_from_json(json.loads(json.dumps(data))) == poly


def test_affine_round_trip():
    # the CLI prints affine maps and never reads them; the constructor does
    t = UnimodularAffine(((1, 1), (0, 1)), RatVec2(Fraction(1, 2), -3))
    data = json.loads(json.dumps(jsonio.affine_to_json(t)))
    assert data == {"linear": [[1, 1], [0, 1]], "translation": ["1/2", "-3"]}
    assert UnimodularAffine(data["linear"], data["translation"]) == t


def test_params_round_trip():
    p = HirzebruchParams(Fraction(5, 2), 1, 2)
    data = jsonio.params_to_json(p)
    assert data == {"a": "5/2", "b": "1", "m": 2}
    assert HirzebruchParams(data["a"], data["b"], data["m"]) == p


def test_manifold_round_trip():
    # the CLI reads manifolds and never prints them; a dict literal does
    m = SphereProduct(Fraction(5, 2), 1)
    data = {"type": "s2xs2", "a": str(m.a), "b": str(m.b)}
    assert data == {"type": "s2xs2", "a": "5/2", "b": "1"}
    assert jsonio.manifold_from_json(data) == m
    m = BlowUp(3, 2)
    data = {"type": "blowup_cp2", "l": str(m.l), "e": str(m.e)}
    assert data == {"type": "blowup_cp2", "l": "3", "e": "2"}
    assert jsonio.manifold_from_json(data) == m
    with pytest.raises(FormatError):
        jsonio.manifold_from_json({"type": "unknown"})


def test_graph_round_trip():
    for g in (
        circle_graph(standard_trapezoid(HirzebruchParams(2, 1, 2)), IntVec2(1, 0)),
        circle_graph(standard_trapezoid(HirzebruchParams(Fraction(7, 3), 1, 3)), IntVec2(-2, 1)),
        LabeledGraph((FatVertex(0, 1, 2), FatVertex(Fraction(-1, 2), Fraction(3, 4), 0))),
    ):
        data = json.loads(json.dumps(jsonio.graph_to_json(g)))
        assert jsonio.graph_from_json(data) == g


def test_decoded_graph_compares_moments_by_value_not_by_text():
    # each text is parsed once per graph, and "1/2" and "2/4" are one moment
    data = {"nodes": [{"type": "isolated", "moment": "1/2", "weights": [1, 1]},
                      {"type": "isolated", "moment": "2/4", "weights": [1, 2]},
                      {"type": "isolated", "moment": "3", "weights": [-1, -1]}]}
    with pytest.raises(GraphError, match="moment extrema must each be attained"):
        jsonio.graph_from_json(data)
    data["nodes"][1]["moment"] = "3/4"
    g = jsonio.graph_from_json(data)
    assert [n.moment for n in g.nodes] == [Fraction(1, 2), Fraction(3, 4), Fraction(3)]


def test_fixed_data_round_trip():
    # the CLI reads fixed-point data and never prints it; a dict literal does
    data = FixedPointData((SurfaceFixed(0, 0), IsolatedFixed(2), IsolatedFixed(4)))
    encoded = {"components": [
        {"type": "isolated", "index": c.index} if isinstance(c, IsolatedFixed)
        else {"type": "surface", "index": c.index, "genus": c.genus}
        for c in data.components
    ]}
    assert encoded["components"][0] == {"type": "surface", "index": 0, "genus": 0}
    assert jsonio.fixed_data_from_json(json.loads(json.dumps(encoded))) == data


def test_delzant_report_json():
    report = is_delzant(make_polygon([(0, 0), (2, 0), (0, 1)]))
    data = jsonio.delzant_report_to_json(report)
    assert data["is_delzant"] is False
    assert data["failures"] == [[1, 2]]
    assert data["normals"] == [[0, 1], [-1, -2], [1, 0]]


def test_graph_dot_is_deterministic_and_marks_surfaces():
    g = circle_graph(standard_trapezoid(HirzebruchParams(2, 1, 2)), IntVec2(1, 0))
    dot = jsonio.graph_to_dot(g)
    assert dot == jsonio.graph_to_dot(g)
    assert "shape=box" in dot
    assert 'label="Z_2"' in dot
    assert dot.startswith("graph labeled_graph {")


def test_betti_from_graph_json_path():
    g = circle_graph(standard_trapezoid(HirzebruchParams(2, 1, 2)), IntVec2(1, 0))
    restored = jsonio.graph_from_json(jsonio.graph_to_json(g))
    assert fixed_point_data(restored) == fixed_point_data(g)


def test_xi_parsing():
    assert jsonio.xi_from_text("0,1") == IntVec2(0, 1)
    assert jsonio.xi_from_text("-1,2") == IntVec2(-1, 2)
    with pytest.raises(FormatError):
        jsonio.xi_from_text("1")
    with pytest.raises(FormatError):
        jsonio.xi_from_text("1,x")


@pytest.mark.parametrize(
    "data",
    [
        {"nodes": 5},
        {"nodes": [{"type": "isolated", "moment": "0", "weights": [1, 1]}], "edges": 5},
        {"nodes": [], "edges": [{"k": 2, "endpoints": 5, "interval": ["0", "1"]}]},
        {"nodes": [], "edges": [{"k": 2, "endpoints": [0], "interval": ["0", "1"]}]},
        {"nodes": [], "edges": [{"k": 2, "endpoints": [0, 1], "interval": ["0"]}]},
        {"nodes": [], "edges": [{"k": 2, "endpoints": [0, 1], "interval": 7}]},
    ],
)
def test_malformed_graph_json_is_format_error(data):
    with pytest.raises(FormatError):
        jsonio.graph_from_json(data)


def _graph_payload(isolated=None, surface=None, edge=None) -> dict:
    """A valid payload of an isolated node, a surface node and one edge,
    with the given fields merged into each."""
    return {"nodes": [{"type": "isolated", "moment": "0", "weights": [1, 1], **(isolated or {})},
                      {"type": "surface", "moment": "1", "area": "2", "genus": 0,
                       **(surface or {})}],
            "edges": [{"k": 2, "endpoints": [0, 1], "interval": ["0", "1"], **(edge or {})}]}


@pytest.mark.parametrize(
    "payload,construct,decoded,constructed",
    [
        pytest.param(_graph_payload(edge={"k": "2", "endpoints": [0, 1, 1]}),
                     lambda: ZkEdge("2", (0, 1, 1), (0, 1)),
                     (FormatError, "'k' must be an integer"),
                     (GraphError, "isotropy order k must be an integer >= 2, got '2'"),
                     id="bad-k-and-three-endpoints"),
        pytest.param(_graph_payload(isolated={"weights": [0, 1]}), lambda: IsolatedPoint(0, (0, 1)),
                     (GraphError, "weights must be a pair of nonzero integers, got (0, 1)"),
                     None, id="zero-weight"),
        pytest.param(_graph_payload(edge={"interval": ["1", "1"]}),
                     lambda: ZkEdge(2, (0, 1), ("1", "1")),
                     (GraphError, "moment interval must be increasing, got (1, 1)"),
                     None, id="empty-interval"),
        pytest.param(_graph_payload(surface={"area": "0"}), lambda: FatVertex(1, "0"),
                     (GraphError, "fixed surface area must be positive, got 0"),
                     None, id="zero-area"),
        pytest.param(_graph_payload(surface={"genus": 1.5}), lambda: FatVertex(1, 2, 1.5),
                     (FormatError, "'genus' must be an integer"),
                     (GraphError, "genus must be a nonnegative integer, got 1.5"),
                     id="non-integer-genus"),
        pytest.param(_graph_payload(edge={"interval": ["1", "0"]}),
                     lambda: ZkEdge(2, (0, 1), (Fraction(1), Fraction(0))),
                     (GraphError, "moment interval must be increasing, got (1, 0)"),
                     None, id="decreasing-interval"),
    ],
)
def test_graph_decoding_errors_are_pinned(payload, construct, decoded, constructed):
    """The exact error class and message of each faulty value, through
    ``graph_from_json`` and through the constructor (``constructed`` None:
    the same error); the checks run in a fixed order, so a value with two
    faults reports the first."""
    for call, (cls, message) in ((lambda: jsonio.graph_from_json(payload), decoded),
                                 (construct, constructed or decoded)):
        with pytest.raises(DelzantError) as info:
            call()
        assert (info.type, str(info.value)) == (cls, message)


OPTIONAL_KEYS = {"edges", "genus"}  # decoded with a default when absent
# lists of any length have the right shape; an empty one is a value error
VARIABLE_LISTS = {"vertices", "nodes", "edges", "components"}


def _malformed(value, path="$", variable=False):
    """(description, payload) for each shape error one edit away from the
    valid ``value``: a value replaced by a JSON value of another kind, a
    required key deleted, a fixed-length list one entry longer or shorter."""
    for bad in (None, True, 1.5, "x", [], {}):
        if not (variable and bad == []):
            yield f"{path} = {json.dumps(bad)}", bad
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in OPTIONAL_KEYS:
                yield f"{path} without {key!r}", {k: v for k, v in value.items() if k != key}
            for desc, bad in _malformed(item, f"{path}.{key}", key in VARIABLE_LISTS):
                yield desc, {**value, key: bad}
    elif isinstance(value, list):
        if not variable:
            yield f"{path} longer", value + value[-1:]
            yield f"{path} shorter", value[:-1]
        for i, item in enumerate(value):
            for desc, bad in _malformed(item, f"{path}[{i}]"):
                yield desc, value[:i] + [bad] + value[i + 1:]


@pytest.mark.parametrize(
    "decode,payload",
    [
        pytest.param(jsonio.point_from_json, ["1/2", "3"], id="point"),
        pytest.param(jsonio.polygon_from_json,
                     {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}, id="polygon"),
        pytest.param(jsonio.manifold_from_json, {"type": "s2xs2", "a": "5/2", "b": "1"},
                     id="manifold-s2xs2"),
        pytest.param(jsonio.manifold_from_json, {"type": "blowup_cp2", "l": "3", "e": "2"},
                     id="manifold-blowup"),
        pytest.param(jsonio.graph_from_json,
                     {"nodes": [{"type": "isolated", "moment": "0", "weights": [1, 1]},
                                {"type": "surface", "moment": "1", "area": "2", "genus": 0}],
                      "edges": [{"k": 2, "endpoints": [0, 1], "interval": ["0", "1"]}]},
                     id="graph"),
        pytest.param(jsonio.fixed_data_from_json,
                     {"components": [{"type": "surface", "index": 0, "genus": 1},
                                     {"type": "isolated", "index": 2}]}, id="fixed-data"),
    ],
)
def test_malformed_payloads_are_format_errors(decode, payload):
    decode(payload)
    not_format_errors = []
    for desc, bad in _malformed(payload):
        try:
            decode(bad)
        except FormatError:
            continue
        except DelzantError as exc:
            not_format_errors.append(f"{desc}: {type(exc).__name__}")
        else:
            not_format_errors.append(f"{desc}: decoded")
    assert not_format_errors == []


def test_graph_dot_groups_levels_in_first_seen_order():
    g = LabeledGraph((
        IsolatedPoint(1, (-1, 1)),
        IsolatedPoint(0, (1, 1)),
        IsolatedPoint(1, (-1, 1)),
        IsolatedPoint(2, (-1, -1)),
    ))
    ranks = [line for line in jsonio.graph_to_dot(g).splitlines() if "rank=same" in line]
    assert ranks == [
        "  { rank=same; n0; n2; }",
        "  { rank=same; n1; }",
        "  { rank=same; n3; }",
    ]


BAD_RATIONALS = ["2.5", "1e3", " 5/2", "5/2 ", "1_0", "+1", "1/-2", "5/", "/2", "--1", "٣", "",
                 "1/0", "7" * 5000]


@pytest.mark.parametrize("text", BAD_RATIONALS)
def test_rational_grammar_is_strict(text):
    with pytest.raises(FormatError):
        jsonio.rational_from_json(text)
    with pytest.raises(FormatError):
        RatVec2(text, 0)


def test_rational_grammar_accepts_integers_and_fractions():
    assert jsonio.rational_from_json("-0") == 0
    assert jsonio.rational_from_json("007/014") == Fraction(1, 2)
    assert jsonio.rational_from_json("-12/8") == Fraction(-3, 2)


# unreduced texts with leading zeros, "-0", and parts of up to 4300 digits
numerals = st.one_of(
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 2), st.integers(0, 10**6)),
    st.integers(10**4299, 10**4300 - 1).map(str),
)
rational_texts = st.builds(
    lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
    st.sampled_from(("", "-")), numerals, st.none() | numerals.filter(lambda t: t.strip("0")),
)


@given(rational_texts, rational_texts)
@example("007/014", "-0")
@example("-12/8", "5/" + "7" * 4300)
def test_decoded_points_equal_constructed_points(a, b):
    """A point decoded from two texts is the point the constructor builds
    from them: equal, with the same hash and repr and the same canonical
    triple, and so are its copies, taken before and after x is read.  The
    triple is all that a point stores, from either builder or as the image
    of a map, before and after x and y are read."""
    decoded, built = jsonio.point_from_json([a, b]), RatVec2(a, b)
    image = UnimodularAffine(((1, 1), (0, 1)), (1, Fraction(-1, 3))).apply(decoded)
    x, y, d = decoded._xyd
    assert decoded._xyd == built._xyd and d > 0 and math.gcd(x, y, d) == 1
    assert all(vars(p) == {"_xyd": p._xyd} for p in (decoded, built, image))
    twins = [twin(p) for p in (jsonio.point_from_json([a, b]), built)
             for twin in (copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p)))]
    assert decoded == built and hash(decoded) == hash(built) and repr(decoded) == repr(built)
    assert (image.x, image.y) == (built.x + built.y + 1, built.y - Fraction(1, 3))
    assert all(vars(p) == {"_xyd": p._xyd} for p in (decoded, built, image))
    for twin in twins + [twin(decoded) for twin in (copy.copy, copy.deepcopy)]:
        assert type(twin) is RatVec2 and twin == built and twin._xyd == built._xyd
        assert hash(twin) == hash(built) and repr(twin) == repr(built)


@pytest.mark.parametrize("text", BAD_RATIONALS + [5, 2.5, None])
def test_decoding_a_bad_point_raises_the_rational_error(text):
    with pytest.raises(FormatError) as expected:
        jsonio.rational_from_json(text)
    for pair in ([text, "1"], ["1", text], [text, 7]):
        with pytest.raises(FormatError) as got:
            jsonio.point_from_json(pair)
        assert type(got.value) is type(expected.value) and str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "text",
    BAD_RATIONALS + ["0", "-0", "007/014", "-12/8", "-28325/7", "-3/0", "0/0", "7" * 4300,
                     "-" + "7" * 4300, "-" + "7" * 4301, "1/" + "7" * 4301, "7" * 4301 + "/0"],
)
def test_as_rational_agrees_with_fraction_parsing(text):
    """One match and one Fraction give the value and the error message
    that the grammar check followed by ``Fraction(text)`` gives."""
    if not re.fullmatch(r"-?\d+(/\d+)?", text, re.ASCII):
        expected = f"invalid rational {text!r}: expected 'p' or 'p/q'"
    else:
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            expected = f"invalid rational {text!r}: {exc}"
    try:
        got = as_rational(text)
    except FormatError as exc:
        got = str(exc)
    assert got == expected
