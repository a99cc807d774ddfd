"""Property tests for the expression grammar and for scenario data: any
input ends as a value or as a ValueError (an ArithmeticError, too, when an
expression is evaluated), never as another exception type."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc.scenarios import Scenario
from jetcalc.taylor import eval_expr, parse_expr

TOKENS = ["(", ")", "+", "-", "*", "/", "^", "exp", "sin", "cos", "x0", "x1",
          "x2", "x3", "0", "1", "-2", "2.5", "1e308", "inf", "nan", "frob"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=30))
def test_token_strings_parse_or_raise_value_error(tokens):
    try:
        parse_expr(" ".join(tokens))
    except ValueError:
        pass


def _text(tree):
    if isinstance(tree, float):
        return repr(tree)
    if tree[0] == "x":
        return f"x{tree[1] + 1}"
    return "(" + " ".join([tree[0]] + [_text(c) for c in tree[1:]]) + ")"


LEAVES = st.floats() | st.integers(0, 3).map(lambda i: ("x", i))


def _nodes(children):
    return (st.tuples(st.sampled_from(["exp", "sin", "cos"]), children)
            | st.tuples(st.sampled_from(["+", "-", "*", "/"]),
                        *[children] * 2)
            | st.lists(children, min_size=1, max_size=3).flatmap(
                lambda args: st.sampled_from(["+", "-", "*", "/"]).map(
                    lambda op: (op, *args)))
            | st.tuples(st.just("^"), children,
                        st.integers(-400, 400).map(float)))


TREES = st.recursive(LEAVES, _nodes, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(TREES, st.lists(st.floats(-10, 10), min_size=2, max_size=2))
def test_parsed_trees_evaluate_or_raise(tree, point):
    parsed = parse_expr(_text(tree))
    try:
        eval_expr(parsed, point)
    except (ArithmeticError, ValueError):
        pass


def test_deep_nesting_is_a_value_error():
    depth = 5000
    with pytest.raises(ValueError):
        parse_expr("(exp " * depth + "1" + ")" * depth)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=8)
EXPRS = st.sampled_from(["1", "0", "-0.5", "(+ 1 x1)", "(* x1 x2)",
                         "(/ 1 x1)", "(sin x2)", "(^ x1 -1)", "(+)", "x0",
                         "x3", "(exp 800)", "(frob x1)", "(+ 1"])
ENTRY = EXPRS | st.integers() | st.floats() | JSON


def _array(shape):
    """Nested lists of `shape` (mostly expressions), or any JSON value."""
    node = ENTRY
    for dim in reversed(shape):
        node = st.lists(node, min_size=dim, max_size=dim)
    return node | JSON


def _points(dim):
    number = st.floats(-2, 2) | st.floats() | st.integers()
    return st.lists(st.lists(number, min_size=dim, max_size=dim),
                    max_size=2) | JSON


#: a valid scenario with n = 2, k = 1; the properties replace any subset of
#: its fields by near-valid or arbitrary JSON values
BASE = {"name": "s", "n": 2, "k": 1, "metric": [["1", "0"], ["0", "1"]],
        "fibre_metric": [["1"]], "connection": None,
        "base_points": [[0.1, 0.2]], "fibre_points": [[0.5]], "seed": 3}
FIELDS = {
    "name": st.text(max_size=4) | JSON,
    "n": st.integers(-1, 3) | JSON,
    "k": st.integers(-1, 3) | JSON,
    "metric": _array((2, 2)),
    "fibre_metric": _array((1, 1)),
    "connection": st.none() | _array((1, 2, 1)),
    "base_points": _points(2),
    "fibre_points": _points(1),
    "seed": st.integers() | JSON,
    "alt": st.none() | JSON | st.fixed_dictionaries(
        {"metric": _array((2, 2)), "fibre_metric": _array((1, 1))},
        optional={"connection": _array((1, 2, 1))}),
    "map": st.none() | JSON | st.fixed_dictionaries(
        {"target_n": st.integers(-1, 2) | JSON, "exprs": _array((1,)),
         "target_metric": _array((1, 1))}),
}
SCENARIO = st.fixed_dictionaries({}, optional=FIELDS).map(
    lambda fields: {**BASE, **fields})


@settings(max_examples=500, deadline=None)
@given(SCENARIO)
def test_json_shaped_scenarios_build_or_raise_value_error(data):
    try:
        Scenario(**data)
    except ValueError:
        pass
