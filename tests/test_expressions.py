"""Expression grammar and strict evaluation semantics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from orchestra import expressions as E
from orchestra.errors import Fault, ParseError
from orchestra.state import EMPTY, INT64_MAX, INT64_MIN, UNDEFINED, State, is_text


def ev(text, bindings=None):
    return E.evaluate(text, State(bindings or {}))


def test_arithmetic_and_variables():
    assert ev("a + 1", {"a": 2}) == 3
    assert ev("2 * 3 + 4") == 10
    assert ev("2 + 3 * 4") == 14
    assert ev("(2 + 3) * 4") == 20
    assert ev("-a", {"a": 5}) == -5


a, b, c = E.Var("a"), E.Var("b"), E.Var("c")


@pytest.mark.parametrize("text, tree", [
    # one case per boundary between adjacent levels of the precedence table
    ("a or b and c", E.Binary("or", a, E.Binary("and", b, c))),
    ("not a and b", E.Binary("and", E.Unary("not", a), b)),
    ("not a == b", E.Unary("not", E.Binary("==", a, b))),
    ("a + b < c", E.Binary("<", E.Binary("+", a, b), c)),
    ("a + b * c", E.Binary("+", a, E.Binary("*", b, c))),
    ("-a * b", E.Binary("*", E.Unary("-", a), b)),
    ("-(a + b)", E.Unary("-", E.Binary("+", a, b))),
    # left association and repeated prefixes
    ("a - b - c", E.Binary("-", E.Binary("-", a, b), c)),
    ("- - a", E.Unary("-", E.Unary("-", a))),
    ("not not a", E.Unary("not", E.Unary("not", a))),
])
def test_precedence_table(text, tree):
    assert E.parse(text) == tree


def test_left_association_and_repeated_prefixes_evaluate():
    assert ev("7 - 2 - 1 == 4") is True
    assert ev("8 / 2 / 2 == 2") is True
    assert ev("- - 1") == 1
    assert ev("not not true") is True


def test_comparisons_and_booleans():
    assert ev("a == 1", {"a": 1}) is True
    assert ev("a != 1", {"a": 1}) is False
    assert ev("1 < 2 and 2 <= 2") is True
    assert ev("not false or false") is True
    assert ev("not (true and false)") is True


def test_string_concat_and_compare():
    assert ev("'ab' + 'cd'") == "abcd"
    assert ev("x + '!'", {"x": "hey"}) == "hey!"
    assert ev("'a' < 'b'") is True
    assert ev('"dq" == \'dq\'') is True


def test_doubles_stay_doubles():
    assert ev("1.5 + 2.5") == 4.0
    assert type(ev("1.0")) is float
    assert ev("1 == 1.0") is False
    assert ev("1 != 1.0") is True


def test_integer_division_truncates_toward_zero():
    assert ev("7 / 2") == 3
    assert ev("-7 / 2") == -3
    assert ev("7 / -2") == -3
    assert ev("-7 / -2") == 3


def test_division_by_zero_fault():
    with pytest.raises(Fault) as e:
        ev("1 / 0")
    assert e.value.name == "DivisionByZero"
    with pytest.raises(Fault) as e:
        ev("1.0 / 0.0")
    assert e.value.name == "DivisionByZero"


def test_undefined_variable_fault():
    with pytest.raises(Fault) as e:
        ev("missing + 1")
    assert e.value.name == "UndefinedVariable"


@pytest.mark.parametrize("expr", [
    "1 + 1.0", "'a' + 1", "true + true", "1 < 1.0", "true < false",
    "1 and true", "not 1", "-'x'", "'a' - 'b'",
])
def test_variant_mismatch_faults(expr):
    with pytest.raises(Fault) as e:
        ev(expr)
    assert e.value.name == "TypeFault"


def test_eval_is_strict():
    # both operands evaluate even when the left one decides the outcome
    with pytest.raises(Fault) as e:
        ev("false and (1 / 0 == 0)")
    assert e.value.name == "DivisionByZero"


def test_int64_overflow_is_a_fault():
    big = str(2**63 - 1)
    with pytest.raises(Fault) as e:
        ev(f"{big} + 1")
    assert e.value.name == "TypeFault"


@pytest.mark.parametrize("expr", ["1e308 * 10.0", "0.0 - 1e308 - 1e308", "1e308 / 1e-10"])
def test_a_double_result_that_is_not_finite_is_a_fault(expr):
    with pytest.raises(Fault) as e:
        ev(expr)
    assert e.value.name == "TypeFault"


@pytest.mark.parametrize("bad", ["1e400", "x + 1e400", "'\ud800'", "'a' + \"\udfff\""])
def test_literals_must_be_values(bad):
    with pytest.raises(ParseError):
        E.parse(bad)


def test_string_escapes():
    assert ev(r"'a\'b'") == "a'b"
    assert ev(r"'line\n'") == "line\n"


@pytest.mark.parametrize("bad", [
    "1 +", "(1", "1 < 2 < 3", "and 1", "2 $ 2", "'unterminated", "true true",
    "(" * 500 + "1" + ")" * 500,
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        E.parse(bad)


def test_condition_must_be_boolean():
    with pytest.raises(Fault) as e:
        E.evaluate_bool(E.parse("1 + 1"), EMPTY)
    assert e.value.name == "TypeFault"


# A reference evaluator: the tree walk the compiled closures replaced, kept
# here as the oracle they must agree with.

def _ref_int64(n):
    if not (INT64_MIN <= n <= INT64_MAX):
        raise Fault("TypeFault", "integer overflow past 64 bits")
    return n


def _ref_double(x):
    if not math.isfinite(x):
        raise Fault("TypeFault", "double result is not finite")
    return x


def _ref_numeric_pair(op, a, b):
    if type(a) is int and type(b) is int:
        return "int"
    if type(a) is float and type(b) is float:
        return "double"
    raise Fault("TypeFault", f"{op} needs two ints or two doubles, got {a!r} and {b!r}")


def _ref_binary(op, a, b):
    if op == "==":
        return type(a) is type(b) and a == b
    if op == "!=":
        return not (type(a) is type(b) and a == b)
    if op in ("and", "or"):
        if type(a) is not bool or type(b) is not bool:
            raise Fault("TypeFault", f"{op} needs two booleans, got {a!r} and {b!r}")
        return (a and b) if op == "and" else (a or b)
    if op == "+":
        if type(a) is str and type(b) is str:
            return a + b
        kind = _ref_numeric_pair(op, a, b)
        return _ref_int64(a + b) if kind == "int" else _ref_double(a + b)
    if op in ("-", "*"):
        kind = _ref_numeric_pair(op, a, b)
        r = a - b if op == "-" else a * b
        return _ref_int64(r) if kind == "int" else _ref_double(r)
    if op == "/":
        kind = _ref_numeric_pair(op, a, b)
        if b == 0:
            raise Fault("DivisionByZero")
        if kind == "int":
            q = a // b
            if q < 0 and q * b != a:
                q += 1
            return _ref_int64(q)
        return _ref_double(a / b)
    if type(a) is not type(b) or type(a) is bool:
        raise Fault("TypeFault", f"{op} needs two ints, doubles, or strings, got {a!r} and {b!r}")
    return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]


def reference_evaluate(expr, s):
    if isinstance(expr, E.Lit):
        return expr.value
    if isinstance(expr, E.Var):
        v = s.lookup(expr.name)
        if v is UNDEFINED:
            raise Fault("UndefinedVariable", expr.name)
        return v
    if isinstance(expr, E.Unary):
        v = reference_evaluate(expr.operand, s)
        if expr.op == "not":
            if type(v) is not bool:
                raise Fault("TypeFault", f"not needs a boolean, got {v!r}")
            return not v
        if type(v) is int:
            return _ref_int64(-v)
        if type(v) is float:
            return -v
        raise Fault("TypeFault", f"unary - needs a number, got {v!r}")
    return _ref_binary(expr.op, reference_evaluate(expr.left, s),
                       reference_evaluate(expr.right, s))


def _outcome(run):
    """A value with its variant (repr keeps -0.0 apart from 0.0), or a fault
    with its name and detail."""
    try:
        v = run()
    except Fault as f:
        return "fault", f.name, f.detail
    return "value", type(v), repr(v)


_NAMES = ("a", "b", "c", "d")
# a small pool, so that operands often meet at the edges: equal values of
# different variants, 64-bit limits, negative quotients, zero divisors
_EDGES = [0, 1, -1, 2, -3, INT64_MAX, INT64_MIN, 0.0, -0.0, 1.0, -1.5, 1e308,
          "", "a", "b", True, False]
_UNARY_OPS = ["not", "-"]
_BINARY_OPS = ["or", "and", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"]
_edges = st.sampled_from(_EDGES)
_values = st.one_of(
    _edges, _edges, _edges,
    st.integers(INT64_MIN, INT64_MAX),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3).filter(is_text),
)
_trees = st.recursive(
    st.one_of(st.builds(E.Lit, _values), st.builds(E.Var, st.sampled_from(_NAMES))),
    lambda sub: st.one_of(
        st.builds(E.Unary, st.sampled_from(_UNARY_OPS), sub),
        st.builds(E.Binary, st.sampled_from(_BINARY_OPS), sub, sub),
    ),
    max_leaves=6,
)
# some names stay unbound, so reads of unbound variables are generated too
_states = st.dictionaries(st.sampled_from(_NAMES[:3]), _values).map(State)


@settings(max_examples=1000, deadline=None)
@given(_trees, _states)
def test_compiled_expressions_agree_with_the_tree_walk(expr, s):
    assert _outcome(lambda: E.evaluate(expr, s)) == _outcome(lambda: reference_evaluate(expr, s))


def test_every_operator_agrees_with_the_tree_walk_on_every_pair_of_edge_values():
    cases = [E.Unary(op, E.Lit(x)) for op in _UNARY_OPS for x in _EDGES]
    cases += [E.Binary(op, E.Lit(x), E.Lit(y))
              for op in _BINARY_OPS for x in _EDGES for y in _EDGES]
    for expr in cases:
        assert (_outcome(lambda: E.evaluate(expr, EMPTY))
                == _outcome(lambda: reference_evaluate(expr, EMPTY))), expr
