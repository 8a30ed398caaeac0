"""Expression grammar and strict evaluation semantics."""

import pytest

from orchestra import expressions as E
from orchestra.errors import Fault, ParseError
from orchestra.state import EMPTY, State


def ev(text, bindings=None):
    return E.evaluate(text, State(bindings or {}))


def test_arithmetic_and_variables():
    assert ev("a + 1", {"a": 2}) == 3
    assert ev("2 * 3 + 4") == 10
    assert ev("2 + 3 * 4") == 14
    assert ev("(2 + 3) * 4") == 20
    assert ev("-a", {"a": 5}) == -5


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
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        E.parse(bad)


def test_condition_must_be_boolean():
    with pytest.raises(Fault) as e:
        E.evaluate_bool(E.parse("1 + 1"), EMPTY)
    assert e.value.name == "TypeFault"
