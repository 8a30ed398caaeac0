"""State algebra: composition, equality, lookup, update, JSON form."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from orchestra import state
from orchestra.errors import ValidationError
from orchestra.state import EMPTY, State, UNDEFINED, compose, equals, lookup, update


def test_compose_disjoint_domains():
    assert compose(State({"a": 1}), State({"b": 2})) == State({"a": 1, "b": 2})


def test_compose_empty_left_identity():
    assert compose(EMPTY, State({"a": 1})) == State({"a": 1})


def test_compose_left_bias():
    assert compose(State({"a": 1}), State({"a": 9, "b": 2})) == State({"a": 1, "b": 2})


def test_equals_order_free():
    assert equals(State({"a": 1, "b": "x"}), State({"b": "x", "a": 1}))


def test_equals_requires_same_domain():
    assert not equals(State({"a": 1}), State({"a": 1, "b": 2}))


def test_equals_value_mismatch():
    assert not equals(State({"a": 1}), State({"a": 2}))


def test_equals_cross_variant_false():
    assert not equals(State({"a": 1}), State({"a": 1.0}))
    assert not equals(State({"a": 1}), State({"a": True}))
    assert not equals(State({"a": 0.0}), State({"a": False}))


def test_lookup():
    assert lookup(State({"a": 1}), "a") == 1
    assert lookup(State({"a": 1}), "b") is UNDEFINED
    assert lookup(EMPTY, "a") is UNDEFINED


def test_update():
    assert update(EMPTY, "a", 1) == State({"a": 1})
    assert update(State({"a": 1}), "a", 2) == State({"a": 2})
    assert update(State({"b": 2}), "a", 1) == State({"a": 1, "b": 2})


def test_update_is_persistent():
    base = State({"a": 1})
    assert update(base, "a", 2) is not base
    assert base.lookup("a") == 1


def test_var_name_grammar():
    with pytest.raises(ValidationError):
        State({"9a": 1})
    with pytest.raises(ValidationError):
        State({"": 1})
    with pytest.raises(ValidationError):
        EMPTY.update("a.b", 1)


# The documented rule, written out independently of the code under test.
_NAME_RULE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Letters and digits ``str.isidentifier`` accepts that the rule does not.
_IDENTIFIER_NOT_NAME = ["é", "ℌ", "ª", "a١", "_é", "xℌ", "ªb", "v1é"]


@given(st.one_of(st.text(max_size=6), st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True),
                 st.sampled_from(_IDENTIFIER_NOT_NAME + ["١", "a\n", "\na", "if", "_", "a b"])))
def test_var_names_follow_the_documented_rule(name):
    ok = _NAME_RULE.fullmatch(name) is not None
    assert state.is_valid_var_name(name) is ok
    if ok:
        assert state.check_var_name(name) == name
        assert State({name: 1}).lookup(name) == 1
        assert EMPTY.update(name, 1).lookup(name) == 1
        return
    for make in (state.check_var_name, lambda n: State({n: 1}), lambda n: EMPTY.update(n, 1)):
        with pytest.raises(ValidationError):
            make(name)


@pytest.mark.parametrize("name", _IDENTIFIER_NOT_NAME)
def test_an_identifier_that_breaks_the_rule_is_no_name(name):
    assert name.isidentifier()
    with pytest.raises(ValidationError):
        State({name: 1})


def test_int64_bounds():
    State({"a": 2**63 - 1})
    State({"a": -(2**63)})
    with pytest.raises(ValidationError):
        State({"a": 2**63})


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), "\ud800", "a\udfffb"])
def test_values_are_what_a_frame_can_carry(bad):
    with pytest.raises(ValidationError):
        State({"a": bad})
    with pytest.raises(ValidationError):
        EMPTY.update("a", bad)
    State({"a": 1e308, "b": "\U0001f600 \u00e9"})


_values = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=8),
)
_states = st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), _values, max_size=4).map(State)


@given(_states, _states, _states)
def test_compose_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(_states)
def test_compose_idempotent_left(a):
    assert compose(a, a) == a


@given(_states, _states)
def test_lookup_through_compose(a, b):
    joined = compose(a, b)
    for name in ("a", "b", "c", "d"):
        if name in a:
            assert joined.lookup(name) == a.lookup(name)
        elif name in b:
            assert joined.lookup(name) == b.lookup(name)
        else:
            assert joined.lookup(name) is UNDEFINED


@given(_states, st.sampled_from(["a", "b", "z"]), _values)
def test_update_lookup_roundtrip(s, name, v):
    got = update(s, name, v).lookup(name)
    assert type(got) is type(v) and got == v


def test_equals_is_equivalence_relation():
    rng = random.Random(7)
    pool = [
        State({"a": rng.choice([1, 2]), "b": rng.choice(["x", "y"])})
        if rng.random() < 0.7 else State({"a": rng.choice([1, 2])})
        for _ in range(60)
    ]
    for s in pool:
        assert equals(s, s)
    for x in pool:
        for y in pool:
            assert equals(x, y) == equals(y, x)
            for z in pool:
                if equals(x, y) and equals(y, z):
                    assert equals(x, z)


def test_json_roundtrip_keeps_variants():
    s = State({"i": 1, "d": 1.0, "t": "1", "b": True, "f": False, "neg": -2.5})
    back = state.decode(state.encode(s))
    assert back == s
    assert type(back.lookup("i")) is int
    assert type(back.lookup("d")) is float


def test_json_encoding_doubles_carry_fraction():
    text = state.encode(State({"d": 1.0, "i": 1}))
    assert '"d":1.0' in text
    assert '"i":1' in text and '"i":1.0' not in text


def test_json_encoding_canonical_key_order():
    assert state.encode(State({"b": 1, "a": 2})) == '{"a":2,"b":1}'
