"""Behaviour document parsing and structural validation."""

import pytest

from orchestra.behaviour import (
    Assign, BehaviourDef, Nil, Sequence,
    parse_activity, parse_behaviour, validate_behaviour,
)
from orchestra.errors import ParseError, ValidationError


def test_parse_seq_assign():
    b = parse_behaviour({"seq": [{"assign": ["a", "1"]}]})
    assert isinstance(b.root, Sequence)
    assert isinstance(b.root.children[0], Assign)
    assert b.firing and not b.initiators


def test_parse_full_document_form():
    b = parse_behaviour({
        "root": {"seq": [{"receive": {"op": "open", "into": "m"}}]},
        "firing": False,
        "initiators": ["open"],
    })
    assert not b.firing
    assert b.initiators == frozenset({"open"})


def test_every_node_spelling_parses():
    doc = {"scope": {
        "name": "s",
        "body": {"seq": [
            "nil",
            {"assign": ["x", "1"]},
            {"par": [{"assign": ["y", "2"]}, "nil"]},
            {"if": {"cond": "x == 1", "then": {"throw": "F"}, "else": "nil"}},
            {"while": {"cond": "false", "body": "nil"}},
            {"receive": {"op": "ask", "into": "m"}},
            {"reply": {"op": "ask", "from": {"r": "x + 1"}}},
            {"notify": {"port": "out", "op": "tell", "payload": {"v": "x"}}},
            {"solicit": {"port": "out", "op": "fetch", "payload": {}, "into": "got"}},
            {"compensate": "inner"},
        ]},
        "faults": {"F": "nil"},
        "onTerminate": "nil",
        "onCompensate": "nil",
    }}
    parse_activity(doc)


def test_reply_without_receive_rejected():
    with pytest.raises(ValidationError):
        parse_behaviour({"seq": [{"reply": {"op": "ask", "from": {}}}]})


def test_not_firing_without_initiators_rejected():
    with pytest.raises(ValidationError):
        parse_behaviour({"root": "nil", "firing": False, "initiators": []})


def test_nested_scope_name_reuse_rejected():
    doc = {"scope": {"name": "s", "body": {"scope": {"name": "s", "body": "nil"}}}}
    with pytest.raises(ValidationError):
        parse_behaviour(doc)


def test_sibling_scopes_may_share_a_name():
    doc = {"seq": [
        {"scope": {"name": "s", "body": "nil"}},
        {"scope": {"name": "s", "body": "nil"}},
    ]}
    parse_behaviour(doc)


def test_double_receive_before_reply_rejected_when_flat():
    doc = {"seq": [
        {"receive": {"op": "ask", "into": "a"}},
        {"receive": {"op": "ask", "into": "b"}},
        {"reply": {"op": "ask", "from": {}}},
    ]}
    with pytest.raises(ValidationError):
        parse_behaviour(doc)


def test_receive_reply_receive_is_fine():
    doc = {"root": {"seq": [
        {"receive": {"op": "ask", "into": "a"}},
        {"reply": {"op": "ask", "from": {}}},
        {"receive": {"op": "ask", "into": "b"}},
        {"reply": {"op": "ask", "from": {}}},
    ]}, "firing": False, "initiators": ["ask"]}
    parse_behaviour(doc)


@pytest.mark.parametrize("bad", [
    {"seq": "nope"},
    {"assign": ["a"]},
    {"assign": ["9bad", "1"]},
    {"assign": ["a", 1]},
    {"if": {"then": "nil"}},
    {"throw": ""},
    {"throw": "\ud800"},
    {"receive": {"op": "x", "into": "a.b"}},
    {"notify": {"port": "p", "op": "\ud800", "payload": {}}},
    {"mystery": []},
    "nope",
    {"seq": [], "par": []},
])
def test_malformed_nodes_rejected(bad):
    with pytest.raises(ParseError):
        parse_activity(bad)


def test_bad_expression_rejected_at_parse_time():
    with pytest.raises(ParseError):
        parse_activity({"assign": ["a", "1 +"]})


def test_validate_is_idempotent():
    b = BehaviourDef(Nil(), frozenset(), True)
    assert validate_behaviour(b) is b
