"""Routing predicate, session selection, and correlation binding."""

import random

import pytest
from hypothesis import given, strategies as st

from orchestra.correlation import (
    CorrelationConfig, CorrelationFunction, CorrelationIndex, Message, bind_correlation,
    correlates, select_session,
)
from orchestra.errors import ValidationError
from orchestra.harness import oracle_correlates, random_oracle_triple
from orchestra.state import EMPTY, State


def msg(op="put", **payload):
    return Message(op, State(payload))


def cfg(**functions):
    return CorrelationConfig({op: CorrelationFunction(m) for op, m in functions.items()})


ID_TO_SID = CorrelationFunction({"id": "sid"})


def test_correlates_bound_match():
    assert correlates(msg(id=7), ID_TO_SID, State({"sid": 7}))


def test_correlates_unbound_variable_matches():
    assert correlates(msg(id=7), ID_TO_SID, EMPTY)


def test_correlates_bound_mismatch():
    assert not correlates(msg(id=7), ID_TO_SID, State({"sid": 8}))


def test_correlates_variant_exact():
    assert not correlates(msg(id=7), ID_TO_SID, State({"sid": 7.0}))


def test_correlates_ignores_unmapped_fields():
    assert correlates(msg(id=7, junk=99), ID_TO_SID, State({"sid": 7, "junk": 1}))


def test_empty_message_always_correlates():
    for st in (EMPTY, State({"sid": 1}), State({"x": "y"})):
        assert correlates(msg(), ID_TO_SID, st)


def test_empty_function_always_correlates():
    empty = CorrelationFunction()
    assert correlates(msg(id=1, other=2), empty, State({"sid": 9}))


def test_injectivity_enforced():
    with pytest.raises(ValidationError):
        CorrelationFunction({"a": "sid", "b": "sid"})


def test_cset_is_union_of_codomains():
    c = cfg(open={"id": "sid"}, put={"id": "sid", "who": "user"})
    assert c.cset == frozenset({"sid", "user"})


def test_bind_binds_unbound_only():
    assert bind_correlation(msg(id=7), ID_TO_SID, EMPTY) == State({"sid": 7})
    assert bind_correlation(msg(id=7), ID_TO_SID, State({"sid": 7})) == State({"sid": 7})


def test_bind_ignores_uncorrelated_fields():
    assert bind_correlation(msg(id=7, other=1), ID_TO_SID, EMPTY) == State({"sid": 7})


def test_select_single_match():
    candidates = [(1, State({"sid": 7})), (2, State({"sid": 8}))]
    assert select_session(msg("put", id=7), candidates, cfg(put={"id": "sid"}), seed=3) == 1


def test_select_no_candidates():
    assert select_session(msg(), [], cfg(), seed=0) is None


def test_select_tie_is_seed_stable():
    candidates = [(1, EMPTY), (2, EMPTY)]
    config = cfg(put={"id": "sid"})
    first = select_session(msg("put", id=7), candidates, config, seed=42)
    for _ in range(10):
        assert select_session(msg("put", id=7), candidates, config, seed=42) == first
    picks = {select_session(msg("put", id=7), candidates, config, seed=s) for s in range(64)}
    assert picks == {1, 2}


def test_oracle_agreement_random_triples():
    rng = random.Random(20240817)
    for _ in range(10_000):
        payload, cfun_map, session_map = random_oracle_triple(rng)
        got = correlates(Message("op", State(payload)), CorrelationFunction(cfun_map),
                         State(session_map))
        want = oracle_correlates(payload, cfun_map, session_map)
        assert got == want, (payload, cfun_map, session_map)


def test_routing_stability_after_bind():
    config = cfg(open={"id": "sid"}, put={"id": "sid"})
    s1 = bind_correlation(msg("open", id=1), config.function_for("open"), EMPTY)
    s2 = bind_correlation(msg("open", id=2), config.function_for("open"), EMPTY)
    candidates = [(1, s1), (2, s2)]
    for seed in range(50):
        assert select_session(msg("put", id=1), candidates, config, seed) == 1
        assert select_session(msg("put", id=2), candidates, config, seed) == 2


def test_equal_projections_not_distinguishable():
    config = cfg(put={"id": "sid"})
    rng = random.Random(99)
    s1 = State({"sid": 5, "noise": 1})
    s2 = State({"sid": 5, "other": "x"})
    assert s1.project(config.cset) == s2.project(config.cset)
    for _ in range(10):
        probe = msg("put", id=rng.choice([1, 2, 5]))
        f = config.function_for("put")
        assert correlates(probe, f, s1) == correlates(probe, f, s2)


def test_monotonicity_removing_fields_never_breaks_match():
    rng = random.Random(4)
    for _ in range(2000):
        payload, cfun_map, session_map = random_oracle_triple(rng)
        f = CorrelationFunction(cfun_map)
        st = State(session_map)
        if correlates(Message("op", State(payload)), f, st):
            for drop in list(payload):
                smaller = {k: v for k, v in payload.items() if k != drop}
                assert correlates(Message("op", State(smaller)), f, st)


# Values that one exact-variant comparison must keep apart (1, 1.0, True)
# or bring together (0.0 and -0.0).
_VALUES = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, "1", "a", ""])
_VARS = ("a", "b")
_INDEXED = cfg(both={"x": "a", "y": "b"}, one={"x": "a"})
_FIELDS = st.dictionaries(st.sampled_from(["x", "y", "w"]), _VALUES)
_STEP = st.one_of(
    st.tuples(st.just("open"), st.dictionaries(st.sampled_from(_VARS), _VALUES)),
    st.tuples(st.just("route"), st.sampled_from(["both", "one", "plain"]), _FIELDS,
              st.integers(0, 2**32 - 1)),
    st.tuples(st.just("assign"), st.integers(0, 50), st.sampled_from(_VARS), _VALUES),
    st.tuples(st.just("finish"), st.integers(0, 50)),
)


@given(st.lists(_STEP, max_size=40))
def test_index_candidates_cover_every_match(steps):
    """Against a full table: every matching session is a candidate, and the
    pick over the candidates is the pick over the table."""
    table: dict[int, State] = {}
    index = CorrelationIndex(_INDEXED.cset)
    next_sid = 0
    for step in steps:
        if step[0] == "open":
            next_sid += 1
            table[next_sid] = State(step[1])
            index.add(next_sid, table[next_sid])
        elif step[0] in ("assign", "finish") and table:
            sid = sorted(table)[step[1] % len(table)]
            if step[0] == "finish":
                index.remove(sid, table.pop(sid))
            else:
                _, _, var, value = step
                old = table[sid]
                table[sid] = old.update(var, value)
                index.rebind(sid, var, old.lookup(var), value)
        elif step[0] == "route":
            _, op, fields, seed = step
            m = msg(op, **fields)
            cfun = _INDEXED.function_for(op)
            full = list(table.items())
            sids = index.candidates(m, cfun)
            candidates = full if sids is None else [(sid, table[sid]) for sid in sids]
            matched = {sid for sid, s in full if correlates(m, cfun, s)}
            assert matched <= {sid for sid, _ in candidates}
            target = select_session(m, candidates, _INDEXED, seed)
            assert target == select_session(m, full, _INDEXED, seed)
            if target is not None:
                old = table[target]
                table[target] = bind_correlation(m, cfun, old)
                index.update(target, old, table[target])
