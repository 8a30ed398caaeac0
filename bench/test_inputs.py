"""The benchmark's own checks: inputs are a pure function of the seed.

    python3 -m pytest -q bench/test_inputs.py     (or: python3 bench/test_inputs.py)
"""

import itertools
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as w  # noqa: E402


def _streams(seed: int, n: int = 500) -> dict:
    """The first ``n`` inputs of every client of every workload."""
    out = {}
    for client in range(w.CLIENTS):
        def rng(name):
            return w.client_rng(seed, name, client)
        slots = list(range(client, w.WebSessions.live_sessions, w.CLIENTS))
        out[("calc_rr", client)] = list(itertools.islice(w.calc_inputs(rng("calc_rr")), n))
        out[("gateway_relay", client)] = list(
            itertools.islice(w.gateway_inputs(rng("gateway_relay")), n))
        out[("web_sessions", client)] = list(
            itertools.islice(w.web_inputs(rng("web_sessions"), slots), n))
    out[("storage_tier", 0)] = list(itertools.islice(
        w.storage_inputs(w.client_rng(seed, "storage_tier", 0), w.StorageTier.keys), n))
    return out


def _exact(stream):
    """Inputs with every value tagged by its type, so 1 and 1.0 differ."""
    return [tuple((type(x).__name__, x) for x in item) if isinstance(item, tuple) else item
            for item in stream]


def test_same_seed_same_inputs():
    first, second = _streams(7), _streams(7)
    assert first.keys() == second.keys()
    for key in first:
        assert _exact(first[key]) == _exact(second[key]), key


def test_other_seed_other_inputs():
    first, other = _streams(7), _streams(8)
    for key in first:
        assert first[key] != other[key], key


def test_clients_get_distinct_streams():
    streams = _streams(3)
    assert streams[("calc_rr", 0)] != streams[("calc_rr", 1)]


def test_web_inputs_reopen_after_every_last_post():
    stream = list(itertools.islice(w.web_inputs(random.Random(1), [0, 2, 4]), 2000))
    for i, step in enumerate(stream):
        if step[0] == "post" and step[2]:
            assert stream[i + 1] == ("open", step[1])
        if step[0] == "open":
            assert stream[i - 1] == ("post", step[1], True)


def test_calc_reference_truncates_toward_zero():
    assert w.calc_expected("div", -7, 2) == -3
    assert w.calc_expected("div", 7, -2) == -3
    assert w.calc_expected("div", -7, -2) == 3
    assert w.calc_expected("sub", 3, 5) == -2


def test_expected_record_keeps_variants_and_bits():
    model = {"a": 1, "b": 1.0, "c": 0.1, "d": -0.0, "e": True, "f": "é中"}
    back = w._decode_expected(w._encode_expected(model))
    assert all(w.same_value(back[k], v) for k, v in model.items())
    assert not w.same_value(1, 1.0) and not w.same_value(0.0, -0.0)


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
    print("ok")
