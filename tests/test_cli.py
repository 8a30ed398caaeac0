"""The command line: check, run, call, and demo plumbing."""

import json

from orchestra import cli
from orchestra.composition import load_container
from orchestra.demos import calculator_def, free_port


FIRING_CONFIG = {
    "services": [{
        "name": "starter",
        "interface": {},
        "behaviour": {"seq": [{"assign": ["a", "1"]}, {"assign": ["b", "a + 1"]}]},
        "engine": {"mode": "concurrent", "firing": True, "initiators": []},
    }]
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def test_check_valid_config(tmp_path, capsys):
    path = write_config(tmp_path, FIRING_CONFIG)
    assert cli.main(["check", path]) == 0
    assert "ok: 1 service(s)" in capsys.readouterr().out


def test_check_invalid_behaviour(tmp_path, capsys):
    config = {
        "services": [{
            "name": "bad",
            "interface": {"ask": {"kind": "RequestResponse", "request": {},
                                  "response": {}}},
            "behaviour": {"reply": {"op": "ask", "from": {}}},
            "engine": {"mode": "concurrent", "firing": True, "initiators": []},
        }]
    }
    path = write_config(tmp_path, config)
    assert cli.main(["check", path]) == 1
    assert "ValidationError" in capsys.readouterr().err


def test_check_reports_a_malformed_document_as_one_json_line(tmp_path, capsys):
    service = {**FIRING_CONFIG["services"][0], "behaviour": {"if": ["cond"]}}
    path = write_config(tmp_path, {"services": [service]})
    assert cli.main(["check", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "ParseError"


def test_check_missing_file():
    assert cli.main(["check", "/nonexistent/nope.json"]) == 2


def test_check_reports_no_firing_warning(tmp_path, capsys):
    path = write_config(tmp_path, {"services": [calculator_def("local://c", "c")]})
    assert cli.main(["check", path]) == 0
    assert "NoFiringSession" in capsys.readouterr().out


def test_run_firing_config_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path, FIRING_CONFIG)
    assert cli.main(["run", path, "--seed", "3", "--timeout", "5"]) == 0
    assert "success" in capsys.readouterr().out


def _log_without_timestamps(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("ts", None)
            out.append(json.dumps(record, sort_keys=True))
    return out


def test_run_same_seed_same_event_log(tmp_path):
    path = write_config(tmp_path, FIRING_CONFIG)
    log1, log2 = str(tmp_path / "one.log"), str(tmp_path / "two.log")
    assert cli.main(["run", path, "--seed", "9", "--log", log1, "--timeout", "5"]) == 0
    assert cli.main(["run", path, "--seed", "9", "--log", log2, "--timeout", "5"]) == 0
    assert _log_without_timestamps(log1) == _log_without_timestamps(log2)


def test_run_port_already_bound(tmp_path):
    port = free_port()
    blocker = load_container(
        {"services": [calculator_def(f"socket://127.0.0.1:{port}", "calc")]})
    try:
        path = write_config(tmp_path,
                            {"services": [calculator_def(f"socket://127.0.0.1:{port}", "calc")]})
        assert cli.main(["run", path]) == 1
    finally:
        blocker.stop()


def test_call_solicit_round_trip(tmp_path, capsys):
    port = free_port()
    server = load_container(
        {"services": [calculator_def(f"socket://127.0.0.1:{port}", "calc")]})
    try:
        code = cli.main(["call", f"socket://127.0.0.1:{port}", "calc",
                         '{"op":"sum","a":19,"b":23,"rid":"cli"}', "--solicit"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"r": 42}
    finally:
        server.stop()


def test_call_remote_fault_exits_one(tmp_path, capsys):
    port = free_port()
    server = load_container(
        {"services": [calculator_def(f"socket://127.0.0.1:{port}", "calc")]})
    try:
        code = cli.main(["call", f"socket://127.0.0.1:{port}", "calc",
                         '{"op":"div","a":1,"b":0,"rid":"cli2"}', "--solicit"])
        assert code == 1
        assert "DivisionByZero" in capsys.readouterr().err
    finally:
        server.stop()


def test_call_bad_payload_usage_error():
    assert cli.main(["call", "socket://127.0.0.1:1", "op", "not-json"]) == 2


def test_demo_unknown_name_usage_error(capsys):
    assert cli.main(["demo", "not-a-demo"]) == 2
    assert "unknown demo" in capsys.readouterr().err


def test_demo_runs_end_to_end(capsys):
    assert cli.main(["demo", "web", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "demo web: ok" in out
    assert "CorrelationError" in out
