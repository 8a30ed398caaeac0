"""Command line entry point.

    orchestra check <config.json>
    orchestra run <config.json> [--seed N] [--log PATH]
    orchestra call <location> <operation> [<payload-json>] [--resource R] [--solicit]
    orchestra demo <name> [--seed N]

Exit codes: 0 on success, 1 on a domain failure (validation, startup,
demo mismatch), 2 on usage or I/O problems.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time

from . import state
from .composition import load_container, loads_strict
from .demos import DEMOS, DemoFailure, run_demo
from .deployment import Connection, SocketLocation, parse_location, sync_request
from .errors import OrchestraError, ValidationError
from .transport import connect_socket


def _read_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    return loads_strict(text)


def cmd_check(args) -> int:
    try:
        config = _read_config(args.config)
        container = load_container(config, seed=args.seed)
    except OrchestraError as e:
        print(json.dumps({"error": type(e).__name__, "detail": str(e)}),
              file=sys.stderr)
        return 1
    try:
        for warning in container.warnings:
            print(f"warning: {warning}")
        print(f"ok: {len(container.services)} service(s)")
        return 0
    finally:
        container.stop()


def _open_log(path: str):
    fh = open(path, "a", encoding="utf-8")
    lock = threading.Lock()

    def sink(record: dict) -> None:
        with lock:
            fh.write(json.dumps(record, separators=(",", ":"), sort_keys=True,
                                default=str) + "\n")
            fh.flush()

    return fh, sink


def cmd_run(args) -> int:
    sink = None
    log_file = None
    if args.log:
        log_file, sink = _open_log(args.log)
    try:
        config = _read_config(args.config)
        container = load_container(config, seed=args.seed, event_sink=sink)
    except OrchestraError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        if log_file:
            log_file.close()
        return 1
    for warning in container.warnings:
        print(f"warning: {warning}")

    stop_requested = threading.Event()

    def on_signal(signum, frame):
        stop_requested.set()

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)

    try:
        if container.has_socket_listeners():
            print("serving; interrupt to stop")
            while not stop_requested.is_set():
                time.sleep(0.1)
        else:
            container.wait_quiescent(timeout=args.timeout)
        for name, running in container.services.items():
            report = {sid: repr(running.engine.session_view(sid)[1])
                      for sid in running.engine.session_ids()}
            print(f"{name}: sessions={report}")
        return 0
    finally:
        container.stop()
        if log_file:
            log_file.close()


def cmd_call(args) -> int:
    location = parse_location(args.location)
    if not isinstance(location, SocketLocation):
        print("error: call reaches socket locations only", file=sys.stderr)
        return 2
    try:
        payload = state.from_json_obj(json.loads(args.payload))
    except (ValidationError, json.JSONDecodeError) as e:
        print(f"error: bad payload: {e}", file=sys.stderr)
        return 2
    try:
        conn = Connection(connect_socket(location.host, location.port))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        if args.solicit:
            result = sync_request(conn, args.operation, payload, args.resource,
                                  timeout=args.timeout)
            if result.fault is not None:
                print(f"fault: {result.fault}", file=sys.stderr)
                return 1
            print(state.encode(result.payload))
        else:
            conn.send_request(args.operation, payload, args.resource)
        return 0
    except OrchestraError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        conn.close()


def cmd_demo(args) -> int:
    if args.name not in DEMOS:
        print(f"error: unknown demo {args.name!r}; have {', '.join(sorted(DEMOS))}",
              file=sys.stderr)
        return 2
    try:
        transcript = run_demo(args.name, seed=args.seed)
    except DemoFailure as e:
        print(f"demo {args.name} FAILED\n{e}", file=sys.stderr)
        return 1
    except OrchestraError as e:
        print(f"demo {args.name} errored: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    for line in transcript:
        print(line)
    print(f"demo {args.name}: ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orchestra",
                                     description="run and poke service containers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a container configuration")
    p_check.add_argument("config")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="load a container and run it")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--log", default=None, help="write the event log here")
    p_run.add_argument("--timeout", type=float, default=30.0,
                       help="quiescence wait for listener-less configs")
    p_run.set_defaults(func=cmd_run)

    p_call = sub.add_parser("call", help="send one request frame to a location")
    p_call.add_argument("location")
    p_call.add_argument("operation")
    p_call.add_argument("payload", nargs="?", default="{}")
    p_call.add_argument("--resource", default="")
    p_call.add_argument("--solicit", action="store_true",
                        help="wait for and print the response payload")
    p_call.add_argument("--timeout", type=float, default=10.0)
    p_call.set_defaults(func=cmd_call)

    p_demo = sub.add_parser("demo", help="run a named scenario end to end")
    p_demo.add_argument("name")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except ValidationError as e:
        print(f"ValidationError: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
