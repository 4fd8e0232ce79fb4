"""serve_mixed: start ``repro serve``, drive it open loop, check every answer.

The generator sends each request at its scheduled time whether or not
earlier ones have been answered (independent users), over at most ``nproc``
concurrent connections.  Latency counts from the scheduled send time, so a
stall also charges the requests queued behind it; how late requests actually
went out is reported as generator lag.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.client import ServeClient, ServeError
from workloads import Request

#: Per-request socket timeout; a request that takes longer counts as failed.
REQUEST_TIMEOUT_S = 30.0

#: Latency limits of ``slo_met_share`` per request kind (ms).
SLO_MS = {"cold": 500.0, "stream": 500.0, "warm": 50.0, "malformed": 50.0,
          "unknown_scheme": 50.0}

#: Request kinds whose body the service must reject with a 4xx.
REJECTED_KINDS = ("malformed", "unknown_scheme")

_URL = re.compile(rb"http://([0-9.]+):([0-9]+)")


@dataclass
class Outcome:
    """What the generator saw for one request."""

    request: Request
    lag_ms: float = 0.0
    latency_ms: float = 0.0
    first_round_ms: Optional[float] = None
    status: int = 0
    payload: object = None
    error: str = ""


@dataclass
class Server:
    """A running service subprocess."""

    process: subprocess.Popen
    host: str
    port: int
    setup_s: float

    @property
    def client(self) -> ServeClient:
        """The package's own client, for everything but the timed sends."""
        return ServeClient(f"http://{self.host}:{self.port}", timeout=REQUEST_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        """Peak resident set size of the server process (VmHWM), in MB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def user_cpu_s(self) -> float:
        """User CPU time the server process has used so far, in s.

        System time is left out: with identical work it swung between 0.12
        and 0.48 s per run, following the sqlite store's fsync waits.
        """
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as stat:
            # Fields after the parenthesised command name; utime is the
            # 14th field of the whole line.
            fields = stat.read().rsplit(")", 1)[1].split()
        return int(fields[11]) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """POST /shutdown, then wait for the process (killing it if it hangs)."""
        try:
            self.client.shutdown()
        except (ServeError, OSError):
            pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)


def start_server(root: Path, traced_spans: Optional[Path] = None) -> Server:
    """Start the service with its defaults on an ephemeral port.

    Untraced, this is ``python -m repro serve --port 0``; traced, the
    benchmark's launcher builds the same server with the wrappers installed.
    The ephemeral store lives under the checkout's scratch directory.
    """
    scratch = root / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(scratch), PYTHONUNBUFFERED="1")
    if traced_spans is None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    else:
        command = [sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                   "--spans", str(traced_spans)]
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT)
    lines: List[bytes] = []
    announced: "queue.Queue" = queue.Queue()

    def drain() -> None:
        # Keeps reading for the server's lifetime so it never blocks on a
        # full pipe; the first lines carry the bound address.
        for line in process.stdout:
            lines.append(line)
            announced.put(line)
        announced.put(b"")

    threading.Thread(target=drain, daemon=True).start()
    match = None
    deadline = started + 60.0
    while match is None:
        try:
            line = announced.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            line = b""
        if not line:
            process.kill()
            process.wait(timeout=30)
            raise RuntimeError("server did not announce its address: "
                               + b"".join(lines).decode(errors="replace"))
        match = _URL.search(line)
    server = Server(process, match.group(1).decode(), int(match.group(2)), 0.0)
    client = server.client
    while True:
        try:
            client.health()
            break
        except (ServeError, OSError):
            pass
        if time.perf_counter() > deadline:
            server.stop()
            raise RuntimeError("server never answered /health")
        time.sleep(0.002)
    server.setup_s = time.perf_counter() - started
    return server


def _send(server: Server, outcome: Outcome, due: float) -> None:
    """Perform one request and fill in ``outcome``."""
    request = outcome.request
    path = "/run?stream=1" if request.kind == "stream" else "/run"
    started = time.perf_counter()
    outcome.lag_ms = (started - due) * 1e3
    connection = http.client.HTTPConnection(server.host, server.port, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("POST", path, body=request.body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        outcome.status = response.status
        if request.kind == "stream" and response.status == 200:
            events = []
            for line in response:
                event = json.loads(line)
                if event.get("event") == "round" and outcome.first_round_ms is None:
                    outcome.first_round_ms = (time.perf_counter() - due) * 1e3
                events.append(event)
            outcome.payload = events
        else:
            outcome.payload = json.loads(response.read() or b"null")
        outcome.latency_ms = (time.perf_counter() - due) * 1e3
    except Exception as error:  # noqa: BLE001 - every failure is counted, not raised
        outcome.latency_ms = (time.perf_counter() - due) * 1e3
        outcome.error = f"{type(error).__name__}: {error}"
    finally:
        connection.close()


def drive(server: Server, requests: Sequence[Request], connections: int) -> List[Outcome]:
    """Send ``requests`` on schedule over ``connections`` worker threads."""
    outcomes = [Outcome(request) for request in requests]
    work: "queue.Queue" = queue.Queue()

    def worker() -> None:
        while True:
            item = work.get()
            if item is None:
                return
            _send(server, *item)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    start = time.perf_counter() + 0.05
    for outcome in outcomes:
        due = start + outcome.request.at_s
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        work.put((outcome, due))
    for _ in threads:
        work.put(None)
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT_S * len(requests))
        if thread.is_alive():
            raise RuntimeError("generator worker did not finish")
    return outcomes


def served_record(outcome: Outcome) -> Optional[dict]:
    """The record dict a successful run request carried, if any."""
    if outcome.error or outcome.status != 200:
        return None
    if outcome.request.kind == "stream":
        done = [e for e in outcome.payload if e.get("event") in ("done", "cached")]
        return done[-1].get("record") if done else None
    return outcome.payload.get("record") if isinstance(outcome.payload, dict) else None


def check(outcomes: Sequence[Outcome],
          expected: Dict[bytes, dict]) -> Tuple[Dict[int, str], Dict[int, int]]:
    """The problem of each failed request, and the known defects seen.

    ``expected`` maps a request body to ``record_to_dict(execute_run(spec))``
    computed in this process after timing ended.  Both results are keyed by
    request index.  The known defects are the unknown-scheme bodies the
    service answered 500 (it should be a 4xx); they are reported on their
    own, not as failures, so the defect stays visible without failing every
    run.
    """
    problems: Dict[int, str] = {}
    known: Dict[int, int] = {}
    for outcome in outcomes:
        request = outcome.request
        if outcome.error:
            problem = outcome.error
        elif request.kind == "unknown_scheme" and outcome.status == 500:
            known[request.index] = outcome.status
            problem = ""
        elif request.kind in REJECTED_KINDS:
            problem = "" if 400 <= outcome.status < 500 else f"answered HTTP {outcome.status}"
        elif outcome.status != 200:
            problem = f"HTTP {outcome.status}"
        elif request.kind == "stream" and outcome.first_round_ms is None:
            problem = "stream carried no round event"
        elif served_record(outcome) != expected[request.body]:
            problem = "served record differs from execute_run"
        else:
            problem = ""
        if problem:
            problems[request.index] = f"request {request.index} ({request.kind}): {problem}"
    return problems, known


def expected_records(requests: Sequence[Request]) -> Dict[bytes, dict]:
    """``record_to_dict(execute_run(spec))`` for every run request body."""
    from repro.experiments.orchestration import execute_run
    from repro.experiments.persistence import record_to_dict
    from repro.serve.server import spec_from_request

    expected: Dict[bytes, dict] = {}
    for request in requests:
        if request.kind not in REJECTED_KINDS and request.body not in expected:
            spec = spec_from_request(json.loads(request.body))
            expected[request.body] = record_to_dict(execute_run(spec))
    return expected
