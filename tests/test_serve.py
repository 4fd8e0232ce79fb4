"""Tests for the HTTP experiment service and its client.

The contracts exercised here:

* request parsing (:func:`spec_from_request`) fills defaults and rejects
  malformed bodies;
* a repeated ``/run`` query is answered from the cache with the identical
  record; concurrent identical queries collapse onto one simulation;
* ``/run?stream=1`` carries live per-round events and publishes the finished
  record so the next query is a hit;
* error mapping: bad specs -> 400, unknown endpoints -> 404, a full broker
  queue -> 503;
* a hostile ``Content-Length`` (negative, non-integer, above the body cap)
  is answered 400/413 at once instead of hanging the connection, and a body
  shorter than its declared length is dropped after the socket timeout;
* a failing store costs a streamed run nothing: the client still gets
  ``done``.
"""

import json
import socket
import threading
from contextlib import contextmanager

import pytest

from repro.experiments.broker import ExperimentBroker
from repro.experiments.orchestration import execute_run
from repro.experiments.persistence import RunCache, record_to_dict
from repro.serve import ServeClient, ServeConfig, make_server, spec_from_request
from repro.serve import server as server_module
from repro.serve.client import ServeError
from repro.serve.server import MAX_BODY_BYTES
from repro.sim.engine import DEFAULT_IDLE_ROUND_LIMIT


def spec_payload(scheme: str = "SR", seed: int = 3, **overrides) -> dict:
    payload = {
        "scenario": {
            "columns": 5,
            "rows": 5,
            "deployed_count": 150,
            "spare_surplus": 8,
            "seed": seed,
        },
        "scheme": scheme,
        "seed": seed,
        "max_rounds": 40,
    }
    payload.update(overrides)
    return payload


@contextmanager
def running_server(broker=None, cache=None, **config_kwargs):
    """An ephemeral-port server (and client) that is torn down afterwards."""
    config = ServeConfig(port=0, workers=config_kwargs.pop("workers", 2), **config_kwargs)
    server = make_server(config, broker=broker, cache=cache)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, ServeClient(server.url, timeout=60)
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.close()


# ------------------------------------------------------------ request parsing
def test_spec_from_request_fills_defaults():
    spec = spec_from_request({"scenario": {"seed": 9}, "scheme": "SR"})
    assert spec.scheme == "SR"
    assert spec.seed == 9  # inherited from the scenario seed
    assert spec.max_rounds is None
    assert spec.idle_round_limit == DEFAULT_IDLE_ROUND_LIMIT
    assert spec.energy is None and not spec.run_to_exhaustion
    assert spec.failures == () and spec.channel is None


def test_spec_from_request_accepts_channel_strings():
    spec = spec_from_request(spec_payload(channel="lossy:0.2"))
    assert spec.channel is not None
    assert spec.channel.kind == "lossy"
    assert dict(spec.channel.params)["drop_probability"] == pytest.approx(0.2)


@pytest.mark.parametrize(
    "body",
    [
        "not a dict",
        {},
        {"scheme": "SR"},
        {"scenario": {"seed": 1}},
        {"scenario": "not-a-dict", "scheme": "SR"},
        {"scenario": {"bogus_field": 1}, "scheme": "SR"},
        {"scenario": {"seed": 1}, "scheme": "NOPE"},
        {"scenario": {"seed": 1}, "scheme": ["SR"]},
    ],
)
def test_spec_from_request_rejects_malformed_bodies(body):
    with pytest.raises(ValueError):
        spec_from_request(body)


# ------------------------------------------------------------------ endpoints
def test_serve_answers_repeated_queries_from_the_cache():
    with running_server() as (server, client):
        assert client.health()["status"] == "ok"
        assert "SR" in client.schemes()
        assert any(s["name"] == "paper-16x16" for s in client.scenarios())

        first = client.run(spec_payload())
        assert not first["cached"]
        second = client.run(spec_payload())
        assert second["cached"]
        assert second["record"] == first["record"]

        stats = client.stats()
        assert stats["cache"]["hits"] >= 1
        assert stats["broker"]["executed"] == 1


def test_serve_run_matches_local_execution():
    with running_server() as (server, client):
        remote = client.run(spec_payload())["record"]
    local = record_to_dict(execute_run(spec_from_request(spec_payload())))
    assert remote == local


def test_streamed_run_emits_live_rounds_then_caches():
    with running_server() as (server, client):
        events = list(client.run_stream(spec_payload(seed=11)))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "done"
        rounds = [e for e in events if e["event"] == "round"]
        assert rounds, "no live per-round events arrived"
        assert [e["round"] for e in rounds] == list(range(len(rounds)))
        assert all("holes" in e and "moves" in e for e in rounds)
        # The streamed record was published: the next stream is one cached event.
        replay = list(client.run_stream(spec_payload(seed=11)))
        assert [e["event"] for e in replay] == ["cached"]
        assert replay[0]["record"] == events[-1]["record"]


class FailingStore(RunCache):
    """A run cache whose writes always fail (a full disk, a locked store)."""

    def put(self, record):
        raise OSError("store is read-only")


def test_streamed_run_survives_a_failing_store(tmp_path):
    with running_server(cache=FailingStore(tmp_path)) as (server, client):
        events = list(client.run_stream(spec_payload(seed=12)))
        assert [events[0]["event"], events[-1]["event"]] == ["accepted", "done"]
        local = record_to_dict(execute_run(spec_from_request(spec_payload(seed=12))))
        assert events[-1]["record"] == local
        # The write failed, so the next stream simulates again.
        replay = list(client.run_stream(spec_payload(seed=12)))
        assert replay[-1]["event"] == "done"


def test_concurrent_identical_queries_share_one_simulation():
    """Acceptance: a thundering herd of one spec costs one simulation."""
    with running_server() as (server, client):
        results = []

        def ask():
            results.append(client.run(spec_payload(seed=21)))

        threads = [threading.Thread(target=ask) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        records = [r["record"] for r in results]
        assert all(record == records[0] for record in records)
        assert server.broker.stats().executed == 1


# --------------------------------------------------------------- error paths
def test_malformed_spec_maps_to_400():
    with running_server() as (server, client):
        with pytest.raises(ServeError) as excinfo:
            client.run({"scheme": "SR"})
        assert excinfo.value.status == 400


def test_unknown_scheme_maps_to_400_before_any_run():
    with running_server() as (server, client):
        for run in (client.run, lambda body: list(client.run_stream(body))):
            with pytest.raises(ServeError) as excinfo:
                run(spec_payload(scheme="NOPE"))
            assert excinfo.value.status == 400
            assert "unknown scheme" in str(excinfo.value)
        stats = server.broker.stats()
        assert stats.executed == 0 and stats.failed == 0


def raw_post_run(url: str, headers: str, body: bytes = b"") -> int:
    """POST /run over a raw keep-alive socket; the status, or a failure on hang."""
    host, port = url.rsplit("/", 1)[-1].split(":")
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(
            f"POST /run HTTP/1.1\r\nHost: {host}\r\nConnection: keep-alive\r\n"
            f"{headers}\r\n".encode("latin-1") + body
        )
        try:
            status_line = conn.makefile("rb").readline()
        except socket.timeout:
            pytest.fail(f"no response within 5 s to headers {headers!r}")
    return int(status_line.split()[1])


@pytest.mark.parametrize("length", ["-1", "-100", "abc", "1.5", "0x10"])
def test_invalid_content_length_maps_to_400_without_waiting(length):
    with running_server() as (server, _):
        status = raw_post_run(
            server.url, f"Content-Type: application/json\r\nContent-Length: {length}\r\n"
        )
        assert status == 400


def test_oversized_content_length_maps_to_413_before_reading():
    with running_server() as (server, _):
        # Only a few bytes follow the headers: the server must answer from
        # the declared length, not wait for the rest of the body.
        status = raw_post_run(
            server.url,
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n",
            body=b'{"scheme": ',
        )
        assert status == 413
        assert server.broker.stats().executed == 0


def test_truncated_body_is_dropped_after_the_socket_timeout(monkeypatch):
    monkeypatch.setattr(server_module, "REQUEST_TIMEOUT_SECONDS", 0.2)
    with running_server() as (server, _):
        host, port = server.url.rsplit("/", 1)[-1].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as conn:
            # Ten bytes of a declared hundred, then silence.
            conn.sendall(
                f"POST /run HTTP/1.1\r\nHost: {host}\r\nConnection: keep-alive\r\n"
                "Content-Length: 100\r\n\r\n".encode("latin-1") + b'{"scheme":'
            )
            try:
                remainder = conn.makefile("rb").read()
            except socket.timeout:
                pytest.fail("the server held the connection past its socket timeout")
        assert remainder == b""  # closed without a response
        assert server.broker.stats().executed == 0


def test_body_at_the_cap_is_read():
    with running_server() as (server, _):
        body = json.dumps(spec_payload(scheme="NOPE")).encode()
        body += b" " * (MAX_BODY_BYTES - len(body))
        status = raw_post_run(server.url, f"Content-Length: {len(body)}\r\n", body)
        assert status == 400  # read and parsed: the unknown scheme is the error


def test_bad_priority_maps_to_400():
    with running_server() as (server, client):
        with pytest.raises(ServeError) as excinfo:
            client.run(spec_payload(), priority="urgent")
        assert excinfo.value.status == 400


def test_unknown_routes_map_to_404():
    with running_server() as (server, client):
        for path in ["/nope", "/scenario/not-a-scenario", "/figure/fig99"]:
            with pytest.raises(ServeError) as excinfo:
                client._call(path)
            assert excinfo.value.status == 404, path


def test_full_queue_maps_to_503():
    gate = threading.Event()

    def gated_run(spec):
        gate.wait(timeout=30)
        return execute_run(spec)

    def wait_until(predicate, timeout: float = 5.0) -> None:
        pause = threading.Event()
        for _ in range(int(timeout / 0.01)):
            if predicate():
                return
            pause.wait(0.01)
        pytest.fail("broker never reached the expected state")

    broker = ExperimentBroker(workers=1, queue_limit=1, run_fn=gated_run)
    with running_server(broker=broker) as (server, client):
        background = []

        def ask(seed):
            thread = threading.Thread(
                target=lambda: client.run(spec_payload(seed=seed))
            )
            thread.start()
            background.append(thread)

        ask(31)  # occupies the one worker (held at the gate)
        wait_until(lambda: broker.stats().pending == 0 and broker.stats().in_flight == 1)
        ask(32)  # fills the queue exactly to its bound
        wait_until(lambda: broker.stats().pending == 1)
        with pytest.raises(ServeError) as excinfo:
            client.run(spec_payload(seed=33))
        assert excinfo.value.status == 503
        gate.set()
        for thread in background:
            thread.join(timeout=30)
