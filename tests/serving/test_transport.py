"""The transport seam: the JSON gateway, and the TCP framing around it."""

from concurrent.futures import CancelledError

import pytest

from repro.serving import (
    TcpWorkbenchClient,
    handle_request,
    serve_tcp,
)


class TestGateway:
    """handle_request: one JSON-able dict in, one out, errors inline."""

    def test_session_lifecycle(self, make_server):
        server = make_server()
        created = handle_request(server, {"op": "create_session",
                                          "session": "alice"})
        assert created == {"ok": True, "session": "alice"}
        assert handle_request(server, {"op": "close_session",
                                       "session": "alice"}) == {"ok": True}

    def test_submit_poll_result(self, make_server, orders_ddl_text,
                                notice_xsd_text):
        server = make_server()
        for text, format_name, name in (
            (orders_ddl_text, "sql", "orders"),
            (notice_xsd_text, "xsd", "notice"),
        ):
            response = handle_request(server, {
                "op": "submit", "session": "s", "kind": "load_schema",
                "params": {"text": text, "format": format_name,
                           "schema_name": name}})
            assert response["ok"]
            done = handle_request(server, {
                "op": "result", "job_id": response["job_id"],
                "timeout": 30})
            assert done["ok"] and done["status"] == "done"
        submitted = handle_request(server, {
            "op": "submit", "session": "s", "kind": "match",
            "params": {"source_schema": "orders",
                       "target_schema": "notice"}})
        job_id = submitted["job_id"]
        result = handle_request(server, {"op": "result", "job_id": job_id,
                                         "timeout": 60})
        assert result["ok"]
        assert result["result"]["matrix"] == "orders->notice"
        assert result["result"]["cells"] > 0
        # a fetched result is forgotten: polling again is an error
        again = handle_request(server, {"op": "result", "job_id": job_id})
        assert not again["ok"]

    def test_non_wire_kind_rejected(self, make_server):
        server = make_server()
        response = handle_request(server, {
            "op": "submit", "session": "s", "kind": "put_schema",
            "params": {}})
        assert not response["ok"]
        assert "not wire-transportable" in response["message"]

    def test_evolve_is_not_a_wire_kind(self, make_server):
        """JSON cannot carry the evolved graph, so the gateway refuses
        the kind up front instead of failing inside the job."""
        server = make_server()
        response = handle_request(server, {
            "op": "submit", "session": "s", "kind": "evolve",
            "params": {"new_graph": "s", "matrix_name": "s->t"}})
        assert not response["ok"]
        assert response["error"] == "ServingError"
        assert "not wire-transportable" in response["message"]
        assert server.stats()["submitted"] == 0

    def test_keyboard_interrupt_propagates(self, make_server, monkeypatch):
        server = make_server()

        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(server, "stats", interrupted)
        with pytest.raises(KeyboardInterrupt):
            handle_request(server, {"op": "stats"})

    def test_keyboard_interrupt_in_job_propagates(self, make_server,
                                                   monkeypatch):
        server = make_server()

        def interrupted(session, job):
            raise KeyboardInterrupt

        monkeypatch.setitem(server._handlers, "ping", interrupted)
        submitted = handle_request(server, {
            "op": "submit", "session": "s", "kind": "ping", "params": {}})
        with pytest.raises(KeyboardInterrupt):
            handle_request(server, {"op": "result",
                                    "job_id": submitted["job_id"],
                                    "timeout": 5})

    def test_cancelled_future_answers_cancelled_error(self, make_server,
                                                      monkeypatch):
        """A job whose inner future was cancelled (a process-pool match
        shed at shutdown) still answers inline, not by raising."""
        server = make_server()

        def cancelled(session, job):
            raise CancelledError()

        monkeypatch.setitem(server._handlers, "ping", cancelled)
        submitted = handle_request(server, {
            "op": "submit", "session": "s", "kind": "ping", "params": {}})
        outcome = handle_request(server, {"op": "result",
                                          "job_id": submitted["job_id"],
                                          "timeout": 5})
        assert outcome["ok"] is False
        assert outcome["error"] == "CancelledError"

    def test_unknown_op_is_an_error_response(self, make_server):
        server = make_server()
        response = handle_request(server, {"op": "divide_by_zero"})
        assert not response["ok"]
        assert response["error"] == "ServingError"

    def test_queue_full_carries_retry_hint(self, make_server):
        server = make_server(workers=1, queue_limit=1, retry_after_s=0.2)
        first = handle_request(server, {
            "op": "submit", "session": "s", "kind": "ping",
            "params": {"delay_s": 0.3}})
        assert first["ok"]
        # flood until the bounded queue rejects
        rejected = None
        for _ in range(20):
            response = handle_request(server, {
                "op": "submit", "session": "s", "kind": "ping",
                "params": {}})
            if not response["ok"]:
                rejected = response
                break
        assert rejected is not None
        assert rejected["error"] == "QueueFullError"
        assert rejected["retry_after_s"] == 0.2

    def test_cancel_and_stats(self, make_server):
        server = make_server(workers=1)
        blocker = handle_request(server, {
            "op": "submit", "session": "s", "kind": "ping",
            "params": {"delay_s": 0.3}})
        victim = handle_request(server, {
            "op": "submit", "session": "s", "kind": "ping", "params": {}})
        cancelled = handle_request(server, {"op": "cancel",
                                            "job_id": victim["job_id"]})
        assert cancelled == {"ok": True, "cancelled": True}
        outcome = handle_request(server, {"op": "result",
                                          "job_id": victim["job_id"],
                                          "timeout": 5})
        assert not outcome["ok"]
        assert outcome["error"] == "JobCancelledError"
        done = handle_request(server, {"op": "result",
                                       "job_id": blocker["job_id"],
                                       "timeout": 5})
        assert done["ok"] and done["result"] == "pong"
        stats = handle_request(server, {"op": "stats"})
        assert stats["ok"]
        assert stats["stats"]["cancelled"] == 1


class TestTcp:
    """Length-prefixed frames over a real socket."""

    def test_round_trip_match(self, make_server, orders_ddl_text,
                              notice_xsd_text):
        server = make_server()
        tcp = serve_tcp(server)
        try:
            host, port = tcp.address
            with TcpWorkbenchClient(host, port) as client:
                assert client.create_session("wire")["ok"]
                for text, format_name, name in (
                    (orders_ddl_text, "sql", "orders"),
                    (notice_xsd_text, "xsd", "notice"),
                ):
                    submitted = client.submit(
                        "wire", "load_schema", text=text,
                        format=format_name, schema_name=name)
                    assert client.result(submitted["job_id"])["ok"]
                submitted = client.submit(
                    "wire", "match", source_schema="orders",
                    target_schema="notice")
                result = client.result(submitted["job_id"], timeout=60)
                assert result["ok"]
                assert result["result"]["matrix"] == "orders->notice"
                assert result["result"]["cells"] > 0
                stats = client.stats()
                assert stats["stats"]["failed"] == 0
        finally:
            tcp.close()

    def test_errors_cross_the_wire_as_responses(self, make_server):
        server = make_server()
        tcp = serve_tcp(server)
        try:
            host, port = tcp.address
            with TcpWorkbenchClient(host, port) as client:
                response = client.request({"op": "nonsense"})
                assert not response["ok"]
                assert response["error"] == "ServingError"
                # the connection survives an error response
                assert client.stats()["ok"]
        finally:
            tcp.close()

    def test_multiple_clients_share_one_server(self, make_server):
        server = make_server()
        tcp = serve_tcp(server)
        try:
            host, port = tcp.address
            with TcpWorkbenchClient(host, port) as one, \
                    TcpWorkbenchClient(host, port) as two:
                assert one.create_session("a")["ok"]
                assert two.create_session("b")["ok"]
                names = one.stats()["stats"]["sessions"]
                assert set(names) >= {"a", "b"}
        finally:
            tcp.close()
