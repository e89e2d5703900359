"""The ``metrics`` wire kind: live scrapes of server and worker registries."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.engine.distributed import Sigma2NCampaignSpec, spec_to_json
from repro.engine.distributed.fabric.worker_loop import WorkerServer
from repro.serving import TRNGService
from repro.serving.protocol import ProtocolError, parse_request_line
from repro.serving.server import handle_request_line


def _serve_line(service: TRNGService, line: str) -> dict:
    async def runner():
        async with service:
            return await handle_request_line(service, line)

    return json.loads(asyncio.run(runner()))


class TestParseMetricsKind:
    def test_metrics_kind_accepted_with_optional_format(self):
        assert parse_request_line('{"kind": "metrics"}') == (None, "metrics", {})
        request_id, kind, fields = parse_request_line(
            '{"id": 9, "kind": "metrics", "format": "prometheus"}'
        )
        assert (request_id, kind) == (9, "metrics")
        assert fields == {"format": "prometheus"}

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown fields"):
            parse_request_line('{"kind": "metrics", "nope": 1}')

    def test_shard_accepts_a_trace_envelope(self):
        _, _, fields = parse_request_line(
            '{"kind": "shard", "spec": {}, "start": 0, "stop": 1, '
            '"trace": {"trace_id": "t", "parent_span_id": "p"}}'
        )
        assert fields["trace"] == {"trace_id": "t", "parent_span_id": "p"}


class TestServerMetricsKind:
    def test_json_scrape_covers_service_and_process_registries(self):
        service = TRNGService()

        async def runner():
            async with service:
                await service.get_bits(n_bits=16, divider=8, seed=3)
                return await handle_request_line(
                    service, '{"id": 1, "kind": "metrics"}'
                )

        response = json.loads(asyncio.run(runner()))
        assert response["ok"] is True
        result = response["result"]
        assert result["kind"] == "metrics"
        assert result["format"] == "json"
        metrics = result["metrics"]
        # Service-scope instruments...
        assert metrics["serve_requests_total"]["value"] == {"kind=bits": 1}
        assert "serve_queue_depth" in metrics
        assert "serve_queue_wait_seconds" in metrics
        assert metrics["serve_execute_seconds"]["value"]["count"] == 1
        # ...and process-scope ones (plan cache, kernel) in the same scrape.
        assert "plan_cache_hits_total" in metrics
        assert "plan_cache_misses_total" in metrics
        assert "engine_kernel_block_seconds" in metrics

    def test_prometheus_scrape_is_text_exposition(self):
        response = _serve_line(
            TRNGService(), '{"id": 2, "kind": "metrics", "format": "prometheus"}'
        )
        assert response["ok"] is True
        text = response["result"]["text"]
        assert "# TYPE serve_requests_total counter" in text
        assert "# TYPE serve_execute_seconds histogram" in text
        assert 'serve_execute_seconds_bucket{le="+Inf"}' in text

    def test_unknown_format_is_a_protocol_error(self):
        response = _serve_line(
            TRNGService(), '{"id": 3, "kind": "metrics", "format": "xml"}'
        )
        assert response["ok"] is False
        assert "unknown metrics format" in response["error"]
        assert response["id"] == 3


class TestWorkerMetricsKind:
    def test_worker_json_scrape(self):
        worker = WorkerServer()
        response = json.loads(
            asyncio.run(worker.handle_line('{"id": 1, "kind": "metrics"}'))
        )
        assert response["ok"] is True
        metrics = response["result"]["metrics"]
        assert response["result"]["role"] == "worker"
        assert metrics["worker_shards_served_total"]["value"] == 0
        assert "plan_cache_hits_total" in metrics

    def test_worker_prometheus_scrape(self):
        worker = WorkerServer()
        response = json.loads(
            asyncio.run(
                worker.handle_line(
                    '{"id": 2, "kind": "metrics", "format": "prometheus"}'
                )
            )
        )
        assert "# TYPE worker_shards_served_total counter" in (
            response["result"]["text"]
        )


_SPEC_JSON = spec_to_json(Sigma2NCampaignSpec(batch_size=2, n_periods=512, seed=11))


def _line(message: dict) -> str:
    return json.dumps(message)


class TestWorkerRejectsServingTraffic:
    @pytest.mark.parametrize(
        "line, code, message_part",
        [
            (
                _line({"id": 1, "kind": "batch",
                       "requests": [{"kind": "bits", "n_bits": 8, "seed": 1}]}),
                "bad_request",
                "unknown request kind 'batch'",
            ),
            (
                _line({"id": 1, "kind": "bits", "n_bits": 8, "seed": 1}),
                "bad_request",
                "not served by fabric workers",
            ),
            (
                _line({"id": 1, "kind": "sigma2n", "n_periods": 256, "seed": 1}),
                "bad_request",
                "not served by fabric workers",
            ),
            ('{"id": 1, "kind": ', "bad_request", "invalid JSON"),
            (
                _line({"v": 2, "id": 1, "kind": "ping"}),
                "unsupported_version",
                "unsupported protocol version 2",
            ),
            (
                _line({"id": 1, "kind": "shard", "start": 0, "stop": 1}),
                "bad_request",
                "invalid shard assignment",
            ),
            (
                _line({"id": 1, "kind": "shard", "spec": _SPEC_JSON,
                       "start": "first", "stop": 1}),
                "bad_request",
                "invalid shard assignment",
            ),
            (
                _line({"id": 1, "kind": "shard", "spec": _SPEC_JSON,
                       "start": 0, "stop": 1, "requests": []}),
                "bad_request",
                "unknown fields for 'shard'",
            ),
            (
                _line({"id": 1, "kind": "metrics", "format": "xml"}),
                "bad_request",
                "unknown metrics format",
            ),
        ],
        ids=["batch", "bits", "sigma2n", "malformed-json", "unsupported-version",
             "shard-without-spec", "shard-bad-range", "shard-unknown-field",
             "metrics-bad-format"],
    )
    def test_rejected_and_still_answers_ping(self, line, code, message_part):
        async def scenario():
            worker = WorkerServer(port=0)
            await worker.start()
            try:
                reader, writer = await asyncio.open_connection(
                    worker.host, worker.port
                )
                replies = []
                for text in (line, _line({"id": 2, "kind": "ping"})):
                    writer.write((text + "\n").encode())
                    await writer.drain()
                    replies.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
            finally:
                await worker.stop()
            return worker, replies

        worker, (rejected, pong) = asyncio.run(scenario())
        assert rejected["ok"] is False
        assert rejected["code"] == code
        assert message_part in rejected["error"]
        assert pong["result"] == {"kind": "ping", "pong": True, "role": "worker"}
        assert worker.shards_served == 0


class TestWorkerControlKinds:
    def test_stats_reports_role_and_shard_count(self):
        worker = WorkerServer()
        response = json.loads(
            asyncio.run(worker.handle_line('{"id": 4, "kind": "stats"}'))
        )
        assert response["id"] == 4
        assert response["result"] == {
            "kind": "stats", "role": "worker", "shards_served": 0,
        }

    def test_shutdown_answers_then_ends_the_serve_loop(self):
        async def scenario():
            worker = WorkerServer(port=0)
            serving = asyncio.create_task(worker.serve_until_shutdown())
            await asyncio.sleep(0)
            reply = json.loads(
                await worker.handle_line('{"id": 5, "kind": "shutdown"}')
            )
            # The serve loop returns on its own once the reply is out.
            await asyncio.wait_for(serving, timeout=10.0)
            return reply

        reply = asyncio.run(scenario())
        assert reply["result"] == {"kind": "shutdown", "stopping": True}


class TestWorkerTracePropagation:
    def test_shard_reply_continues_the_coordinator_trace(self):
        worker = WorkerServer()
        spec = Sigma2NCampaignSpec(batch_size=2, n_periods=512, seed=11)
        message = {
            "id": "shard-0",
            "kind": "shard",
            "spec": spec_to_json(spec),
            "index": 0,
            "start": 0,
            "stop": 1,
            "trace": {"trace_id": "feedc0de" * 2, "parent_span_id": "ab" * 8},
        }
        response = json.loads(
            asyncio.run(worker.handle_line(json.dumps(message)))
        )
        assert response["ok"] is True
        spans = response["result"]["spans"]
        assert len(spans) == 1
        record = spans[0]
        assert record["name"] == "worker.shard"
        assert record["trace_id"] == "feedc0de" * 2
        assert record["parent_id"] == "ab" * 8
        assert record["attributes"] == {"shard": 0, "rows": 1}
        assert record["status"] == "ok"
        assert ":" in record["host"]
        # The worker kept its own copy too (for its own metrics scrapes).
        assert worker.spans.records()[0].trace_id == "feedc0de" * 2
        assert worker.shards_served == 1

    def test_untraced_shard_still_returns_spans(self):
        worker = WorkerServer()
        spec = Sigma2NCampaignSpec(batch_size=2, n_periods=512, seed=11)
        message = {
            "id": "shard-0",
            "kind": "shard",
            "spec": spec_to_json(spec),
            "index": 0,
            "start": 0,
            "stop": 2,
        }
        response = json.loads(
            asyncio.run(worker.handle_line(json.dumps(message)))
        )
        spans = response["result"]["spans"]
        assert len(spans) == 1
        assert spans[0]["parent_id"] is None
