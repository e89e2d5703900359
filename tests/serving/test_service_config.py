"""ServiceConfig: validation, parsing, protocol v1."""

from __future__ import annotations

import argparse

import pytest

from repro.serving import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceConfig,
    TRNGService,
)
from repro.serving.protocol import (
    error_envelope,
    parse_request_payload,
    response_envelope,
)


class TestServiceConfigValidation:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.max_batch == 32
        assert config.overflow == "reject"
        assert config.class_wait_ms == ()
        assert config.fast_tier is True
        assert not config.uses_fabric

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_wait_ms": -1.0},
            {"max_pending": 0},
            {"overflow": "drop"},
            {"spawn_workers": -1},
            {"backend": "gpu"},
            {"class_wait_ms": {"realtime": 1.0}},
            {"class_wait_ms": {"interactive": -2.0}},
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_class_wait_accepts_string_mapping_and_pairs(self):
        from_string = ServiceConfig(class_wait_ms="interactive=0.5, batch=20")
        from_mapping = ServiceConfig(
            class_wait_ms={"batch": 20.0, "interactive": 0.5}
        )
        from_pairs = ServiceConfig(
            class_wait_ms=(("interactive", 0.5), ("batch", 20.0))
        )
        assert from_string == from_mapping == from_pairs
        assert from_string.class_waits == {"interactive": 0.5, "batch": 20.0}

    def test_workers_remote_accepts_comma_string(self):
        config = ServiceConfig(workers_remote="h1:1234, h2:5678")
        assert config.workers_remote == ("h1:1234", "h2:5678")
        assert config.uses_fabric

    def test_replace_returns_updated_frozen_copy(self):
        base = ServiceConfig()
        tuned = base.replace(max_batch=4, max_wait_ms=0.0)
        assert tuned.max_batch == 4
        assert base.max_batch == 32
        with pytest.raises(AttributeError):
            tuned.max_batch = 8

    def test_from_args_reads_only_present_attributes(self):
        args = argparse.Namespace(
            max_batch=8, max_wait_ms=1.5, seed=7, unrelated="x"
        )
        config = ServiceConfig.from_args(args)
        assert config.max_batch == 8
        assert config.max_wait_ms == 1.5
        assert config.seed == 7
        assert config.max_pending == 1024  # untouched default

    def test_config_is_hashable(self):
        assert hash(ServiceConfig()) == hash(ServiceConfig())


class TestServiceConstructor:
    @pytest.mark.parametrize("keyword", ["max_batch", "max_bach"])
    def test_keyword_tunables_are_rejected(self, keyword):
        # Tunables live on ServiceConfig only; stray keywords are plain
        # TypeErrors from the signature itself.
        with pytest.raises(TypeError, match="unexpected keyword"):
            TRNGService(**{keyword: 4})


class TestProtocolVersion:
    def test_absent_version_means_version_one(self):
        request_id, kind, fields = parse_request_payload(
            {"id": 3, "kind": "ping"}
        )
        assert (request_id, kind, fields) == (3, "ping", {})

    def test_current_version_is_accepted(self):
        _, kind, _ = parse_request_payload(
            {"v": PROTOCOL_VERSION, "kind": "ping"}
        )
        assert kind == "ping"

    def test_unknown_version_is_rejected_with_structured_code(self):
        with pytest.raises(ProtocolError) as info:
            parse_request_payload({"v": 99, "id": 5, "kind": "ping"})
        assert info.value.code == "unsupported_version"
        assert info.value.request_id == 5

    @pytest.mark.parametrize("version", [True, "1", 1.0, None])
    def test_non_integer_version_is_rejected(self, version):
        with pytest.raises(ProtocolError) as info:
            parse_request_payload({"v": version, "kind": "ping"})
        assert info.value.code == "unsupported_version"

    def test_envelopes_carry_the_version(self):
        assert response_envelope(1, {})["v"] == PROTOCOL_VERSION
        error = error_envelope(1, "nope", code="overloaded")
        assert error["v"] == PROTOCOL_VERSION
        assert error["code"] == "overloaded"
        assert error["ok"] is False
