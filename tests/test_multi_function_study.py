"""Tests for the gateway latency summary."""

import math

import pytest

from repro.bench.stats import quantile as exact_quantile
from repro.faas.openfaas.stack import make_openfaas_stack
from repro.functions import MarkdownFunction, NoopFunction
from repro.obs.metrics import SUBBUCKETS


class TestGatewayLatencyDigest:
    def test_summary_after_invocations(self, kernel):
        stack = make_openfaas_stack(kernel)
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop")
        for _ in range(20):
            stack.gateway.invoke("noop")
        summary = stack.gateway.latency_summary("noop")
        assert summary["count"] == 20
        assert 0.3 < summary["p50"] < 2.0  # noop service ≈ 0.9ms

    @pytest.mark.parametrize("function, factory",
                             [("noop", NoopFunction),
                              ("markdown", MarkdownFunction)])
    def test_summary_matches_exact_quantiles(self, kernel, function, factory):
        """The summary reads the ``gateway_service_duration_ms``
        histogram: count/min/max are exact, percentiles land within
        one log-linear bucket of the exact quantile."""
        stack = make_openfaas_stack(kernel)
        stack.cli.new(function, "java8", factory)
        stack.cli.up(function)
        service_ms = [stack.gateway.invoke(function).service_ms
                      for _ in range(300)]
        summary = stack.gateway.latency_summary(function)
        assert summary["count"] == len(service_ms)
        assert summary["min"] == min(service_ms)
        assert summary["max"] == max(service_ms)
        assert summary["mean"] == pytest.approx(
            sum(service_ms) / len(service_ms), rel=1e-12)
        for q in (0.50, 0.90, 0.99):
            exact = exact_quantile(service_ms, q)
            # Buckets split each power of two [2**(e-1), 2**e) into
            # SUBBUCKETS equal parts.
            width = math.ldexp(1.0, math.frexp(exact)[1] - 1) / SUBBUCKETS
            assert summary[f"p{int(q * 100)}"] == pytest.approx(exact, abs=width)

    def test_summary_unknown_service(self, kernel):
        from repro.faas.openfaas.gateway import GatewayError
        stack = make_openfaas_stack(kernel)
        with pytest.raises(GatewayError):
            stack.gateway.latency_summary("ghost")
