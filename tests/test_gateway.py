import hashlib
import json
import random
import re
import socket
import sys
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrbench import errors, gateway
from ehrbench.cli import RunPlan, main
from ehrbench.gateway import (
    MAX_IN_FLIGHT,
    EndpointConfig,
    MissingRateReport,
    PredictionOutcome,
    _stub_embed,
    complete,
    complete_batch,
    decode_probability,
    embed,
    missing_rate,
)
from test_cli import load_report, write_run_config


class TestDecode:
    @pytest.mark.parametrize("text,expected", [
        ("0.73", 0.73),
        ("0.5", 0.5),
        ("1", 1.0),
        ("0", 0.0),
        ("The probability is 0.85.", 0.85),
        ("85%", 0.85),
        ("0.5%", 0.005),
        ("Risk: 85 %", 0.85),
        ("scores 2.5 then 0.3", 0.3),       # first in-range number wins
        ("RESPONSE: 0.42\n0.9", 0.42),
        ("1e-5", 1e-5),
        ("0.5e-2", 0.005),
        ("8.5e-01", 0.85),
        ("1.2e-3", 0.0012),
    ])
    def test_decoded(self, text, expected):
        outcome = decode_probability(text)
        assert outcome.status == "decoded"
        assert outcome.probability == pytest.approx(expected)

    @pytest.mark.parametrize("text", [
        "I do not know",
        "i do not know.",
        "I DO NOT KNOW",
        "Sorry, I do  not know the answer",
    ])
    def test_refusal_fallback(self, text):
        outcome = decode_probability(text)
        assert outcome.status == "fallback_unknown"
        assert outcome.probability == 0.5

    @pytest.mark.parametrize("text", [
        "",
        "no conclusion can be drawn",
        "85",             # bare out-of-range number
        "-0.5",           # negative is never a probability
        "the value 42 is too high",
        "1e5",
    ])
    def test_missing(self, text):
        outcome = decode_probability(text)
        assert outcome.status == "missing"
        assert outcome.probability is None

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_decoded_probability_always_in_range(self, text):
        outcome = decode_probability(text)
        if outcome.status == "missing":
            assert outcome.probability is None
        else:
            assert 0.0 <= outcome.probability <= 1.0


class TestMissingRate:
    def test_formula(self):
        report = MissingRateReport(n_test=3107, n_decoded=1933)
        assert report.missing_rate_percent == pytest.approx(37.79, abs=0.01)

    def test_counts_fallback_as_decoded_by_default(self):
        outcomes = [
            PredictionOutcome("decoded", 0.3, "0.3"),
            PredictionOutcome("fallback_unknown", 0.5, "I do not know"),
            PredictionOutcome("missing", None, "??"),
        ]
        assert missing_rate(outcomes).n_decoded == 2
        strict = missing_rate(outcomes, count_unknown_as_missing=True)
        assert strict.n_decoded == 1

    def test_empty_rejected(self):
        with pytest.raises(errors.InvariantViolation, match="^no outcomes$"):
            missing_rate([])

    def test_invariants(self):
        with pytest.raises(errors.InvariantViolation):
            MissingRateReport(n_test=2, n_decoded=3)
        with pytest.raises(errors.InvariantViolation):
            PredictionOutcome("fallback_unknown", 0.4, "x")
        with pytest.raises(errors.InvariantViolation):
            PredictionOutcome("decoded", 1.5, "x")
        with pytest.raises(errors.InvariantViolation):
            PredictionOutcome("missing", 0.1, "x")


class TestStubs:
    def test_echo(self):
        cfg = EndpointConfig(model_name="echo-0.9")
        assert complete("anything", cfg) == "0.9"

    def test_refuse(self):
        cfg = EndpointConfig(model_name="refuse")
        assert decode_probability(complete("x", cfg)).status == \
            "fallback_unknown"

    def test_garbage_has_no_number(self):
        cfg = EndpointConfig(model_name="garbage")
        assert decode_probability(complete("x", cfg)).status == "missing"

    def test_noise_deterministic_and_prompt_sensitive(self):
        cfg = EndpointConfig(model_name="noise-42")
        a = complete("prompt one", cfg)
        assert a == complete("prompt one", cfg)
        assert a != complete("prompt two", cfg)
        assert 0.0 <= float(a) <= 1.0
        other_seed = complete("prompt one",
                              EndpointConfig(model_name="noise-43"))
        assert a != other_seed

    def test_unknown_stub_rejected(self):
        with pytest.raises(errors.InvariantViolation):
            complete("x", EndpointConfig(model_name="mystery"))

    def test_batch_keyed_results(self):
        cfg = EndpointConfig(model_name="noise-1", max_in_flight=3)
        prompts = {f"s{i}": f"prompt {i}" for i in range(10)}
        results = complete_batch(prompts, cfg)
        assert set(results) == set(prompts)
        for sid, text in results.items():
            assert text == complete(prompts[sid], cfg)

    def test_batch_sends_each_prompt_once(self, monkeypatch):
        """The workers share one job iterator; with a thread switch every
        microsecond, no prompt is sent twice or skipped."""
        cfg = EndpointConfig(model_name="noise-1", max_in_flight=8)
        prompts = {f"s{i}": f"prompt {i}" for i in range(400)}
        sent = []
        monkeypatch.setattr(gateway, "complete", lambda prompt, cfg:
                            sent.append(prompt) or prompt.upper())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = complete_batch(prompts, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(sent) == sorted(prompts.values())
        assert results == {sid: p.upper() for sid, p in prompts.items()}

    def test_batch_surfaces_per_sample_errors(self):
        cfg = EndpointConfig(model_name="mystery")
        results = complete_batch({"a": "x"}, cfg)
        assert isinstance(results["a"], Exception)

    def test_embed_shape_and_determinism(self):
        cfg = EndpointConfig(model_name="hash-embed-16")
        vecs = embed(["alpha", "beta"], cfg)
        assert vecs.shape == (2, 16)
        again = embed(["alpha", "beta"], cfg)
        assert np.array_equal(vecs, again)
        assert not np.array_equal(vecs[0], vecs[1])
        assert np.all(np.abs(vecs) <= 1.0)

    def test_embed_empty_rejected(self):
        with pytest.raises(errors.InvariantViolation,
                           match="^no texts to embed$"):
            embed([], EndpointConfig(model_name="hash-embed-8"))

    def test_embed_requires_embedding_stub(self):
        with pytest.raises(errors.InvariantViolation):
            embed(["x"], EndpointConfig(model_name="echo-0.5"))

    @pytest.mark.parametrize("model", ["hash-embed-0", "hash-embed--5",
                                       "hash-embed-x", "hash-embed-"])
    def test_embed_rejects_bad_stub_dim(self, model):
        with pytest.raises(errors.InvariantViolation):
            embed(["x"], EndpointConfig(model_name=model))

    @pytest.mark.parametrize("dim", [1, 3, 5, 255, 256])
    def test_stub_embed_equals_per_value_loop(self, dim):
        texts = ["alpha", "", "Fièvre typhoïde, 伤寒", "alpha", "x" * 500]
        got = _stub_embed(texts, dim)
        want = np.array([per_value_stub_embedding(t, dim) for t in texts])
        assert got.shape == (len(texts), dim)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


    @pytest.mark.parametrize("dim", [1, 3, 4, 5, 33, 256])
    def test_stub_embed_equals_joined_blocks_form(self, dim):
        texts = ["alpha", "", "Fièvre typhoïde, 伤寒", "alpha", "x" * 500]
        got = _stub_embed(texts, dim)
        want = joined_blocks_stub_embed(texts, dim)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_stub_embed_holds_one_block_of_words(self):
        """The hash words are converted into the result one row at a time:
        the peak is the 62.5 MiB result plus one row's words, not the
        result plus every row's words."""
        texts = [f"code {i}" for i in range(2000)]
        tracemalloc.start()
        try:
            vectors = _stub_embed(texts, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vectors.nbytes == 2000 * 4096 * 8
        assert peak < 70e6


def joined_blocks_stub_embed(texts, dim):
    """``hash-embed-<dim>`` as first vectorised: every block kept, joined
    into one bytes object, then scaled into two new arrays."""
    n_blocks = -(-dim // 4)
    blocks = []
    for text in texts:
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        blocks.extend(hashlib.sha256(digest + counter.to_bytes(4, "big"))
                      .digest() for counter in range(n_blocks))
    words = np.frombuffer(b"".join(blocks), ">u8")
    return words.reshape(len(texts), 4 * n_blocks)[:, :dim] / 2**63 - 1.0


def per_value_stub_embedding(text, dim):
    """``hash-embed-<dim>`` of one text, one Python float at a time: the
    reference the vectorised stub embedder must equal bit for bit."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    vals = []
    counter = 0
    while len(vals) < dim:
        block = hashlib.sha256(digest + counter.to_bytes(4, "big")).digest()
        for i in range(0, len(block) - 7, 8):
            vals.append(int.from_bytes(block[i:i + 8], "big") / 2**63 - 1.0)
        counter += 1
    return vals[:dim]


def test_endpoint_defaults():
    cfg = EndpointConfig()
    assert cfg.temperature == 0.1
    assert cfg.top_k == 50
    assert cfg.max_new_tokens == 20
    with pytest.raises(errors.InvariantViolation):
        EndpointConfig(max_in_flight=0)
    EndpointConfig(max_in_flight=MAX_IN_FLIGHT)  # the bound itself holds
    with pytest.raises(errors.InvariantViolation):
        EndpointConfig(max_in_flight=MAX_IN_FLIGHT + 1)
    with pytest.raises(errors.InvariantViolation):
        EndpointConfig(temperature=-1.0)


@pytest.mark.parametrize("url", ["localhost:9", "127.0.0.1", "http://",
                                 "http:///v1", "ftp://host/v1", "http://h:x",
                                 "http://h:99999", "http://[::1", "",
                                 "http://h/a b", "http://h/v1\n",
                                 "http://h/\x7f"])
def test_base_url_must_be_http_url_with_host(url):
    with pytest.raises(errors.InvariantViolation, match="endpoint.base_url"):
        EndpointConfig(base_url=url)


@pytest.mark.parametrize("url", ["stub", "http://localhost:8000/v1",
                                 "https://api.example.com/v1",
                                 "http://[::1]:8080"])
def test_base_url_accepted(url):
    assert EndpointConfig(base_url=url).base_url == url


SLOW_S = 0.3  # how long a "slow" answer holds its body back


class _Handler(BaseHTTPRequestHandler):
    """Scripted chat-completions/embeddings endpoint for wire-format tests.

    A script entry is a status code or a fault: "drop" closes the
    connection before any response, "slow" holds a 200 body back for
    ``SLOW_S`` after its headers, "short" sends a 200 body shorter than its
    Content-Length. A 3xx carries ``redirect_to`` as its Location when that
    is set. A GET gets a 405.
    """

    script = []        # status codes or faults; last one repeats
    requests_seen = []  # (path, headers, JSON body, or None for a GET)
    embed_body = None  # raw 200 body for /embeddings; None: a vector per input
    chat_body = None   # raw 200 body for /chat/completions; None: "0.77"
    redirect_to = None  # Location of a 3xx; None: no Location
    retry_after = None  # Retry-After of a 4xx or 5xx; None: no header

    def do_GET(self):
        type(self).requests_seen.append((self.path, dict(self.headers), None))
        self.send_response(405)
        self.end_headers()

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append((self.path, dict(self.headers), body))
        answer = self.script[min(len(self.requests_seen) - 1,
                                 len(self.script) - 1)]
        if answer == "drop":
            return
        if answer not in (200, "slow", "short"):
            self.send_response(answer)
            if 300 <= answer < 400 and self.redirect_to:
                self.send_header("Location", self.redirect_to)
            if answer >= 400 and self.retry_after is not None:
                self.send_header("Retry-After", self.retry_after)
            self.end_headers()
            return
        if self.path.endswith("/embeddings"):
            blob = self.embed_body or json.dumps(
                {"data": [{"embedding": [0.1, 0.2]}
                          for _ in body["input"]]}).encode()
        else:
            blob = self.chat_body or json.dumps(
                {"choices": [{"message": {"content": "0.77"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        if answer == "slow":
            time.sleep(SLOW_S)
        try:
            self.wfile.write(blob[:-5] if answer == "short" else blob)
        except OSError:  # a client that timed out has closed the socket
            pass

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    # a short poll interval keeps shutdown() from waiting 0.5 s per test
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    _Handler.requests_seen = []
    _Handler.script = [200]
    _Handler.embed_body = None
    _Handler.chat_body = None
    _Handler.redirect_to = None
    _Handler.retry_after = None
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestHttpWireFormat:
    def test_chat_payload_and_auth(self, http_endpoint, monkeypatch):
        monkeypatch.setenv("EHRBENCH_API_KEY", "sk-test")
        cfg = EndpointConfig(base_url=http_endpoint, model_name="m1")
        assert complete("hello", cfg) == "0.77"
        path, headers, body = _Handler.requests_seen[0]
        assert path == "/chat/completions"
        assert headers["Authorization"] == "Bearer sk-test"
        assert body["model"] == "m1"
        assert body["messages"] == [{"role": "user", "content": "hello"}]
        assert body["temperature"] == 0.1
        assert body["top_k"] == 50
        assert body["max_tokens"] == 20

    def test_retry_on_server_error(self, http_endpoint):
        _Handler.script = [500, 429, 200]
        cfg = EndpointConfig(base_url=http_endpoint, model_name="m1",
                             max_retries=3, backoff_base=0.0)
        assert complete("x", cfg) == "0.77"
        assert len(_Handler.requests_seen) == 3

    def test_auth_failure_no_retry(self, http_endpoint):
        _Handler.script = [401]
        cfg = EndpointConfig(base_url=http_endpoint, model_name="m1",
                             max_retries=3, backoff_base=0.0)
        with pytest.raises(errors.AuthFailure):
            complete("x", cfg)
        assert len(_Handler.requests_seen) == 1

    def test_exhausted_retries_raise(self, http_endpoint):
        _Handler.script = [503]
        cfg = EndpointConfig(base_url=http_endpoint, model_name="m1",
                             max_retries=1, backoff_base=0.0)
        with pytest.raises(errors.EndpointUnreachable):
            complete("x", cfg)
        assert len(_Handler.requests_seen) == 2

    def test_unreachable_host(self):
        cfg = EndpointConfig(base_url="http://127.0.0.1:9", model_name="m1",
                             max_retries=0, timeout=1)
        with pytest.raises(errors.EndpointUnreachable):
            complete("x", cfg)

    @pytest.mark.parametrize("answer, error, message, n_requests", [
        ("drop", errors.EndpointUnreachable, None, 2),
        ("short", errors.EndpointUnreachable, None, 2),
        (307, errors.GatewayError, "HTTP 307", 1),  # no Location
        (403, errors.AuthFailure, "HTTP 403", 1),
    ], ids=lambda v: str(v) if isinstance(v, (int, str)) else None)
    def test_fault_maps_to_status(self, http_endpoint, answer, error,
                                  message, n_requests):
        """Each README endpoint-table row: the error class, and how many
        requests reach the server with one retry allowed."""
        _Handler.script = [answer]
        cfg = EndpointConfig(base_url=http_endpoint, model_name="m1",
                             max_retries=1, backoff_base=0.0, timeout=5)
        with pytest.raises(error, match=message) as exc:
            complete("x", cfg)
        assert type(exc.value) is error
        assert len(_Handler.requests_seen) == n_requests

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_not_followed(self, http_endpoint, monkeypatch, status):
        """A 3xx that names another server is a GatewayError after one
        request, and nothing, so no Authorization header, reaches that
        server."""

        class Elsewhere(_Handler):
            requests_seen = []

        other = HTTPServer(("127.0.0.1", 0), Elsewhere)
        threading.Thread(target=other.serve_forever, args=(0.05,),
                         daemon=True).start()
        try:
            monkeypatch.setenv("EHRBENCH_API_KEY", "sk-test")
            _Handler.script = [status]
            _Handler.redirect_to = (f"http://127.0.0.1:{other.server_port}"
                                    "/chat/completions")
            cfg = EndpointConfig(base_url=http_endpoint, model_name="m1",
                                 max_retries=1, backoff_base=0.0, timeout=5)
            with pytest.raises(errors.GatewayError,
                               match=f"HTTP {status}") as exc:
                complete("x", cfg)
            assert type(exc.value) is errors.GatewayError
        finally:
            other.shutdown()
            other.server_close()
        assert len(_Handler.requests_seen) == 1
        assert Elsewhere.requests_seen == []

    def test_slow_body_times_out(self, http_endpoint):
        _Handler.script = ["slow"]
        cfg = EndpointConfig(base_url=http_endpoint, model_name="m1",
                             max_retries=0, timeout=SLOW_S / 3)
        with pytest.raises(errors.EndpointUnreachable):
            complete("x", cfg)
        assert len(_Handler.requests_seen) == 1

    def test_embeddings_wire_format(self, http_endpoint):
        cfg = EndpointConfig(base_url=http_endpoint, model_name="emb")
        vecs = embed(["a", "b"], cfg)
        assert vecs.shape == (2, 2)
        path, _, body = _Handler.requests_seen[0]
        assert path == "/embeddings"
        assert body == {"model": "emb", "input": ["a", "b"]}


class TestRetryWait:
    """What ``_post_with_retries`` sleeps before each retry: a 429's or
    503's delay-seconds ``Retry-After`` up to the cap, else full jitter."""

    @pytest.fixture
    def waits(self, monkeypatch):
        """(sleeps, jitter bounds); each jitter draw returns its bound."""
        sleeps, bounds = [], []
        monkeypatch.setattr(time, "sleep", sleeps.append)

        def uniform(low, high):
            bounds.append((low, high))
            return high

        monkeypatch.setattr(random, "uniform", uniform)
        return sleeps, bounds

    def run(self, endpoint, script, retry_after, backoff_base=0.5):
        _Handler.script, _Handler.retry_after = script, retry_after
        cfg = EndpointConfig(base_url=endpoint, model_name="m1",
                             max_retries=len(script) - 1,
                             backoff_base=backoff_base)
        assert complete("x", cfg) == "0.77"
        assert len(_Handler.requests_seen) == len(script)

    @pytest.mark.parametrize("status", [429, 503])
    def test_delay_seconds_slept(self, http_endpoint, waits, status):
        self.run(http_endpoint, [status, 200], "2")
        assert waits == ([2], [])

    def test_huge_delay_capped(self, http_endpoint, waits):
        self.run(http_endpoint, [429, 200], "9" * 5000)
        assert waits == ([gateway.RETRY_WAIT_CAP], [])

    @pytest.mark.parametrize("value", ["Wed, 21 Oct 2015 07:28:00 GMT",
                                       "-1", "1.5", "", "\u00b2"])
    def test_other_values_fall_back_to_jitter(self, http_endpoint, waits,
                                              value):
        self.run(http_endpoint, [429, 200], value)
        assert waits == ([0.5], [(0, 0.5)])

    def test_server_error_jitter_within_bound(self, http_endpoint, waits):
        """A 500's Retry-After is not honoured; retry i draws from
        [0, backoff_base * 2**i]."""
        self.run(http_endpoint, [500, 500, 500, 200], "1")
        assert waits == ([0.5, 1.0, 2.0], [(0, 0.5), (0, 1.0), (0, 2.0)])

    def test_huge_backoff_capped(self, http_endpoint, monkeypatch):
        """An unpatched jitter draw from ``backoff_base`` 1e10 is held to
        the cap, so ``time.sleep`` gets no value it cannot take."""
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        _Handler.script = [500]
        cfg = EndpointConfig(base_url=http_endpoint, model_name="m1",
                             max_retries=2, backoff_base=1e10)
        with pytest.raises(errors.EndpointUnreachable, match="HTTP 500"):
            complete("x", cfg)
        assert len(sleeps) == 2
        assert all(0 <= s <= 60 for s in sleeps)

    def test_many_retries_do_not_overflow(self, http_endpoint, waits):
        """The jitter bound is doubled per retry and held to the cap, so
        retry 1,100 computes no 2**1100."""
        _Handler.script = [500]
        cfg = EndpointConfig(base_url=http_endpoint, model_name="m1",
                             max_retries=1100)
        with pytest.raises(errors.EndpointUnreachable, match="HTTP 500"):
            complete("x", cfg)
        sleeps, bounds = waits
        assert len(_Handler.requests_seen) == 1101
        assert bounds[:3] == [(0, 0.5), (0, 1.0), (0, 2.0)]
        assert bounds[-1] == (0, gateway.RETRY_WAIT_CAP)
        assert max(sleeps) == gateway.RETRY_WAIT_CAP


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 chat endpoint that keeps connections open, with Nagle on, and
    writes each response's headers and body separately, as two segments.

    With ``close_after`` it closes the connection after each response
    without a ``Connection: close`` header, as a server whose idle timeout
    has passed does.
    """

    protocol_version = "HTTP/1.1"
    close_after = False
    seen = []  # (client port, request target, headers) of each request

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).seen.append((self.client_address[1], self.path,
                                dict(self.headers)))
        blob = json.dumps(
            {"choices": [{"message": {"content": "0.77"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)
        self.close_connection = self.close_after

    def do_CONNECT(self):
        """Refuse every tunnel, after noting its target."""
        type(self).seen.append((self.client_address[1], self.path,
                                dict(self.headers)))
        self.send_response(502)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def keepalive_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    _KeepAliveHandler.seen = []
    _KeepAliveHandler.close_after = False
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def _connections():
    return len({port for port, _, _ in _KeepAliveHandler.seen})


@pytest.fixture
def proxy_env(monkeypatch):
    """No proxy variable set, and no lookup of ehrbench.invalid reaches a
    resolver: it fails at once, as a name that does not resolve."""
    real_getaddrinfo = socket.getaddrinfo

    def getaddrinfo(host, *args, **kwargs):
        if host == "ehrbench.invalid":
            raise socket.gaierror(socket.EAI_NONAME, "not known")
        return real_getaddrinfo(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
    for name in ("http_proxy", "https_proxy", "no_proxy", "HTTP_PROXY",
                 "HTTPS_PROXY", "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestKeptAliveConnections:
    @pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"),
                        reason="no TCP_QUICKACK on this platform")
    def test_one_connection_without_delayed_ack_stalls(self,
                                                       keepalive_endpoint):
        """Without quick ACKs each response's body would wait about 40 ms
        for the client's delayed ACK of its headers."""
        cfg = EndpointConfig(base_url=keepalive_endpoint, model_name="m1",
                             max_in_flight=1)
        prompts = {f"s{i}": f"prompt {i}" for i in range(30)}
        start = time.perf_counter()
        results = complete_batch(prompts, cfg)
        elapsed = time.perf_counter() - start
        assert set(results.values()) == {"0.77"}
        assert len(_KeepAliveHandler.seen) == 30
        assert _connections() == 1
        assert elapsed < 30 * 0.040 / 2

    def test_connection_closed_by_server_is_reopened(self, keepalive_endpoint,
                                                     monkeypatch):
        """A request on a connection the server closed while idle is sent
        again once on a new one, with no retry and no backoff."""
        _KeepAliveHandler.close_after = True
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        cfg = EndpointConfig(base_url=keepalive_endpoint, model_name="m1",
                             max_in_flight=1, max_retries=0, backoff_base=5)
        prompts = {f"s{i}": f"prompt {i}" for i in range(6)}
        assert complete_batch(prompts, cfg) == dict.fromkeys(prompts, "0.77")
        assert len(_KeepAliveHandler.seen) == 6
        assert _connections() == 6
        assert sleeps == []

    def test_at_most_one_connection_per_worker(self, keepalive_endpoint):
        cfg = EndpointConfig(base_url=keepalive_endpoint, model_name="m1",
                             max_in_flight=3)
        prompts = {f"s{i}": f"prompt {i}" for i in range(12)}
        assert complete_batch(prompts, cfg) == dict.fromkeys(prompts, "0.77")
        assert len(_KeepAliveHandler.seen) == 12
        assert _connections() <= 3

    def test_http_proxy_and_no_proxy(self, keepalive_endpoint, proxy_env):
        """Through HTTP_PROXY the request carries the absolute-form target
        and the proxy URL's credentials; NO_PROXY sends it straight to the
        host, which does not resolve."""
        proxy_env.setenv("HTTP_PROXY", keepalive_endpoint.replace(
            "//", "//u%40x:p@"))
        cfg = EndpointConfig(base_url="http://ehrbench.invalid/v1",
                             model_name="m1", max_retries=0)
        assert complete("x", cfg) == "0.77"
        [(_, target, headers)] = _KeepAliveHandler.seen
        assert target == "http://ehrbench.invalid/v1/chat/completions"
        assert headers["Host"] == "ehrbench.invalid"
        assert headers["Proxy-Authorization"] == "Basic dUB4OnA="  # u@x:p
        proxy_env.setenv("NO_PROXY", "ehrbench.invalid")
        with pytest.raises(errors.EndpointUnreachable):
            complete("x", cfg)
        assert len(_KeepAliveHandler.seen) == 1

    def test_https_proxy_tunnel(self, keepalive_endpoint, proxy_env):
        """An https endpoint behind HTTPS_PROXY is asked for with CONNECT,
        carrying the proxy URL's credentials; a refused tunnel is a
        connection error."""
        proxy_env.setenv("HTTPS_PROXY", keepalive_endpoint.replace(
            "//", "//u%40x:p@"))
        cfg = EndpointConfig(base_url="https://ehrbench.invalid/v1",
                             model_name="m1", max_retries=0)
        with pytest.raises(errors.EndpointUnreachable, match="502"):
            complete("x", cfg)
        [(_, target, headers)] = _KeepAliveHandler.seen
        assert target == "ehrbench.invalid:443"
        assert headers["Proxy-Authorization"] == "Basic dUB4OnA="


class _ChunkHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 embeddings endpoint that keeps connections open and answers
    413 to more than ``max_inputs`` texts. Text ``t<i>`` embeds as
    ``[i, -i]``, or ``[i, -i, 0]`` if it is in ``wide``. A request holding
    ``hold`` is answered after every other request has been; one holding
    ``fail`` gets a 500."""

    protocol_version = "HTTP/1.1"
    max_inputs = 3
    hold = None
    fail = None
    wide = ()
    lock = threading.Lock()
    seen = []      # (client port, inputs) of each request
    answered = []  # inputs of each 200, in the order they were sent
    others_answered = threading.Event()

    def do_POST(self):
        cls = type(self)
        inputs = json.loads(
            self.rfile.read(int(self.headers["Content-Length"])))["input"]
        with cls.lock:
            cls.seen.append((self.client_address[1], inputs))
        if len(inputs) > cls.max_inputs or cls.fail in inputs:
            self.send_response(413 if len(inputs) > cls.max_inputs else 500)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if cls.hold in inputs:
            cls.others_answered.wait(timeout=5)
        # noted before the client can see the answer, so no note from this
        # test reaches the next one
        with cls.lock:
            cls.answered.append(inputs)
            if len(cls.answered) == 3:
                cls.others_answered.set()
        blob = json.dumps({"data": [
            {"embedding": [float(t[1:]), -float(t[1:])]
             + ([0.0] if t in cls.wide else [])} for t in inputs]})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob.encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def chunk_endpoint(monkeypatch):
    """The endpoint above, with ``embed`` sending 3 texts per request."""
    monkeypatch.setattr(gateway, "EMBED_CHUNK", 3)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChunkHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    _ChunkHandler.seen, _ChunkHandler.answered = [], []
    _ChunkHandler.hold = _ChunkHandler.fail = None
    _ChunkHandler.wide = ()
    _ChunkHandler.others_answered = threading.Event()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


TEXTS = [f"t{i}" for i in range(10)]


class TestChunkedEmbeddings:
    def test_chunks_within_the_limit(self, chunk_endpoint):
        cfg = EndpointConfig(base_url=chunk_endpoint, model_name="emb")
        vecs = embed(TEXTS, cfg)
        assert vecs.tolist() == [[float(i), -float(i)] for i in range(10)]
        sizes = sorted(len(inputs) for _, inputs in _ChunkHandler.seen)
        assert sizes == [1, 3, 3, 3]
        assert sorted(t for _, inputs in _ChunkHandler.seen
                      for t in inputs) == sorted(TEXTS)

    def test_rows_in_input_order_when_first_chunk_answers_last(
            self, chunk_endpoint):
        _ChunkHandler.hold = "t0"
        cfg = EndpointConfig(base_url=chunk_endpoint, model_name="emb",
                             max_in_flight=4)
        vecs = embed(TEXTS, cfg)
        assert _ChunkHandler.answered[-1] == ["t0", "t1", "t2"]
        assert vecs.tolist() == [[float(i), -float(i)] for i in range(10)]

    @pytest.mark.parametrize("wide, message", [
        (("t3", "t4", "t5"), "embedding 3 has 3 values, the first has 2"),
        (("t4",), "embedding 4 has 3 values, the first has 2"),
    ])
    def test_rows_of_another_length(self, chunk_endpoint, wide, message):
        """Every row is as long as the first, across chunks and within
        one."""
        _ChunkHandler.wide = wide
        cfg = EndpointConfig(base_url=chunk_endpoint, model_name="emb")
        with pytest.raises(errors.GatewayError, match=message):
            embed(TEXTS, cfg)

    @pytest.mark.parametrize("max_in_flight", [1, 2])
    def test_at_most_max_in_flight_connections(self, chunk_endpoint,
                                               max_in_flight):
        cfg = EndpointConfig(base_url=chunk_endpoint, model_name="emb",
                             max_in_flight=max_in_flight)
        embed(TEXTS, cfg)
        assert len(_ChunkHandler.seen) == 4
        assert len({port for port, _ in _ChunkHandler.seen}) <= max_in_flight

    def test_failed_chunk_raises_and_eval_exits_2(self, chunk_endpoint,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        _ChunkHandler.fail = "t5"
        cfg = EndpointConfig(base_url=chunk_endpoint, model_name="emb",
                             max_retries=1, backoff_base=0.0, max_in_flight=1)
        with pytest.raises(errors.GatewayError, match="HTTP 500"):
            embed(TEXTS, cfg)
        # the first chunk once, the one holding t5 twice, and no chunk after
        # it: the command fails anyway
        assert [inputs for _, inputs in _ChunkHandler.seen] == [
            ["t0", "t1", "t2"], ["t3", "t4", "t5"], ["t3", "t4", "t5"]]
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("".join(f"t{2 * i}\tt{2 * i + 1}\t{i}\n"
                                 for i in range(5)))
        assert main(["eval-sentences", "--pairs", str(pairs),
                     "--base-url", chunk_endpoint, "--model", "emb",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: HTTP 500")
        assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_endpoint_embeddings_exit_2(http_endpoint, tmp_path,
                                                capsys):
    """Finite vectors whose squares overflow exit 2 naming the model,
    whether they come from a file or an endpoint."""
    _Handler.embed_body = (b'{"data": [{"embedding": [1e200, 0]},'
                           b' {"embedding": [0, 1e200]}]}')
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\tb\t1.0\nb\ta\t2.0\n")
    assert main(["eval-sentences", "--pairs", str(pairs),
                 "--base-url", http_endpoint, "--model", "emb",
                 "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: embeddings from model emb reach")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("status", [400, 404])
def test_client_error_status_not_retried(http_endpoint, tmp_path, capsys,
                                         status):
    """A 4xx other than 401/403/429 is a GatewayError after one request,
    and eval-sentences exits 2 on it."""
    _Handler.script = [status]
    cfg = EndpointConfig(base_url=http_endpoint, model_name="m1",
                         max_retries=3, backoff_base=0.0)
    with pytest.raises(errors.GatewayError, match=f"HTTP {status}") as exc:
        complete("x", cfg)
    assert not isinstance(exc.value, (errors.AuthFailure, errors.RateLimited,
                                      errors.EndpointUnreachable))
    assert len(_Handler.requests_seen) == 1
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\tb\t1.0\n")
    assert main(["eval-sentences", "--pairs", str(pairs),
                 "--base-url", http_endpoint, "--model", "emb",
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert len(_Handler.requests_seen) == 2


# 200 chat bodies that are not JSON or lack a string
# choices[0].message.content -> the error each raises
BAD_CHAT_BODIES = {
    "not_json": (b"<html>ok</html>", "HTTP 200 body is not JSON"),
    "null_content": (b'{"choices": [{"message": {"content": null}}]}',
                     "choices[0].message.content"),
    "no_choices": (b'{"object": "chat.completion"}',
                   "choices[0].message.content"),
}


@pytest.mark.parametrize("name", BAD_CHAT_BODIES)
def test_malformed_chat_response(http_endpoint, tmp_path, name):
    """complete raises; predict writes every sample as a missing error."""
    _Handler.chat_body, message = BAD_CHAT_BODIES[name]
    cfg = EndpointConfig(base_url=http_endpoint, model_name="m1")
    with pytest.raises(errors.GatewayError, match=re.escape(message)):
        complete("x", cfg)
    config_path, _ = write_run_config(
        tmp_path, endpoint_overrides={"base_url": http_endpoint})
    assert main(["predict", "--config", str(config_path),
                 "--max-error-frac", "1"]) == 0
    report = load_report(tmp_path)
    n_test = report["missing_rate"]["n_test"]
    assert n_test > 0
    assert report["n_errors"] == n_test
    assert report["status_counts"] == {"missing": n_test}
    with open(tmp_path / "out" / "transcript.jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == n_test
    assert all(message in line["raw_text"] for line in lines)


def test_failed_request_is_written_under_its_sample_id(http_endpoint,
                                                      tmp_path):
    """A failed request's ``raw_text`` is ``<error: HTTP 500>``; the line's
    ``sample_id`` names the sample, whose prompt its ``prompt_sha256``
    hashes."""
    _Handler.script = [500]
    config_path, _ = write_run_config(
        tmp_path, endpoint_overrides={"base_url": http_endpoint,
                                      "max_retries": 0})
    assert main(["predict", "--config", str(config_path),
                 "--max-error-frac", "1"]) == 0
    plan = RunPlan(str(config_path))
    prompts = {rec.patient_id: plan.render(rec).text
               for rec in plan.splits.test.records}
    with open(tmp_path / "out" / "transcript.jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    assert [line["sample_id"] for line in lines] == sorted(prompts)
    for line in lines:
        assert line["raw_text"] == "<error: HTTP 500>"
        assert line["prompt_sha256"] == hashlib.sha256(
            prompts[line["sample_id"]].encode("utf-8")).hexdigest()
    assert len(_Handler.requests_seen) == len(prompts)


# 200 bodies for a two-text embeddings request that are not two embeddings
BAD_EMBED_BODIES = {
    "not_json": b"<html>ok</html>",
    "no_data": b'{"object": "list"}',
    "no_embedding": b'{"data": [{"vector": [0.1]}, {"vector": [0.2]}]}',
    "data_not_list": b'{"data": 3}',
    "too_few": b'{"data": [{"embedding": [0.1, 0.2]}]}',
    "too_many": b'{"data": [{"embedding": [0.1]}, {"embedding": [0.2]},'
                b' {"embedding": [0.3]}]}',
    "nan": b'{"data": [{"embedding": [NaN, 0.2]}, {"embedding": [0.1, 0.2]}]}',
    "ragged": b'{"data": [{"embedding": [0.1]}, {"embedding": [0.1, 0.2]}]}',
    "empty": b'{"data": [{"embedding": []}, {"embedding": []}]}',
}


@pytest.mark.parametrize("name", BAD_EMBED_BODIES)
def test_malformed_embeddings_response(http_endpoint, tmp_path, capsys, name):
    """embed raises a harness error, and eval-sentences exits 2 on it."""
    _Handler.embed_body = BAD_EMBED_BODIES[name]
    cfg = EndpointConfig(base_url=http_endpoint, model_name="emb")
    with pytest.raises(errors.EhrBenchError):
        embed(["a", "b"], cfg)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\tb\t1.0\nb\ta\t2.0\n")
    assert main(["eval-sentences", "--pairs", str(pairs),
                 "--base-url", http_endpoint, "--model", "emb",
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


class TestErrorBudget:
    """Once more jobs have failed than the budget allows, no job starts, and
    each job not started is an error."""

    @staticmethod
    def every_third_fails(i):
        if i % 3 == 0:
            raise errors.GatewayError(f"job {i}")
        return i

    def test_jobs_within_the_budget_all_run(self):
        results = gateway._run(self.every_third_fails,
                               [(i,) for i in range(10)], 3, 0.4)
        assert [str(r) if isinstance(r, Exception) else r
                for r in results] == [
            "job 0", 1, 2, "job 3", 4, 5, "job 6", 7, 8, "job 9"]

    def test_no_job_starts_past_the_budget(self):
        results = gateway._run(self.every_third_fails,
                               [(i,) for i in range(10)], 1, 0.1)
        assert [str(r) for r in results[:4]] == ["job 0", "1", "2", "job 3"]
        assert all(isinstance(r, errors.GatewayError)
                   and str(r) == "not sent: 2 of 10 failed, more than the "
                                 "0.1 allowed"
                   for r in results[4:])

    def test_a_budget_of_0_29_lets_29_of_100_pass(self):
        """0.29 * 100 is 28.999999999999996, yet 29 failures of 100 are
        within 0.29 by the exit check's division: the 30th stops."""
        results = gateway._run(lambda i: 1 / 0, [(i,) for i in range(100)],
                               1, 0.29)
        assert sum(isinstance(r, ZeroDivisionError) for r in results) == 30
        assert str(results[30]).startswith("not sent: 30 of 100 ")

    def test_counts_hold_with_many_workers(self):
        """Eight workers and a thread switch every microsecond: the jobs
        sent are a prefix, at most one per worker past the budget, and the
        failure count loses no update."""
        def fail(i):
            raise errors.GatewayError(f"job {i}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = gateway._run(fail, [(i,) for i in range(400)], 8, 0.05)
        finally:
            sys.setswitchinterval(interval)
        sent = [r for r in results if not str(r).startswith("not sent")]
        assert 21 <= len(sent) <= 20 + 8
        assert [str(r) for r in sent] == [f"job {i}" for i in range(len(sent))]
        assert {str(r) for r in results[len(sent):]} == {
            f"not sent: {len(sent)} of 400 failed, more than the 0.05 "
            "allowed"}

    def test_predict_on_a_closed_port_sends_at_most_max_in_flight(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        sent = []
        send = gateway.complete

        def counted(prompt, cfg):
            sent.append(prompt)
            return send(prompt, cfg)

        monkeypatch.setattr(gateway, "complete", counted)
        config_path, _ = write_run_config(
            tmp_path, n_patients=60,
            endpoint_overrides={"base_url": "http://127.0.0.1:9",
                                "timeout": 1, "max_in_flight": 3})
        assert main(["predict", "--config", str(config_path)]) == 1
        assert "exceeds --max-error-frac" in capsys.readouterr().err
        report = load_report(tmp_path)
        n_test = report["missing_rate"]["n_test"]
        assert 0 < len(sent) <= 3 < n_test
        assert report["n_errors"] == n_test
        with open(tmp_path / "out" / "transcript.jsonl") as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == n_test
        assert sum("not sent" in line["raw_text"] for line in lines) \
            == n_test - len(sent)

    def test_budget_is_the_exit_checks_own(self, tmp_path, monkeypatch):
        """15 errors of 22 pass ``--max-error-frac`` 15 / 22, though
        floor(15 / 22 * 22) is 14: every sample is sent."""
        failing = []

        def first_15_fail(prompt, cfg):
            if len(failing) < 15:
                failing.append(prompt)
                raise errors.GatewayError("down")
            return "0.5"

        monkeypatch.setattr(gateway, "complete", first_15_fail)
        config_path, _ = write_run_config(
            tmp_path, n_patients=72, endpoint_overrides={"max_in_flight": 1})
        assert main(["predict", "--config", str(config_path),
                     "--max-error-frac", repr(15 / 22)]) == 0
        report = load_report(tmp_path)
        assert report["missing_rate"]["n_test"] == 22
        assert report["n_errors"] == 15
        assert report["status_counts"] == {"missing": 15, "decoded": 7}
