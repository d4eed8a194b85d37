"""Uniform client over chat-completion and embedding endpoints.

Offline stub models make the whole pipeline testable without a server:

  * ``echo-<p>``   -- always answers the literal probability ``<p>``
  * ``refuse``     -- always answers "I do not know"
  * ``noise-<s>``  -- a valid pseudo-random float, keyed by (seed, prompt)
  * ``garbage``    -- prose with no usable number
  * ``hash-embed-<dim>`` -- deterministic pseudo-embeddings of dimension dim

Wire format for real endpoints follows the de-facto open chat-completions
JSON shape (``messages`` array in, ``choices[0].message.content`` out) and
embeddings shape (``data[i].embedding``); see README for request examples.
Requests go over ``http.client``, one prompt or ``EMBED_CHUNK`` texts each;
``_run``'s threads keep one connection per endpoint (a lone ``complete``
opens its own), with quick ACKs and the proxies urllib would use.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

import numpy as np

from .errors import (
    AuthFailure,
    EmptyInput,
    EndpointUnreachable,
    GatewayError,
    InvariantViolation,
    RateLimited,
    as_float,
)

STUB_BASE_URL = "stub"
# texts per embeddings request: text-embeddings-inference's default limit
EMBED_CHUNK = 32
# the longest wait before a retry, in seconds: a Retry-After or a jitter draw
RETRY_WAIT_CAP = 60.0
# bytes of hash words the stub embedder holds at once, besides its result
_STUB_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str = STUB_BASE_URL
    model_name: str = "echo-0.5"
    api_key_env: str = "EHRBENCH_API_KEY"
    temperature: float = 0.1
    top_k: int = 50
    max_new_tokens: int = 20
    timeout: float = 30.0
    max_retries: int = 3
    max_in_flight: int = 4
    backoff_base: float = 0.5

    def __post_init__(self):
        # json.load reads the tokens NaN and Infinity as floats, and an
        # integer literal of any length as an int
        for key in ("temperature", "timeout", "backoff_base"):
            value = as_float(getattr(self, key))
            if not math.isfinite(value):
                raise InvariantViolation(
                    f"endpoint.{key} must be finite, got {value}")
        for key, least in (("max_in_flight", 1), ("max_new_tokens", 1),
                           ("temperature", 0), ("max_retries", 0),
                           ("backoff_base", 0)):
            if not getattr(self, key) >= least:
                raise InvariantViolation(f"endpoint.{key} must be >= {least}")
        if not self.timeout > 0:
            raise InvariantViolation("endpoint.timeout must be > 0")
        if not self.is_stub:
            try:
                url = urlsplit(self.base_url)
                # http.client refuses a URL with a space or control character
                valid = (url.scheme in ("http", "https") and url.hostname
                         and url.port != 0
                         and not re.search(r"[\x00-\x20\x7f]", self.base_url))
            except ValueError:  # a bad IPv6 host, or a port not in 0-65535
                valid = False
            if not valid:
                raise InvariantViolation(
                    'endpoint.base_url must be "stub" or an http:// or '
                    f"https:// URL with a host, got {self.base_url!r}")

    @property
    def is_stub(self):
        return self.base_url == STUB_BASE_URL

    @property
    def api_key(self):
        return os.environ.get(self.api_key_env, "")


@dataclass(frozen=True)
class PredictionOutcome:
    status: str  # "decoded" | "fallback_unknown" | "missing"
    probability: float | None
    raw_text: str

    def __post_init__(self):
        if self.status == "decoded":
            if self.probability is None or not 0.0 <= self.probability <= 1.0:
                raise InvariantViolation(
                    f"decoded probability {self.probability!r} outside [0, 1]"
                )
        elif self.status == "fallback_unknown":
            if self.probability != 0.5:
                raise InvariantViolation("fallback probability must be exactly 0.5")
        elif self.status == "missing":
            if self.probability is not None:
                raise InvariantViolation("missing outcome carries no probability")
        else:
            raise InvariantViolation(f"unknown status {self.status!r}")


@dataclass(frozen=True)
class MissingRateReport:
    n_test: int
    n_decoded: int

    def __post_init__(self):
        if self.n_decoded > self.n_test:
            raise InvariantViolation("n_decoded cannot exceed n_test")

    @property
    def missing_rate_percent(self):
        return (self.n_test - self.n_decoded) / self.n_test * 100.0


def stub_complete(prompt_text, model_name):
    """A stub chat model's answer; ``InvariantViolation`` for any other
    name."""
    if model_name.startswith("echo-"):
        return model_name[len("echo-"):]
    if model_name == "refuse":
        return "I do not know"
    if model_name == "garbage":
        return "The patient shows several risk factors but no conclusion follows."
    if model_name.startswith("noise-"):
        seed = model_name[len("noise-"):]
        digest = hashlib.sha256(
            seed.encode("utf-8") + b"\x00" + prompt_text.encode("utf-8")
        ).digest()
        p = int.from_bytes(digest[:8], "big") / 2**64
        return f"{p:.4f}"
    raise InvariantViolation(
        f"endpoint.model_name {model_name!r} is no stub chat model "
        "(echo-<p>, refuse, garbage, noise-<seed>)")


# .conns, on a _run worker thread: {EndpointConfig: _connect's triple}
_worker = threading.local()


def _run(fn, jobs, max_in_flight, max_error_frac=1.0):
    """[``fn(*job)`` or the ``Exception`` it raised, for each of the sized
    ``jobs``], in job order, from up to ``max_in_flight`` threads that pull
    jobs from one shared iterator and keep one connection per endpoint,
    closed when no job is left. Once failed / len(jobs) > ``max_error_frac``,
    no job starts; each job not started gives a ``GatewayError``."""
    results = [None] * len(jobs)
    pending = enumerate(jobs)
    started = failed = 0
    lock = threading.Lock()

    def work():
        nonlocal pending, started, failed
        _worker.conns = {}
        try:
            while True:
                with lock:
                    i, job = next(pending, (None, None))
                    started += job is not None
                if job is None:
                    return
                try:
                    results[i] = fn(*job)
                except Exception as exc:  # noqa: BLE001 - returned per job
                    results[i] = exc
                    with lock:
                        failed += 1
                        if failed / len(jobs) > max_error_frac:
                            pending = iter(())
        finally:
            for conn, _, _ in _worker.conns.values():
                conn.close()

    threads = [threading.Thread(target=work)
               for _ in range(min(max_in_flight, len(jobs)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for i in range(started, len(jobs)):
        results[i] = GatewayError(f"not sent: {failed} of {len(jobs)} failed, "
                                  f"more than the {max_error_frac} allowed")
    return results


def _connect(cfg):
    """(an unopened connection for cfg's endpoint, the prefix of its request
    targets, headers to add), through the proxy urllib would use.

    An https endpoint behind a proxy is reached through a CONNECT tunnel; an
    http one gets absolute-form targets (RFC 9112 section 3.2.2). Proxy
    credentials in the proxy URL go in a ``Proxy-Authorization`` header.
    """
    import base64
    from http.client import HTTPConnection, HTTPSConnection
    from urllib.parse import unquote
    from urllib.request import getproxies, proxy_bypass

    url = urlsplit(cfg.base_url.rstrip("/"))
    conn_class = HTTPSConnection if url.scheme == "https" else HTTPConnection
    origin_form = url._replace(scheme="", netloc="").geturl()
    proxy = getproxies().get(url.scheme)
    if not proxy or proxy_bypass(url.netloc):
        return (conn_class(url.hostname, url.port, timeout=cfg.timeout),
                origin_form, {})
    proxy = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    auth = {}
    if proxy.username is not None:
        user_pass = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
            user_pass.encode()).decode("ascii")
    conn = conn_class(proxy.hostname, proxy.port, timeout=cfg.timeout)
    if url.scheme == "https":
        conn.set_tunnel(url.hostname, url.port, headers=auth)
        return conn, origin_form, {}
    return conn, url.geturl(), auth


def _exchange(conn, target, body, headers):
    """POST ``body`` over ``conn``; return (status, response body, its
    ``Retry-After`` header or None).

    A kept-alive connection that fails before any response byte (the server
    closed it while idle) is reopened and the request sent once more. After
    any other failure the connection is closed, so the next use reopens it.
    """
    import socket

    reused = conn.sock is not None
    while True:
        resp = None
        try:
            conn.request("POST", target, body, headers)
            # a server with Nagle on holds a response's body segment until
            # its header segment is ACKed: ACK at once, not after the
            # delayed-ACK timer (about 40 ms)
            if hasattr(socket, "TCP_QUICKACK"):
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            resp = conn.getresponse()
            return resp.status, resp.read(), resp.getheader("Retry-After")
        except BaseException as exc:
            conn.close()
            if not (reused and resp is None and isinstance(exc, ConnectionError)):
                raise
            reused = False


def _post_with_retries(cfg, path, payload):
    """POST ``payload`` to ``cfg.base_url + path``; return a 2xx JSON body.

    Sends over the ``_run`` worker's kept-alive connection to the endpoint
    (see ``_exchange``); a call from any other thread opens a connection for
    this call only. 401/403 raise ``AuthFailure``. 429, 5xx, connection
    errors and timeouts are retried ``cfg.max_retries`` times. Before retry
    ``attempt`` (from 0) it sleeps the delay-seconds of a 429's or 503's
    ``Retry-After``; otherwise (an HTTP-date too) a uniform draw from
    [0, ``backoff_base * 2**attempt``], the "full jitter" backoff. Either
    wait is at most ``RETRY_WAIT_CAP``. Any other status (a 3xx too:
    http.client follows no redirect), and a 2xx body that is not JSON,
    raise ``GatewayError``.
    """
    from http.client import HTTPException

    headers = {"Content-Type": "application/json"}
    if cfg.api_key:
        headers["Authorization"] = f"Bearer {cfg.api_key}"
    body = json.dumps(payload).encode()
    lone = getattr(_worker, "conns", None) is None
    conns = {} if lone else _worker.conns
    if cfg not in conns:
        conns[cfg] = _connect(cfg)
    conn, prefix, proxy_headers = conns[cfg]
    headers.update(proxy_headers)
    jitter = min(cfg.backoff_base, RETRY_WAIT_CAP)  # doubled per retry
    try:
        for attempt in range(cfg.max_retries + 1):
            wait = None
            try:
                status, data, retry_after = _exchange(conn, prefix + path,
                                                      body, headers)
            except (OSError, HTTPException) as exc:
                last_error = EndpointUnreachable(str(exc))
            else:
                if 200 <= status < 300:
                    try:
                        return json.loads(data)
                    except ValueError:
                        raise GatewayError(
                            f"HTTP {status} body is not JSON") from None
                if status != 429 and status < 500:
                    error = AuthFailure if status in (401, 403) else GatewayError
                    raise error(f"HTTP {status}")
                error = RateLimited if status == 429 else EndpointUnreachable
                last_error = error(f"HTTP {status}")
                # delay-seconds is digits only (RFC 9110 section 10.2.3)
                if status in (429, 503) and re.fullmatch(
                        r"[0-9]+", (retry_after or "").strip()):
                    wait = min(float(retry_after), RETRY_WAIT_CAP)
            if attempt < cfg.max_retries:
                if wait is None:
                    wait = random.uniform(0, jitter)
                jitter = min(2 * jitter, RETRY_WAIT_CAP)
                time.sleep(wait)
    finally:
        if lone:
            conn.close()
    raise last_error


def complete(text, cfg):
    """One chat completion of ``text``; returns the raw response text.

    A body without a string ``choices[0].message.content`` raises
    ``GatewayError``.
    """
    if cfg.is_stub:
        return stub_complete(text, cfg.model_name)
    payload = {
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": text}],
        "temperature": cfg.temperature,
        "top_k": cfg.top_k,
        "max_tokens": cfg.max_new_tokens,
    }
    body = _post_with_retries(cfg, "/chat/completions", payload)
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        content = None
    if not isinstance(content, str):
        raise GatewayError('chat response lacks a string '
                           '"choices[0].message.content"')
    return content


def complete_batch(prompts, cfg, max_error_frac=1.0):
    """{key: raw_text or GatewayError} for {key: prompt text}, one ``_run``
    job per text; past ``max_error_frac`` of them failed, no text is sent."""
    results = _run(lambda _, text: complete(text, cfg), prompts.items(),
                   cfg.max_in_flight, max_error_frac)
    return dict(zip(prompts, results))


def _stub_embed(texts, dim):
    n_blocks = -(-dim // 4)  # a sha256 block holds four 64-bit words
    counters = [counter.to_bytes(4, "big") for counter in range(n_blocks)]
    row_bytes = 32 * n_blocks
    step = max(1, _STUB_BLOCK_BYTES // row_bytes)  # rows per block
    buf = bytearray(min(len(texts), step) * row_bytes)  # reused per block
    vectors = np.empty((len(texts), dim))
    for start in range(0, len(texts), step):
        rows = texts[start:start + step]
        for i, text in enumerate(rows):
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            buf[i * row_bytes:(i + 1) * row_bytes] = b"".join(
                [hashlib.sha256(digest + c).digest() for c in counters])
        words = np.frombuffer(buf, ">u8", count=len(rows) * 4 * n_blocks)
        vectors[start:start + len(rows)] = words.reshape(len(rows), -1)[:, :dim]
    # expand deterministically to dim floats in [-1, 1]; dividing by 2**63
    # is exact scaling, so each value is the correctly rounded word's
    vectors /= 2**63
    vectors -= 1.0
    return vectors


def embedding_row(value, dim=None):
    """A JSON value as an embedding: a non-empty list of finite numbers,
    ``dim`` long if given, returned as a float64 row. ``ValueError`` says
    why a value is not one."""
    arr = None
    if isinstance(value, list):
        try:
            arr = np.asarray(value)
        except ValueError:  # nested lists of different lengths
            pass
    if arr is None or not (arr.ndim == 1 and arr.size > 0
                           and arr.dtype.kind in "iuf"
                           and np.isfinite(arr).all()):
        raise ValueError("must be a non-empty list of finite numbers")
    if dim is not None and arr.size != dim:
        raise ValueError(f"has {arr.size} values, the first has {dim}")
    return arr.astype(float, copy=False)


def embed(texts, cfg):
    """Embed texts; one row per input, row order = input order. A response
    whose vectors fail ``embedding_row`` raises ``GatewayError``."""
    if not texts:
        raise EmptyInput("no texts to embed")
    if cfg.is_stub:
        dim = cfg.model_name.removeprefix("hash-embed-")
        if dim == cfg.model_name or not dim.isdecimal() or int(dim) < 1:
            raise InvariantViolation(
                "stub embedder must be hash-embed-<dim> with dim >= 1, "
                f"got {cfg.model_name!r}")
        return _stub_embed(texts, int(dim))
    chunks = [(start, texts[start:start + EMBED_CHUNK], cfg)
              for start in range(0, len(texts), EMBED_CHUNK)]
    blocks = _run(_embed_chunk, chunks, cfg.max_in_flight, max_error_frac=0.0)
    for (start, _, _), block in zip(chunks, blocks):
        if isinstance(block, Exception):
            raise block
        if block.shape[1] != blocks[0].shape[1]:
            raise GatewayError(f"embedding {start} has {block.shape[1]} "
                               f"values, the first has {blocks[0].shape[1]}")
    return np.concatenate(blocks)


def _embed_chunk(start, texts, cfg):
    """One request's rows for ``texts``, ``embed``'s input from ``start``."""
    payload = {"model": cfg.model_name, "input": list(texts)}
    body = _post_with_retries(cfg, "/embeddings", payload)
    try:
        vectors = [item["embedding"] for item in body["data"]]
    except (KeyError, TypeError):
        raise GatewayError('embeddings response lacks "data" with an '
                           '"embedding" per item') from None
    if len(vectors) != len(texts):
        raise GatewayError(f"{len(vectors)} embeddings for {len(texts)} texts")
    rows = []
    for i, vec in enumerate(vectors):
        try:
            rows.append(embedding_row(vec, rows[0].size if rows else None))
        except ValueError as exc:
            raise GatewayError(f"embedding {start + i} {exc}") from None
    return np.stack(rows)


_REFUSAL = re.compile(r"i\s+do\s+not\s+know", re.IGNORECASE)
_NUMBER = re.compile(
    r"(-?)((?:\d+(?:\.\d+)?|\.\d+)(?:[eE][-+]?\d+)?)\s*(%?)")


def decode_probability(raw_text):
    """Decode a free-text response into a PredictionOutcome.

    Refusals ("I do not know") map to the 0.5 fallback. Otherwise the first
    numeric literal whose value lies in [0, 1] wins, an exponent ("1e-3")
    included; "NN%" counts as NN/100.
    Out-of-range numbers are skipped, so "85" alone decodes to nothing.
    """
    if _REFUSAL.search(raw_text):
        return PredictionOutcome("fallback_unknown", 0.5, raw_text)
    for match in _NUMBER.finditer(raw_text):
        if match.group(1):
            continue  # negative numbers are never valid probabilities
        value = float(match.group(2))
        if match.group(3):
            value /= 100.0
        if 0.0 <= value <= 1.0:
            return PredictionOutcome("decoded", value, raw_text)
    return PredictionOutcome("missing", None, raw_text)


def missing_rate(outcomes, count_unknown_as_missing=False):
    """Missing-rate report over decoded outcomes.

    Refusal fallbacks yield a usable 0.5, so by default they count as
    decoded; flip count_unknown_as_missing to treat them as missing.
    """
    if not outcomes:
        raise EmptyInput("no outcomes")
    decoded_statuses = {"decoded"}
    if not count_unknown_as_missing:
        decoded_statuses.add("fallback_unknown")
    n_decoded = sum(1 for o in outcomes if o.status in decoded_statuses)
    return MissingRateReport(n_test=len(outcomes), n_decoded=n_decoded)
