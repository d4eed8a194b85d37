"""Loopback fake chat-completions endpoint, run as its own process.

    python3 perfbench/server.py --delay-ms 2

Binds 127.0.0.1 on an ephemeral port and prints ``PORT <n>`` on stdout once
it listens. ``POST /v1/chat/completions`` sleeps the fixed delay, then
answers with ``answer_for(sha256(prompt))``, so a client can check every
answer from the prompt hash alone. ``GET /stats`` returns and resets the
counts of chat requests received and of connections that carried at least
one of them; the stats requests themselves are not counted. HTTP/1.1 with
Content-Length keeps a connection open for as long as the client does.
Stops on SIGTERM or SIGINT.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def answer_for(prompt_sha256_hex):
    """The deterministic reply text for a prompt, keyed by its sha256."""
    p = int(prompt_sha256_hex[:16], 16) / 2**64
    return f"The probability is {p:.4f}."


class _Counts:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0

    def take(self):
        with self.lock:
            snapshot = {"requests": self.requests,
                        "connections": self.connections}
            self.requests = self.connections = 0
        return snapshot


def make_handler(counts, delay_s):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        served_chat = False

        def _send_json(self, status, payload):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                self._send_json(404, {"error": "not found"})
                return
            self._send_json(200, counts.take())

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            if self.path != "/v1/chat/completions":
                self._send_json(404, {"error": "not found"})
                return
            with counts.lock:
                counts.requests += 1
                if not self.served_chat:
                    counts.connections += 1
            self.served_chat = True
            prompt = payload["messages"][-1]["content"]
            digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
            time.sleep(delay_s)
            self._send_json(200, {"choices": [
                {"message": {"role": "assistant",
                             "content": answer_for(digest)}}]})

        def log_message(self, format, *args):
            pass

    return Handler


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, default=2.0)
    args = parser.parse_args(argv)
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0), make_handler(_Counts(), args.delay_ms / 1000.0))
    server.daemon_threads = True

    def stop(signum, frame):
        threading.Thread(target=server.shutdown).start()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
