"""Deterministic chat-completions stub for the ``llm-stub-500`` workload.

Serves ``POST /v1/chat/completions`` on 127.0.0.1 and answers from the prompt
text alone:

* topology prompt: delete the neighbour sharing the most tokens with the
  target, add the candidate sharing the fewest (ties to the lower id);
* text prompt: use as keyword the most frequent influencer token the target
  lacks, keep the first half of the target's distinct tokens and append the
  keyword plus up to two more influencer tokens.

A fixed, hash-selected share of first asks gets a reply with no JSON in it,
so the client's corrective re-prompt path runs; re-prompts are always
answered. Every reply waits a fixed modelled latency first, and is written in
one ``send`` so a keep-alive client never stalls on delayed ACK.

``GET /stats`` returns ``{"requests": N, "service_s": S}``: completions
served and the summed time from reading a request to sending its reply.

Run: ``python3 perfbench/stub.py``; the bound port is printed as the first
line of standard output.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LATENCY_S = 0.020  # modelled service time of one completion
MALFORMED_SHARE = 0.125  # share of first asks answered without JSON
TOKEN_RE = re.compile(r"[0-9a-z]+")
NODE_LINE_RE = re.compile(r"^- node (\d+): (.*)$")
REPROMPT_MARK = "Your previous reply could not be used"


def tokens(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


def _section(lines: list[str], header: str) -> list[tuple[int, str]]:
    """``- node i: text`` lines following ``header`` up to the next blank line."""
    out = []
    start = lines.index(header) + 1
    for line in lines[start:]:
        match = NODE_LINE_RE.match(line)
        if not match:
            break
        out.append((int(match.group(1)), match.group(2)))
    return out


def topology_answer(prompt: str) -> dict:
    lines = prompt.splitlines()
    target = set(tokens(lines[0].partition("Target node:")[2]))
    neighbors = _section(lines, "Neighboring set:")
    candidates = _section(lines, "Candidate List:")

    def shared(text: str) -> int:
        return len(target & set(tokens(text)))

    delete = min(neighbors, key=lambda n: (-shared(n[1]), n[0]))[0] if neighbors else None
    add = min(candidates, key=lambda c: (shared(c[1]), c[0]))[0]
    return {"delete_id": delete, "add_id": add, "rationale": "token overlap"}


def _titled(prompt: str, marker: str, end: str) -> str:
    start = prompt.index(marker) + len(marker)
    return prompt[start : prompt.index(end, start)]


def text_answer(prompt: str) -> dict:
    influencer = tokens(_titled(prompt, "Given the target node titled ", ", identify"))
    target = tokens(_titled(prompt, "Given the paper P1 titled ", ", your task"))
    distinct = list(dict.fromkeys(target))
    counts = Counter(influencer)
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    lacking = [t for t in ranked if t not in set(target)]
    keyword = (lacking or ranked)[0]
    extras = [t for t in lacking if t != keyword][:2]
    kept = distinct[: (len(distinct) + 1) // 2]
    new_text = " ".join(dict.fromkeys(kept + [keyword] + extras))
    return {"keyword": keyword, "new_text": new_text, "rationale": "influencer keyword"}


def answer(prompt: str) -> str:
    """Reply content for one prompt; deterministic in the prompt text."""
    first_ask = REPROMPT_MARK not in prompt
    digest = hashlib.sha256(prompt.encode()).digest()
    if first_ask and int.from_bytes(digest[:8], "big") < MALFORMED_SHARE * 2**64:
        return "I would rather describe the graph in prose."
    if prompt.startswith("Target node:"):
        return json.dumps(topology_answer(prompt))
    return json.dumps(text_answer(prompt))


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.service_s = 0.0

    def add(self, seconds: float) -> None:
        with self.lock:
            self.requests += 1
            self.service_s += seconds

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "service_s": self.service_s}


def make_handler(stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _send(self, status: int, body: bytes) -> None:
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            self.wfile.write(head + body)  # one send: no delayed-ACK stall

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, b"{}")
                return
            self._send(200, json.dumps(stats.snapshot()).encode())

        def do_POST(self):
            started = time.perf_counter()
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if not self.path.endswith("/chat/completions"):
                self._send(404, b"{}")
                return
            content = answer(payload["messages"][-1]["content"])
            body = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": content}}]}
            ).encode()
            time.sleep(LATENCY_S)
            self._send(200, body)
            stats.add(time.perf_counter() - started)

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Stats()))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
