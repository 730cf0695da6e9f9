"""Wire protocol and typed request/answer model for the tile advisor.

The advisor speaks newline-delimited JSON (JSONL) over a unix socket or
stdio: one request object per line in, one response object per line
out. Requests and responses carry a client-chosen ``id`` so responses
can be matched under pipelining; ordering is not guaranteed.

Request::

    {"v": 1, "id": 7, "op": "ask", "kernel": "JACOBI", "n": 300,
     "strategy": "GcdPad", "deadline_s": 0.5}

``op`` is ``ask`` (the advisor query), ``status`` (health/readiness
snapshot) or ``ping``. Responses::

    {"v": 1, "id": 7, "ok": true, "answer": {..., "provenance": "exact",
     "degraded": false, "reason": null, "latency_ms": 3.1}}
    {"v": 1, "id": 8, "ok": false, "error": {"code": "overloaded",
     "message": "...", "retry_after_s": 0.8}}

Provenance tiers, best to worst:

* ``exact`` — an exactly simulated point (from the store or a fresh
  simulation that finished within the deadline). Untiled points may
  have had steady-state K planes extrapolated in closed form; their
  miss counts are bit-identical, so they are exact too.
* ``analytic`` — the paper's capacity miss model; always paired with
  ``degraded: true`` and a ``reason`` (``deadline``, ``breaker_open``,
  ``quarantined``, ``budget``, ``draining``, ``cold``).

Error codes: ``overloaded`` (typed shed, carries ``retry_after_s``),
``bad_request`` (malformed/invalid query), ``internal`` (unexpected
server-side failure; the connection stays usable).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["PROTOCOL_VERSION", "PROVENANCE_TIERS", "AdvisorQuery",
           "AdvisorAnswer", "parse_request", "ok_response",
           "error_response", "provenance_of", "encode", "decode"]

PROTOCOL_VERSION = 1

#: Best-to-worst answer quality; every answer is labeled with one.
PROVENANCE_TIERS = ("exact", "analytic")

#: Queries may not ask for deadlines beyond this: the service exists to
#: answer interactively, and an unbounded wait is a resource leak.
MAX_DEADLINE_S = 300.0

_OPS = ("ask", "status", "ping")


def provenance_of(point) -> str:
    """The provenance tier of a :class:`PointResult`-shaped object."""
    return "analytic" if point.degraded else "exact"


@dataclass(frozen=True)
class AdvisorQuery:
    """One validated advisor question: best tile/pad for this point."""

    kernel: str
    n: int
    strategy: str = "GcdPad"
    deadline_s: float | None = None
    qid: object = None

    @property
    def key(self) -> tuple:
        """Coalescing/store identity: queries with equal keys share work."""
        return (self.kernel, self.strategy, self.n)

    @classmethod
    def from_payload(cls, obj: dict) -> "AdvisorQuery":
        """Build and validate a query from a decoded request object.

        Raises :class:`~repro.errors.ConfigurationError` on anything
        malformed — the server maps that to a ``bad_request`` response,
        never a dropped connection.
        """
        from repro.core.selector import STRATEGIES
        from repro.experiments.runner import _STENCILS

        kernel = obj.get("kernel")
        if not isinstance(kernel, str) or kernel not in _STENCILS:
            raise ConfigurationError(
                f"unknown kernel {kernel!r}; valid: {sorted(_STENCILS)}")
        strategy = obj.get("strategy", "GcdPad")
        if not isinstance(strategy, str) or strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {strategy!r}; "
                f"valid: {', '.join(sorted(STRATEGIES))}")
        n = obj.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
            raise ConfigurationError(
                f"n must be a positive integer, got {n!r}")
        deadline = obj.get("deadline_s")
        if deadline is not None:
            if isinstance(deadline, bool) \
                    or not isinstance(deadline, (int, float)) \
                    or not 0 < deadline <= MAX_DEADLINE_S:
                raise ConfigurationError(
                    f"deadline_s must be in (0, {MAX_DEADLINE_S:g}] "
                    f"seconds, got {deadline!r}")
            deadline = float(deadline)
        return cls(kernel=kernel, n=n, strategy=strategy,
                   deadline_s=deadline, qid=obj.get("id"))

    def to_payload(self) -> dict:
        body: dict = {"v": PROTOCOL_VERSION, "op": "ask",
                      "kernel": self.kernel, "strategy": self.strategy,
                      "n": self.n}
        if self.deadline_s is not None:
            body["deadline_s"] = self.deadline_s
        if self.qid is not None:
            body["id"] = self.qid
        return body


@dataclass(frozen=True)
class AdvisorAnswer:
    """One labeled answer: the recommendation plus its provenance."""

    kernel: str
    strategy: str
    n: int
    nk: int
    tile: tuple | None
    di_p: int
    dj_p: int
    l1_rate: float
    l2_rate: float
    mflops: float
    #: exact | analytic — see :data:`PROVENANCE_TIERS`.
    provenance: str
    #: True iff the answer fell back to the analytic model.
    degraded: bool
    #: Why the answer is degraded (None for exact).
    reason: str | None
    #: Where the service found it: store | simulated | analytic.
    source: str
    latency_ms: float

    @classmethod
    def from_point(cls, point, *, source: str, latency_s: float,
                   reason: str | None = None) -> "AdvisorAnswer":
        tier = provenance_of(point)
        return cls(kernel=point.kernel, strategy=point.strategy,
                   n=point.n, nk=point.nk,
                   tile=tuple(point.tile) if point.tile else None,
                   di_p=point.di_p, dj_p=point.dj_p,
                   l1_rate=point.l1_rate, l2_rate=point.l2_rate,
                   mflops=point.mflops, provenance=tier,
                   degraded=point.degraded,
                   reason=reason if point.degraded else None,
                   source=source,
                   latency_ms=round(1000.0 * latency_s, 3))

    def to_payload(self) -> dict:
        return {"kernel": self.kernel, "strategy": self.strategy,
                "n": self.n, "nk": self.nk,
                "tile": list(self.tile) if self.tile else None,
                "di_p": self.di_p, "dj_p": self.dj_p,
                "l1_rate": self.l1_rate, "l2_rate": self.l2_rate,
                "mflops": self.mflops, "provenance": self.provenance,
                "degraded": self.degraded, "reason": self.reason,
                "source": self.source, "latency_ms": self.latency_ms}

    @classmethod
    def from_payload(cls, obj: dict) -> "AdvisorAnswer":
        tile = obj.get("tile")
        return cls(kernel=obj["kernel"], strategy=obj["strategy"],
                   n=obj["n"], nk=obj["nk"],
                   tile=tuple(tile) if tile else None,
                   di_p=obj["di_p"], dj_p=obj["dj_p"],
                   l1_rate=obj["l1_rate"], l2_rate=obj["l2_rate"],
                   mflops=obj["mflops"], provenance=obj["provenance"],
                   degraded=obj["degraded"], reason=obj.get("reason"),
                   source=obj.get("source", "?"),
                   latency_ms=obj.get("latency_ms", 0.0))


# ----------------------------------------------------------------------
# line-level encode/decode
# ----------------------------------------------------------------------

def encode(obj: dict) -> bytes:
    """One protocol object as one JSONL line (bytes, newline included)."""
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one line into a protocol object; raises ConfigurationError."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ConfigurationError(f"request is not valid JSON: {exc}") \
            from None
    if not isinstance(obj, dict):
        raise ConfigurationError(
            f"request must be a JSON object, got {type(obj).__name__}")
    return obj


def parse_request(line: bytes | str) -> dict:
    """Decode one request line and validate its envelope (v, op)."""
    obj = decode(line)
    v = obj.get("v", PROTOCOL_VERSION)
    if v != PROTOCOL_VERSION:
        raise ConfigurationError(
            f"unsupported protocol version {v!r} "
            f"(this server speaks v{PROTOCOL_VERSION})")
    op = obj.get("op", "ask")
    if op not in _OPS:
        raise ConfigurationError(
            f"unknown op {op!r}; valid: {', '.join(_OPS)}")
    obj["op"] = op
    return obj


def ok_response(qid, answer: "AdvisorAnswer | dict") -> dict:
    body = answer.to_payload() if isinstance(answer, AdvisorAnswer) \
        else answer
    return {"v": PROTOCOL_VERSION, "id": qid, "ok": True, "answer": body}


def error_response(qid, code: str, message: str, *,
                   retry_after_s: float | None = None) -> dict:
    err: dict = {"code": code, "message": message}
    if retry_after_s is not None:
        err["retry_after_s"] = round(retry_after_s, 3)
    return {"v": PROTOCOL_VERSION, "id": qid, "ok": False, "error": err}
