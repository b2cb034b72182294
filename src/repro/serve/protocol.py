"""The ``artc-serve-v1`` wire protocol.

Requests and responses are single JSON objects.  The native framing is
JSON-lines: one object per ``\\n``-terminated line, responses tagged
with the request's ``id`` and written in completion order (a client
may pipeline requests on one connection).  The same objects travel
over a minimal HTTP/1.1 view -- ``POST /api`` with the request as the
body, or ``GET /metrics`` etc. -- which the server detects by sniffing
the first line of a connection, so one listening socket serves both.

A request::

    {"kind": "replay", "id": 7, "tenant": "ci",
     "timeout": 30.0, "params": {...}}

``kind`` is required.  ``params`` defaults to ``{}``; ``tenant`` to
``"anon"`` (quota accounting); ``id`` is echoed back verbatim;
``timeout`` (seconds, server-enforced) is optional.

A response envelope::

    {"v": "artc-serve-v1", "id": 7, "ok": true, "status": 200,
     "result": {...}, "coalesced": false, "cached": true,
     "shard": 2, "elapsed_ms": 12.3}

or, on failure::

    {"v": "artc-serve-v1", "id": 7, "ok": false, "status": 429,
     "error": {"type": "quota-exceeded", "message": "..."}}

Status codes borrow HTTP semantics (400 bad request, 404 unknown
name, 429 quota, 500 worker fault, 503 shutting down, 504 timeout) so
the HTTP view can reuse them verbatim.

Coalescing keys: :func:`request_key` hashes ``(kind, params)`` -- and
nothing else, so two tenants asking for the same cell share one
execution -- with the same canonical-JSON recipe
:func:`repro.bench.parallel.cell_key` uses for the on-disk result
cache.
"""

import hashlib
import json

from repro.bench.request import KINDS

#: Protocol identifier, echoed in every response envelope.
PROTOCOL = "artc-serve-v1"

# -- status codes (HTTP semantics) -------------------------------------

OK = 200
BAD_REQUEST = 400
NOT_FOUND = 404
QUOTA_EXCEEDED = 429
WORKER_ERROR = 500
UNAVAILABLE = 503
TIMEOUT = 504

REASONS = {
    OK: "OK",
    BAD_REQUEST: "Bad Request",
    NOT_FOUND: "Not Found",
    QUOTA_EXCEEDED: "Too Many Requests",
    WORKER_ERROR: "Internal Server Error",
    UNAVAILABLE: "Service Unavailable",
    TIMEOUT: "Gateway Timeout",
}


class ProtocolError(ValueError):
    """A malformed request; ``status`` is the response code to send."""

    def __init__(self, message, status=BAD_REQUEST):
        ValueError.__init__(self, message)
        self.status = status


def normalize_request(obj):
    """Validate and canonicalize one decoded request object.

    Returns ``{"kind", "id", "tenant", "timeout", "params"}`` with
    defaults filled in; raises :class:`ProtocolError` on anything the
    server should 400 rather than crash on.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object, not %s"
                            % type(obj).__name__)
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise ProtocolError("request needs a string 'kind'")
    if kind not in KINDS:
        raise ProtocolError(
            "unknown kind %r; choose from: %s" % (kind, ", ".join(KINDS)),
            status=NOT_FOUND,
        )
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be an object")
    tenant = obj.get("tenant", "anon")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("'tenant' must be a non-empty string")
    timeout = obj.get("timeout")
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            raise ProtocolError("'timeout' must be a positive number")
        timeout = float(timeout)
    return {
        "kind": kind,
        "id": obj.get("id"),
        "tenant": tenant,
        "timeout": timeout,
        "params": params,
    }


def request_key(request):
    """Coalescing/sharding key: a content hash of ``(kind, params)``.

    Tenant, id, and timeout are deliberately excluded -- they describe
    the *requester*, not the work, and identical work must coalesce.
    """
    payload = json.dumps(
        [PROTOCOL, request["kind"], request["params"]],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- response envelopes ------------------------------------------------


def ok_response(request_id, result, **extra):
    envelope = {
        "v": PROTOCOL,
        "id": request_id,
        "ok": True,
        "status": OK,
        "result": result,
    }
    envelope.update(extra)
    return envelope


def error_response(request_id, status, error_type, message, **extra):
    envelope = {
        "v": PROTOCOL,
        "id": request_id,
        "ok": False,
        "status": int(status),
        "error": {"type": error_type, "message": message},
    }
    envelope.update(extra)
    return envelope


# -- JSON-lines framing ------------------------------------------------


def encode_line(obj):
    """One wire frame: compact JSON + newline, as bytes."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def decode_line(data):
    """Decode one frame; raises :class:`ProtocolError` on junk."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("undecodable request line: %s" % exc)


# -- the HTTP view -----------------------------------------------------

_HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ", b"OPTIONS ")


def looks_like_http(first_line):
    """Whether a connection's first line opens an HTTP/1.x request."""
    return first_line.startswith(_HTTP_METHODS) and b"HTTP/1." in first_line


def parse_http_head(head):
    """``(method, path, headers)`` from the bytes before the blank
    line; header names are lower-cased."""
    lines = head.split(b"\r\n" if b"\r\n" in head else b"\n")
    try:
        method, path, _version = lines[0].split(None, 2)
    except ValueError:
        raise ProtocolError("malformed HTTP request line")
    headers = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        name, _sep, value = line.partition(b":")
        headers[name.strip().lower().decode("latin-1")] = (
            value.strip().decode("latin-1")
        )
    return method.decode("latin-1"), path.decode("latin-1"), headers


def http_request_from(method, path, headers, body):
    """Translate one HTTP request into a protocol request object.

    - ``GET /healthz`` -> ping; ``GET /metrics`` / ``GET /status`` ->
      the matching local kinds;
    - ``POST /api`` -> the body *is* the request object;
    - ``POST /<kind>`` -> the body is that kind's ``params`` (tenant
      and timeout ride the ``X-Artc-Tenant`` / ``X-Artc-Timeout``
      headers).
    """
    route = path.split("?", 1)[0].rstrip("/") or "/"
    if method == "GET":
        kind = {"/healthz": "ping", "/metrics": "metrics",
                "/status": "status"}.get(route)
        if kind is None:
            raise ProtocolError("no such endpoint: GET %s" % route,
                                status=NOT_FOUND)
        return normalize_request({"kind": kind})
    if method != "POST":
        raise ProtocolError("unsupported method %s" % method)
    try:
        payload = json.loads(body.decode("utf-8")) if body.strip() else {}
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("undecodable request body: %s" % exc)
    if route == "/api":
        return normalize_request(payload)
    request = {"kind": route.lstrip("/"), "params": payload}
    if "x-artc-tenant" in headers:
        request["tenant"] = headers["x-artc-tenant"]
    if "x-artc-timeout" in headers:
        try:
            request["timeout"] = float(headers["x-artc-timeout"])
        except ValueError:
            raise ProtocolError("bad X-Artc-Timeout header")
    return normalize_request(request)


def http_response(status, payload):
    """A complete ``Connection: close`` HTTP response, as bytes."""
    body = json.dumps(payload, sort_keys=True, indent=1).encode("utf-8") + b"\n"
    head = (
        "HTTP/1.1 %d %s\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: %d\r\n"
        "Connection: close\r\n"
        "\r\n" % (status, REASONS.get(status, "Unknown"), len(body))
    )
    return head.encode("latin-1") + body
