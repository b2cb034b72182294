"""Persistent compiled-benchmark artifacts (the ``.artcb`` format).

ARTC proper compiles traces into shared libraries that are built once
and replayed many times; our JSON benchmarks are re-parsed and (worse)
re-traced per experiment cell.  An ``.artcb`` file is the equivalent
durable artifact for this reproduction: a versioned, integrity-checked
container around :class:`~repro.artc.benchmark.CompiledBenchmark`.

Layout (all integers big-endian)::

    offset  size  field
    0       6     magic  b"ARTCB\\x00"
    6       4     format version (uint32)
    10      32    SHA-256 of the compressed payload
    42      8     payload length in bytes (uint64)
    50      ...   zlib-compressed wrapper JSON (UTF-8)

Format version 4 wraps the benchmark -- *columnar*: one JSON list per
field instead of one dict per action -- and nothing derived from it::

    {"format": "artcb-v4",
     "benchmark": {"format": "artc-benchmark-v2", "label", "platform",
                   "ruleset", "stats", "snapshot", "names": [...],
                   "actions": {"idx", "tid", "name", "args", "ret", "err",
                               "t_enter", "t_return", "ann", "predelay"},
                   "edges": {"src", "dst", "kind"}, "reduced_preds"}}

``actions.name`` indexes ``names``; ``edges`` keeps the graph's
insertion order, so ``graph.preds`` is rebuilt on load exactly and no
per-action ``deps`` copy is stored.  A plain ``.json`` benchmark is the
``benchmark`` object on its own, uncompressed.  zlib level 4 is the
knee of pack time against bytes on that text (docs/PERFORMANCE.md).

An optional ``"certificates"`` key carries ``artc verify`` translation
-validation certificates (:mod:`repro.verify.transval`), re-attached
to the benchmark as ``benchmark.certificates`` on load.

The artifact is platform-neutral: emulation is decided where the
target is known (paper section 4.3.4), so the execution plan
(:mod:`repro.artc.planir`) is built by the first replay that needs it
and never stored -- v3 embedded the self-targeted one, which a
cross-platform replay never ran.  ``pack`` and a load both stamp the
benchmark with its content address (``benchmark.content_key``), which
keys the JIT core's compiled-program cache.  Older versions are
rejected loudly from the header alone: re-pack from the source trace.
The payload comes from outside the process and the first replay is
where a bad row would otherwise surface, so the loader checks every
column's length, row types and index range: a malformed one is an
:class:`ArtifactError` naming it.

The hash is over the *stored* bytes, so corruption is detected before
any decompression or parsing happens, and the hex digest doubles as
the content address under which the benchmark cache files the
artifact (see :mod:`repro.bench.artifacts`).
"""

import hashlib
import json
import struct
import zlib

from repro.errors import ReproError
from repro.tracing.atomicio import atomic_write

MAGIC = b"ARTCB\x00"
FORMAT_VERSION = 4
_WRAPPER_FORMAT = "artcb-v4"
_HEADER = struct.Struct(">6sI32sQ")
_ZLIB_LEVEL = 4
_MALFORMED = (ValueError, KeyError, IndexError, TypeError, AttributeError)


class ArtifactError(ReproError):
    """An ``.artcb`` file is unreadable: wrong magic, an incompatible
    format version, or a content hash that does not match the payload."""


def pack_bytes(benchmark):
    """Serialize ``benchmark`` to ``.artcb`` bytes, and stamp
    ``benchmark.content_key`` so in-process replays of a just-packed
    benchmark already hit the JIT's content-addressed program cache.
    Nothing in ``benchmark.derived`` is read or written."""
    wrapper = {"format": _WRAPPER_FORMAT, "benchmark": benchmark.to_payload()}
    certificates = getattr(benchmark, "certificates", None)
    if certificates:
        wrapper["certificates"] = [cert.to_dict() for cert in certificates]
    # ``to_payload`` builds the payload fresh, so it holds no cycle to check.
    text = json.dumps(wrapper, separators=(",", ":"), check_circular=False)
    payload = zlib.compress(text.encode("utf-8"), _ZLIB_LEVEL)
    digest = hashlib.sha256(payload).digest()
    benchmark.content_key = digest.hex()
    return _HEADER.pack(MAGIC, FORMAT_VERSION, digest, len(payload)) + payload


def _header(data):
    """``(version, digest, payload length)`` off the fixed header."""
    if len(data) < _HEADER.size:
        raise ArtifactError("truncated artifact: %d bytes" % len(data))
    magic, version, digest, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ArtifactError("not an .artcb artifact (bad magic %r)" % (magic,))
    return version, digest, length


def unpack_bytes(data):
    """Parse ``.artcb`` bytes back into a ``CompiledBenchmark`` with
    its content address stamped."""
    from repro.artc.benchmark import CompiledBenchmark

    version, digest, length = _header(data)
    if version != FORMAT_VERSION:
        raise ArtifactError(
            "unsupported artifact format version %d (this build reads %d);"
            " re-pack the benchmark from its source trace"
            % (version, FORMAT_VERSION)
        )
    payload = data[_HEADER.size:]
    if len(payload) != length:
        raise ArtifactError(
            "truncated artifact: header promises %d payload bytes, found %d"
            % (length, len(payload))
        )
    if hashlib.sha256(payload).digest() != digest:
        raise ArtifactError("artifact content hash mismatch (corrupted file)")
    wrapper = json.loads(zlib.decompress(payload).decode("utf-8"))
    if wrapper.get("format") != _WRAPPER_FORMAT:
        raise ArtifactError(
            "artifact payload is not %r (found %r)"
            % (_WRAPPER_FORMAT, wrapper.get("format"))
        )
    # The bytes come from outside the process: the loaders name the
    # column they refuse (ValueError); anything else a malformed payload
    # trips is still this file's fault, not a crash.
    try:
        benchmark = CompiledBenchmark.from_payload(wrapper["benchmark"])
    except _MALFORMED as exc:
        raise ArtifactError(
            "artifact carries a malformed benchmark: %r" % (exc,)
        ) from exc
    raw_certs = wrapper.get("certificates")
    if raw_certs:
        from repro.verify.transval import Certificate

        try:
            benchmark.certificates = [
                Certificate.from_dict(item) for item in raw_certs
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                "artifact carries unreadable verification certificates: %s"
                % (exc,)
            ) from exc
    benchmark.content_key = digest.hex()
    return benchmark


def content_hash(path):
    """Hex SHA-256 recorded in an artifact's header (no payload parse)."""
    with open(path, "rb") as handle:
        _version, digest, _length = _header(handle.read(_HEADER.size))
    return digest.hex()


def save(benchmark, path):
    """Atomically write ``benchmark`` to ``path`` as an ``.artcb``."""
    atomic_write(path, pack_bytes(benchmark))
    return path


def load(path):
    """Read an ``.artcb`` written by :func:`save`."""
    with open(path, "rb") as handle:
        return unpack_bytes(handle.read())
