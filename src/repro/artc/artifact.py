"""Persistent compiled-benchmark artifacts (the ``.artcb`` format).

ARTC proper compiles traces into shared libraries that are built once
and replayed many times; our JSON benchmarks are re-parsed and (worse)
re-traced per experiment cell.  An ``.artcb`` file is the equivalent
durable artifact for this reproduction: a versioned, integrity-checked
container around :class:`~repro.artc.benchmark.CompiledBenchmark`.

Layout (header integers big-endian)::

    offset  size  field
    0       6     magic  b"ARTCB\\x00"
    6       4     format version (uint32)
    10      32    SHA-256 of the payload (everything after the header)
    42      8     payload length in bytes (uint64)
    50      ...   payload: sections, each a little-endian uint32 byte
                  count and that many bytes of one zlib stream

The first section is the wrapper JSON (UTF-8, zlib level 4).  Format
version 6 wraps the benchmark -- *columnar*: one list per field
instead of one dict per action -- and nothing derived from it::

    {"format": "artcb-v6",
     "benchmark": {"format": "artc-benchmark-v2", "label", "platform",
                   "ruleset", "stats", "snapshot", "names": [...],
                   "actions": {"args", "ret", "err", "ann", ...},
                   "edges": {"kind", ...}, ...},
     "columns": [[column, code, rows], [column, code, rows, table], ...]}

Each ``columns`` entry describes one more section (zlib level 1, in
that order): columns moved out of the benchmark and stored as one
little-endian array of ``code`` items -- ``d`` binary64, ``B`` /
``H`` / ``I`` unsigned 8 / 16 / 32 bits -- holding ``rows`` rows.  By
section (:data:`_SECTIONS`), the shape of what the array holds:

    section                     shape     the array
    actions.t_enter+t_return    float     both times, row by row
    actions.predelay            float     the column
    actions.name, edges.src     int       the column
    actions.idx, edges.dst      delta     each row minus the one before
    actions.tid                 interned  indices into the entry's table
    actions.args, actions.ann   distinct  indices into the entry's table
    reduced_preds               ragged    the wait-list lengths, then
                                          the lists concatenated

The two times share a section because ``t_return`` is mostly the next
row's ``t_enter`` and zlib finds that repeat only within one stream;
``idx`` and ``dst`` never decrease, so their differences are runs of
small numbers.  A number column goes there when every row has the
column's one number type (:func:`_typed`); otherwise -- an integer
time from a JSON-lines trace, a text tid -- it stays a JSON list where
:meth:`~repro.artc.benchmark.CompiledBenchmark.to_payload` put it.  A
load puts each typed column back as the list it was, so the benchmark
loader checks every column the same way whichever form it came in.
As JSON text the numbers cost a float repr each to pack and a parse
each to load (docs/PERFORMANCE.md, *Compiled-benchmark artifacts*).

The ``distinct`` table holds each value of the column once, in order
of first appearance, found by its JSON text (:func:`_distinct`): rows
equal as JSON share one entry, and ``1``, ``1.0`` and ``true``, equal
in Python, never do.  A load gives every row of one entry the same
dict, so a benchmark holds one object per distinct argument and
annotation dict; nothing may write into them.  Rows that already share
one object are found by identity, but the table never depends on it:
a benchmark read from ``.json``, sharing nothing, packs to the same
bytes as the compile it was written from.

``actions.name`` indexes ``names``; ``edges`` keeps the graph's
insertion order, so ``graph.preds`` is rebuilt on load exactly and no
per-action ``deps`` copy is stored.  A plain ``.json`` benchmark is the
``benchmark`` object on its own, every column in it, uncompressed.

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
import sys
import zlib
from array import array
from itertools import accumulate, chain, count
from operator import sub

from repro.errors import ReproError
from repro.tracing.atomicio import atomic_write

MAGIC = b"ARTCB\x00"
FORMAT_VERSION = 6
_WRAPPER_FORMAT = "artcb-v6"
_HEADER = struct.Struct(">6sI32sQ")
_SECTION = struct.Struct("<I")
_JSON_LEVEL = 4
_COLUMN_LEVEL = 1
#: Bytes per item of each type code a typed section may carry (the
#: ``array`` codes of that size on every platform CPython runs on).
_ITEM_SIZES = {"B": 1, "H": 2, "I": 4, "d": 8}
_SWAP = sys.byteorder != "little"
_MALFORMED = (ValueError, KeyError, IndexError, TypeError, AttributeError)

#: The typed sections, by name: ``(table of the benchmark payload, or
#: None for the payload itself, its columns, shape)``; the module
#: docstring describes the shapes.
_SECTIONS = {
    "actions.idx": ("actions", ("idx",), "delta"),
    "actions.tid": ("actions", ("tid",), "interned"),
    "actions.name": ("actions", ("name",), "int"),
    "actions.t_enter+t_return": ("actions", ("t_enter", "t_return"), "float"),
    "actions.predelay": ("actions", ("predelay",), "float"),
    "actions.args": ("actions", ("args",), "distinct"),
    "actions.ann": ("actions", ("ann",), "distinct"),
    "edges.src": ("edges", ("src",), "int"),
    "edges.dst": ("edges", ("dst",), "delta"),
    "reduced_preds": (None, ("reduced_preds",), "ragged"),
}


class ArtifactError(ReproError):
    """An ``.artcb`` file is unreadable: wrong magic, an incompatible
    format version, or a content hash that does not match the payload."""


def _typed(shape, columns):
    """``(code, data, table)``: the bytes of one little-endian ``code``
    array storing ``columns`` (equally long lists), or None: they stay
    JSON lists.  This is the one rule: a ``float`` section is typed when
    every row is a float; a ``distinct`` one always, as its indices; any
    other when every row is an int and what it stores (an ``interned``
    column's indices, a ``delta`` one's differences, a ``ragged`` one's
    lengths and numbers) fits 0..2**32-1, in the narrowest unsigned
    width that holds it all."""
    width = len(columns)
    if len(set(map(len, columns))) > 1:
        return None
    if width > 1:
        items = [None] * (width * len(columns[0]))
        for at, column in enumerate(columns):
            items[at::width] = column
    else:
        (items,) = columns
    if shape == "ragged":
        if not set(map(type, items)) <= {list}:
            return None
        items = list(map(len, items)) + list(chain.from_iterable(items))
    table = None
    if shape == "distinct":
        table, items = _distinct(items)
    elif shape == "float":
        if not set(map(type, items)) <= {float}:
            return None
        return "d", _little("d", items), None
    elif not set(map(type, items)) <= {int}:
        return None
    elif shape == "interned":
        table = list(dict.fromkeys(items))
        position = {value: at for at, value in enumerate(table)}
        items = list(map(position.__getitem__, items))
    elif shape == "delta":
        items = list(map(sub, items, chain((0,), items)))
    try:
        return "B", bytes(items), table
    except ValueError:  # an item outside 0..255
        pass
    if min(items) < 0:
        return None
    top = max(items)
    for code in "HI":
        if top >> 8 * _ITEM_SIZES[code] == 0:
            return code, _little(code, items), table
    return None


def _distinct(values):
    """``(table, indices)``: one value per distinct JSON text among
    ``values``, in order of first appearance, and each row's index into
    that table.  One encoding per distinct object: rows sharing an
    object share its index without being encoded again."""
    ids = list(map(id, values))
    objects = dict(zip(ids, values))  # one per object, first appearance first
    texts = list(map(_json_key, objects.values()))
    by_text = dict(zip(texts, objects.values()))  # first appearance first
    at = dict(zip(by_text, count()))
    index = dict(zip(objects, map(at.__getitem__, texts)))
    return list(by_text.values()), list(map(index.__getitem__, ids))


def _json_key_of():
    """``value -> its JSON text``.  ``json.dumps`` builds its C encoder
    anew for every call, which is most of what one small dict costs;
    this is that encoder built once, or ``json.dumps`` where the C
    accelerator is absent.  The text is ``json.dumps``'s either way."""
    make = getattr(json.encoder, "c_make_encoder", None)
    if make is None:
        return json.dumps
    encode = make(None, json.JSONEncoder().default,
                  json.encoder.encode_basestring_ascii, None, ": ", ", ",
                  False, False, True)
    return lambda value: "".join(encode(value, 0))


_json_key = _json_key_of()


def _little(code, items):
    items = array(code, items)
    if _SWAP:
        items.byteswap()
    return items.tobytes()


def _section(data, level):
    data = zlib.compress(data, level)
    return _SECTION.pack(len(data)) + data


def pack_bytes(benchmark):
    """Serialize ``benchmark`` to ``.artcb`` bytes, and stamp
    ``benchmark.content_key`` so in-process replays of a just-packed
    benchmark already hit the JIT's content-addressed program cache.
    Nothing in ``benchmark.derived`` is read or written."""
    payload = benchmark.to_payload()
    described, sections = [], []
    for name, (table, keys, shape) in _SECTIONS.items():
        holder = payload[table] if table else payload
        if not all(key in holder for key in keys):
            continue
        typed = _typed(shape, [holder[key] for key in keys])
        if typed is None:
            continue
        code, data, interned = typed
        entry = [name, code, len(holder[keys[0]])]
        if interned is not None:
            entry.append(interned)
        described.append(entry)
        for key in keys:
            del holder[key]
        sections.append(_section(data, _COLUMN_LEVEL))
    wrapper = {"format": _WRAPPER_FORMAT, "benchmark": payload,
               "columns": described}
    certificates = getattr(benchmark, "certificates", None)
    if certificates:
        wrapper["certificates"] = [cert.to_dict() for cert in certificates]
    # ``to_payload`` builds the payload fresh, so it holds no cycle to check.
    text = json.dumps(wrapper, separators=(",", ":"), check_circular=False)
    data = _section(text.encode("utf-8"), _JSON_LEVEL) + b"".join(sections)
    digest = hashlib.sha256(data).digest()
    benchmark.content_key = digest.hex()
    return _HEADER.pack(MAGIC, FORMAT_VERSION, digest, len(data)) + data


def _header(data):
    """``(version, digest, payload length)`` off the fixed header."""
    if len(data) < _HEADER.size:
        raise ArtifactError("truncated artifact: %d bytes" % len(data))
    magic, version, digest, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ArtifactError("not an .artcb artifact (bad magic %r)" % (magic,))
    return version, digest, length


def _inflate(payload, at, what):
    """``(bytes, offset of the next section)`` of the section at ``at``:
    ``ArtifactError`` naming ``what`` unless it holds exactly one whole
    zlib stream."""
    end = at + _SECTION.size
    if end <= len(payload):
        (size,) = _SECTION.unpack_from(payload, at)
        at, end = end, end + size
    if end > len(payload):
        raise ArtifactError("%s: its section is truncated" % what)
    inflater = zlib.decompressobj()
    try:
        data = inflater.decompress(payload[at:end])
    except zlib.error as exc:
        raise ArtifactError("%s: unreadable section (%s)" % (what, exc)) from exc
    if not inflater.eof or inflater.unused_data:
        raise ArtifactError(
            "%s: its section does not hold one whole zlib stream" % what
        )
    return data, end


def _columns(entry, data):
    """The lists a typed section stores, as ``to_payload`` built them."""
    name, code, rows, *interned = entry
    what = "column %r" % (name,)
    _table, keys, shape = _SECTIONS[name]
    if code not in ({"d"} if shape == "float" else {"B", "H", "I"}):
        raise ArtifactError("%s: unknown type code %r" % (what, code))
    size = _ITEM_SIZES[code]
    if len(data) % size:
        raise ArtifactError(
            "%s: %d bytes is not a whole number of %r items"
            % (what, len(data), code)
        )
    items = array(code)
    items.frombytes(data)
    if _SWAP:
        items.byteswap()
    items = items.tolist()
    n = len(items)
    if shape == "ragged":
        lengths = items[:rows]
        if len(lengths) != rows or sum(lengths) != n - rows:
            raise ArtifactError(
                "%s: its %d-item section is not %d row lengths and the"
                " numbers they count" % (what, n, rows)
            )
        ends = list(accumulate(lengths, initial=rows))
        return [list(map(items.__getitem__, map(slice, ends, ends[1:])))]
    width = len(keys)
    if n != rows * width:
        raise ArtifactError(
            "%s: its section holds %d items, its entry says %d rows of %d"
            % (what, n, rows, width)
        )
    if shape in ("interned", "distinct"):
        (table,) = interned
        if items and max(items) >= len(table):
            raise ArtifactError(
                "%s: an index points past its %d-entry table"
                % (what, len(table))
            )
        items = list(map(table.__getitem__, items))
    elif shape == "delta":
        items = list(accumulate(items))
    if width == 1:
        return [items]
    return [items[at::width] for at in range(width)]


def _wrapper(payload):
    """The wrapper dict of an artifact payload, every typed column put
    back in the benchmark payload as the list it was."""
    text, at = _inflate(payload, 0, "the wrapper")
    wrapper = json.loads(text.decode("utf-8"))
    if wrapper.get("format") != _WRAPPER_FORMAT:
        raise ArtifactError(
            "artifact payload is not %r (found %r)"
            % (_WRAPPER_FORMAT, wrapper.get("format"))
        )
    benchmark = wrapper["benchmark"]
    for entry in wrapper["columns"]:
        if entry[0] not in _SECTIONS:
            raise ArtifactError("column %r has no typed form" % (entry[0],))
        table, keys, _shape = _SECTIONS[entry[0]]
        holder = benchmark[table] if table else benchmark
        if any(key in holder for key in keys):
            raise ArtifactError("column %r is stored twice" % (entry[0],))
        data, at = _inflate(payload, at, "column %r" % (entry[0],))
        holder.update(zip(keys, _columns(entry, data)))
    if at != len(payload):
        raise ArtifactError(
            "%d bytes follow the last section its columns describe"
            % (len(payload) - at)
        )
    return wrapper


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
    payload = memoryview(data)[_HEADER.size:]
    if len(payload) != length:
        raise ArtifactError(
            "truncated artifact: header promises %d payload bytes, found %d"
            % (length, len(payload))
        )
    if hashlib.sha256(payload).digest() != digest:
        raise ArtifactError("artifact content hash mismatch (corrupted file)")
    # The bytes come from outside the process: the loaders name the
    # column they refuse (ValueError); anything else a malformed payload
    # trips is still this file's fault, not a crash.
    try:
        wrapper = _wrapper(payload)
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
