"""Property-based tests: the fast front end against its references.

The strace line parser, the tailer's byte accounting and the action
chain each replaced a slower form with one that must be observably the
same.  The slower forms live here, as the references:

(a) the character-by-character line scanner (``_ref_*`` below: the
    paren scan, the argument splitter and the per-token value reader
    the parser used to be) against what the shared line reader makes
    of one strace line, over every registry call and over damaged
    lines;
(b) a tailer that hashes, rolls its cursor, decodes and parses *per
    line*, with the header and comment rules spelled out, against the
    shipped per-chunk :class:`TraceTailer`, under arbitrary delivery
    cuts;
(c) the action chain asked for its digest after every action against
    the chain asked at random boundaries and at block edges, bare and
    through ``StreamCompiler``; and the chain's own definition: every
    field of every row is seen, and dict key order is not.
"""

import hashlib
import json
import os
import tempfile

from hypothesis import assume, given, settings, strategies as st

from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.errors import TraceError, TraceParseError, UnsupportedSyscallError
from repro.stream.compile import StreamCompiler
from repro.stream.digest import ActionChain, stream_digest_of
from repro.stream import tail
from repro.stream.tail import TraceTailer
from repro.syscalls.registry import REGISTRY, spec_for
from repro.tracing import strace
from repro.tracing.trace import (
    JSON_LINES, LineReader, ParseWarnings, Trace, TraceRecord, format_of,
    parse_header, split_args,
)
from repro.workloads import ParallelRandomReaders

# -- (a) the line parser ---------------------------------------------------


def _ref_parse_value(token):
    if token == "NULL":
        return None
    if token.startswith('"') or token.startswith("[") or token.startswith("{"):
        return json.loads(token)
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _ref_scan_call(text, line):
    open_paren = text.find("(")
    if open_paren < 0:
        raise TraceParseError("missing '(' in call", line=line)
    name = text[:open_paren]
    depth = 0
    in_string = False
    escaped = False
    for index in range(open_paren, len(text)):
        char = text[index]
        if in_string:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
            continue
        if char == '"':
            in_string = True
        elif char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth == 0:
                return name, text[open_paren + 1 : index], text[index + 1 :]
    raise TraceParseError("unbalanced parentheses", line=line)


def _ref_errno(body, line):
    """``(ret, err)`` of the text between ``=`` and ``<duration>``.

    The one rule that differs from the scanner this reference was
    copied from.  That one took the last whitespace-separated piece for
    an errno whenever it was upper-case, so a JSON return value with a
    space before a capitalised tail (``"/DIR/MY FILE"``) lost its end.
    Now a return value that opens as JSON is decoded where it stands
    and only a separate upper-case word after it is an errno."""
    if body[:1] in ('"', "[", "{"):
        try:
            ret, end = json.JSONDecoder().raw_decode(body)
        except ValueError:
            raise TraceParseError("bad return value", line=line) from None
        after = body[end:].split()
        if not after:
            return ret, None
        if len(after) == 1 and after[0].isupper() and body[end].isspace():
            return ret, after[0]
        raise TraceParseError("bad return value", line=line)
    pieces = body.split()
    if len(pieces) >= 2 and pieces[-1].isupper():
        return _ref_parse_value(" ".join(pieces[:-1])), pieces[-1]
    return _ref_parse_value(body), None


def _ref_parse_body(line, idx):
    try:
        tid_text, ts_text, rest = line.split(None, 2)
    except ValueError:
        raise TraceParseError("too few fields", line=line) from None
    name, args_text, tail = _ref_scan_call(rest, line)
    tail = tail.strip()
    if not tail.startswith("="):
        raise TraceParseError("missing '=' result", line=line)
    tail = tail[1:].strip()
    if not tail.endswith(">"):
        raise TraceParseError("missing <duration>", line=line)
    body, _, dur_text = tail.rpartition("<")
    try:
        duration = float(dur_text[:-1])
    except ValueError:
        raise TraceParseError("bad duration", line=line) from None
    ret, err = _ref_errno(body.strip(), line)
    spec = spec_for(name)
    args = {}
    try:
        for arg_name, token in zip(spec.args, split_args(args_text)):
            args[arg_name] = _ref_parse_value(token)
    except ValueError:
        raise TraceParseError("bad argument list", line=line) from None
    tid = int(tid_text) if tid_text.isdecimal() else tid_text
    try:
        t_enter = float(ts_text)
    except ValueError:
        raise TraceParseError("bad timestamp", line=line) from None
    return TraceRecord(idx, tid, name, args, ret, err, t_enter, t_enter + duration)


def _ref_parse_line(line, idx):
    try:
        return _ref_parse_body(line, idx), None
    except UnsupportedSyscallError:
        return None, "unsupported-call"
    except TraceParseError:
        return None, "bad-line"


def _parse_line(line):
    """What the tolerant reader makes of one strace ``line``:
    ``(record, None)`` or ``(None, warning kind)``."""
    warnings = ParseWarnings()
    reader = LineReader(strace.FORMAT, [], warnings)
    reader.read(line)
    if reader.records:
        return reader.records[0], None
    return None, next(iter(warnings.counts))


def _outcome(parsed):
    record, kind = parsed
    if record is None:
        return kind
    # Through JSON text: NaN equals itself there, and 1 differs from 1.0.
    return json.dumps(record.to_dict(), sort_keys=True)


# Everything the scanners treat specially, plus plain and non-ASCII text.
_TRICKY = st.text(
    alphabet=st.sampled_from(list('ab Z/.,"\\()[]{}<>=#\t') + ["é", "→", "𝄞"]),
    max_size=12,
)
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-5, 5),
        st.floats(allow_nan=False, allow_infinity=False, width=32), _TRICKY,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_TRICKY, inner, max_size=3),
    ),
    max_leaves=6,
)
_NUMBERS = st.one_of(
    st.none(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
# Bare tokens: what a tracer writes for flags, commands and devices.
_SYMBOLS = st.sampled_from([
    "O_RDWR|O_CREAT", "O_RDONLY", "SEEK_SET", "F_GETFL", "0x1f",
    "S_IFREG|0644", "makedev(8, 1)", "st[0]", "a{b, c}", "f(g(1), [2, 3])",
    "inf", "NaN", "null", "I_AM", "N", "-", "a b",
])
_LIST_ARGS = frozenset(["aiocbs", "ops"])


def _arg_strategy(arg_name):
    if arg_name in strace._STRING_ARGS:  # what dumps renders as JSON strings
        return st.one_of(st.none(), _TRICKY)
    if arg_name in _LIST_ARGS:
        return st.lists(_JSON_VALUES, max_size=3)
    return st.one_of(_NUMBERS, _SYMBOLS)


@st.composite
def _records(draw):
    name = draw(st.sampled_from(sorted(REGISTRY)))
    arg_names = REGISTRY[name].args
    given_args = arg_names[: draw(st.integers(0, len(arg_names)))]
    args = {arg: draw(_arg_strategy(arg)) for arg in given_args}
    err = draw(st.one_of(st.none(), st.sampled_from(["ENOENT", "EIO", "E2BIG"])))
    ret = -1 if err else draw(st.one_of(st.integers(-1, 2**33), _JSON_VALUES))
    tid = draw(st.one_of(st.integers(0, 99999), st.sampled_from(["T1", "0x7f"])))
    t_enter = draw(st.floats(0, 1e6))
    return TraceRecord(
        0, tid, name, args, ret, err, t_enter, t_enter + draw(st.floats(0, 10))
    )


def _line_of(record):
    return strace.dumps(Trace([record])).splitlines()[1]


@st.composite
def _damaged_lines(draw):
    """A written line, truncated, with one character dropped, doubled
    or swapped for a structural one, or calling an unknown name."""
    line = _line_of(draw(_records()))
    damage = draw(st.sampled_from(["cut", "drop", "double", "swap", "rename"]))
    if damage == "rename":
        return line.replace("(", "_frobnicate(", 1)
    at = draw(st.integers(0, len(line) - 1))
    if damage == "cut":
        return line[:at]
    if damage == "drop":
        return line[:at] + line[at + 1 :]
    if damage == "double":
        return line[:at] + line[at] + line[at:]
    return line[:at] + draw(st.sampled_from('()[]{},"\\ <>=\u00b2')) + line[at + 1 :]


@given(record=_records())
@settings(max_examples=600, deadline=None)
def test_parser_matches_the_scanner_on_written_lines(record):
    line = _line_of(record)
    parsed = _parse_line(line)
    assert parsed[0] is not None, line  # dumps wrote it: it must load
    assert _outcome(parsed) == _outcome(_ref_parse_line(line, 0)), line


@given(line=_damaged_lines())
@settings(max_examples=1500, deadline=None)
def test_parser_matches_the_scanner_on_damaged_lines(line):
    line = line.strip()  # as both loaders hand lines over
    assume(line)
    assert _outcome(_parse_line(line)) == _outcome(
        _ref_parse_line(line, 0)
    ), line


# -- (b) the tailer's accounting -------------------------------------------


class PerLineTailer(TraceTailer):
    """The reference: every line is hashed, rolled over, decoded, has
    its format looked up and is parsed on its own, by that format's
    ``parse`` (strace lines by ``scan`` first, as the shipped reader
    reads most), with the header and comment rules spelled out here."""

    def __init__(self, path):
        super().__init__(path)
        self._head = None
        self._count = self._line_number = 0

    @property
    def header(self):
        return self._head or self.fmt.head

    @property
    def records_read(self):
        return self._count

    def _consume(self, run, torn_kind=None):
        pieces = run.split(b"\n")
        last = pieces.pop()
        for raw in [piece + b"\n" for piece in pieces] + ([last] if last else []):
            self._consume_line(raw, torn_kind)

    def _consume_line(self, raw, torn_kind):
        line_start = self._total
        self._prefix.update(raw)
        self._advance_consumed(len(raw))
        self._line_number += 1
        line = raw.decode("utf-8", "replace").strip()
        if not line:
            return
        fmt = format_of(self._segments[0] if self.is_dir else self.path)
        if self._head is None:
            self._head = dict(fmt.head)
            if fmt is JSON_LINES:  # the first line is the header
                parse_header(line, self._head, self._line_number, line_start)
                return
        if fmt is not JSON_LINES and line.startswith("#"):
            if fmt is strace.FORMAT:
                strace.parse_header_line(line, self._head, None, None)
            return
        records = []
        try:
            if fmt is strace.FORMAT:
                list(strace.scan(line, records, self._count))
            record = records[0] if records else fmt.parse(line, self._count)
        except (TraceError, UnsupportedSyscallError) as exc:
            self.warnings.warn(
                torn_kind or exc.kind, self._line_number, line_start, line[:120]
            )
            return
        self._count += 1
        self._ready.append(record)


def _observable(tailer, records):
    return (
        [json.dumps(record.to_dict(), sort_keys=True) for record in records],
        tailer.position(),
        tailer.prefix_hexdigest(),
        tailer.resyncs,
        tailer.records_read,
        tailer.warnings.to_dict(),
        tailer.drained,
        tailer.header,
    )


_GARBAGE = st.one_of(
    st.just(b""),
    st.just(b"   "),
    st.just(b"!! not a record !!"),
    st.just("1 0.5 stat(\"/caf\u00e9 \u2192\") = 0 <0.1>".encode("utf-8")),
    st.just(b'1 0.5 stat("/torn \xe2\x82") = 0 <0.1>'),  # cut UTF-8 sequence
    st.just(b"\xff\xfe stray bytes \x80"),
    st.just(b"1 0.5 frobnicate(1) = 0 <0.1>"),
    st.just(b'{"idx": 0, "tid": 1}'),
)


@st.composite
def _deliveries(draw):
    """A byte stream (records of any format, ASCII and not, garbage
    mixed in), where the producer cuts it into segments, and the
    sizes in which it lands between polls."""
    fmt = draw(st.sampled_from(["strace", "json", "ibench"]))
    records = [
        TraceRecord(i, 1 + i % 3, "stat", {"path": "/d/f%d" % i + " \u00fc" * (i % 2)},
                    {"size": i}, None, i * 0.5, i * 0.5 + 0.25)
        for i in range(draw(st.integers(0, 12)))
    ]
    trace = Trace(records, platform="darwin", label="p").with_roster()
    text = format_of("trace." + fmt).dumps(trace)
    if fmt == "strace":
        text = text.replace("\\u00fc", "\u00fc")  # raw multi-byte characters
    lines = text.encode("utf-8").split(b"\n")[:-1]
    for _ in range(draw(st.integers(0, 4))):
        # Never ahead of a JSON header: a bad header is fatal by design.
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, draw(_GARBAGE))
    data = b"\n".join(lines) + (b"\n" if draw(st.booleans()) else b"")
    cuts = st.lists(st.integers(0, len(data)), max_size=6).map(sorted)
    limit = draw(st.sampled_from([None, 1, 3]))
    chunk = draw(st.sampled_from([7, 64, tail.CHUNK]))
    return fmt, data, draw(cuts), draw(cuts), limit, chunk


def _run_tailer(cls, folder, fmt, data, segment_cuts, polls, limit):
    """Deliver ``data`` up to each poll point, poll, and record what a
    caller can see; the source is one file, or a watch folder when the
    producer cut segments."""
    if segment_cuts:
        source = os.path.join(folder, "segments")
        os.mkdir(source)
        bounds = [0] + segment_cuts + [len(data)]
        spans = list(zip(bounds, bounds[1:]))
    else:
        source = os.path.join(folder, "trace." + fmt)
        spans = [(0, len(data))]

    def deliver(upto):
        for number, (lo, hi) in enumerate(spans):
            if lo >= upto and number:
                break
            name = (
                os.path.join(source, "seg%03d.%s" % (number, fmt))
                if segment_cuts else source
            )
            with open(name, "wb") as handle:
                handle.write(data[lo : min(hi, upto)])

    deliver(0)
    tailer = cls(source)
    seen = []
    for upto in polls + [len(data)]:
        deliver(upto)
        seen.append(_observable(tailer, tailer.poll(limit)))
    with open(tailer.done_marker, "w"):
        pass
    while not tailer.drained:
        seen.append(_observable(tailer, tailer.poll(limit)))
    return seen


@given(delivery=_deliveries())
@settings(max_examples=150, deadline=None)
def test_chunked_tailer_matches_per_line_accounting(delivery):
    how, (chunk, data) = delivery[:-1], (delivery[-1], delivery[1])
    shipped_chunk = tail.CHUNK
    tail.CHUNK = chunk  # small reads: many drains per poll, lines cut anywhere
    try:
        with tempfile.TemporaryDirectory() as one:
            shipped = _run_tailer(TraceTailer, one, *how)
        with tempfile.TemporaryDirectory() as two:
            reference = _run_tailer(PerLineTailer, two, *how)
    finally:
        tail.CHUNK = shipped_chunk
    assert shipped == reference
    assert shipped[-1][2] == hashlib.sha256(data).hexdigest()


# -- (c) the action chain --------------------------------------------------

_cache = {}


def _traced():
    if "traced" not in _cache:
        app = ParallelRandomReaders(nthreads=3, reads_per_thread=60)
        _cache["traced"] = trace_application(app, PLATFORMS["hdd-ext4"], seed=7)
    return _cache["traced"]


def _compiler():
    traced = _traced()
    return StreamCompiler(
        snapshot=traced.snapshot, platform=traced.trace.platform,
        label=traced.trace.label,
    )


def _digests_flushed_every_action():
    """The digest at every action boundary, asked for after every
    action (each batch is one row): the reference."""
    if "every" not in _cache:
        compiler = _compiler()
        _cache["every"] = [compiler.digest()]
        for record in _traced().trace.records:
            compiler.feed(record)
            _cache["every"].append(compiler.digest())
    return _cache["every"]


@given(asks=st.sets(st.integers(0, 200), max_size=8))
@settings(max_examples=40, deadline=None)
def test_chain_digest_is_independent_of_flush_points(asks):
    """Through ``StreamCompiler.feed``, so a fed action's dicts being
    written to before their batch is encoded would show here too."""
    reference = _digests_flushed_every_action()
    compiler = _compiler()
    for fed, record in enumerate(_traced().trace.records):
        if fed in asks:
            assert compiler.digest() == reference[fed]
        compiler.feed(record)
    assert compiler.digest() == reference[-1]
    assert compiler.digest() == stream_digest_of(compiler.finish_benchmark())


_ROW = dict(
    idx=3, tid=7, name="pread", args={"fd": 3, "nbytes": 10}, ret=10,
    err=None, t_enter=1.5, t_return=1.75, ann={"fd": 2}, predelay=0.25,
    deps=[1, 2], reduced=[2],
)
_OTHER = dict(
    idx=-1, tid=8, name="pwrite", args={"fd": 4, "nbytes": 10}, ret=11,
    err="EIO", t_enter=1.25, t_return=2.0, ann={"fd": 1}, predelay=0.5,
    deps=[0, 2], reduced=[1],
)


def _chain_of(rows, ask_after=()):
    chain = ActionChain()
    for number, row in enumerate(rows):
        record = TraceRecord(*(row[field] for field in TraceRecord.__slots__))
        chain.update(record, row["ann"], row["predelay"], row["deps"], row["reduced"])
        if number in ask_after:
            chain.hexdigest()
    return chain.hexdigest()


@given(
    length=st.integers(1, 150),
    data=st.data(),
    field=st.sampled_from(sorted(_ROW)),
    asks=st.sets(st.integers(0, 150), max_size=5),
)
@settings(max_examples=120, deadline=None)
def test_chain_sees_every_field_of_every_row(length, data, field, asks):
    rows = [dict(_ROW, idx=number) for number in range(length)]
    plain = _chain_of(rows)
    assert _chain_of(rows, ask_after=asks) == plain
    victim = data.draw(st.integers(0, length - 1))
    rows[victim] = dict(rows[victim], **{field: _OTHER[field]})
    assert _chain_of(rows, ask_after=asks) != plain


def test_chain_digest_at_block_edges():
    """Asked just before, at and just after a block's last action, and
    at the second block's end: the values a chain asked after every
    action gives."""
    reference = _digests_flushed_every_action()
    assert len(reference) > 129
    edges = {63, 64, 65, 128}
    compiler = _compiler()
    for fed, record in enumerate(_traced().trace.records):
        if fed in edges:
            assert compiler.digest() == reference[fed], fed
        compiler.feed(record)
    assert compiler.digest() == reference[-1]


_KEYS = st.text(alphabet="abfdnxyz_", min_size=1, max_size=6)


@st.composite
def _dict_rows(draw):
    """A row whose ``args`` are exactly its call's parameters, a prefix
    of them, or those plus extra keys; whose ``ann`` is a dict and
    whose ``ret`` may be one."""
    name = draw(st.sampled_from(sorted(REGISTRY)))
    params = list(REGISTRY[name].args)
    keys = draw(st.sampled_from([
        params,
        params[: draw(st.integers(0, len(params)))],
        params + draw(st.lists(_KEYS, min_size=1, max_size=2)),
    ]))
    args = {key: draw(_JSON_VALUES) for key in keys}
    ann = draw(st.dictionaries(_KEYS, st.integers(-3, 3), max_size=3))
    ret = draw(st.one_of(
        st.integers(-1, 9), st.dictionaries(_KEYS, _JSON_VALUES, max_size=3)
    ))
    return dict(_ROW, name=name, args=args, ann=ann, ret=ret)


def _reordered(row, permutation):
    """``row`` with the keys of its ``args``, ``ann`` and a dict
    ``ret`` in another order (``permutation`` rotates and reverses)."""
    def reorder(value):
        if not isinstance(value, dict):
            return value
        items = list(value.items())
        turn = permutation % max(1, len(items))
        items = items[turn:] + items[:turn]
        return dict(reversed(items) if permutation % 2 else items)
    return dict(row, args=reorder(row["args"]), ann=reorder(row["ann"]),
                ret=reorder(row["ret"]))


@given(
    templates=st.lists(_dict_rows(), min_size=1, max_size=5),
    length=st.integers(1, 140),
    permutations=st.lists(st.integers(0, 7), min_size=1, max_size=5),
    asks=st.sets(st.integers(0, 140), max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_chain_ignores_dict_key_order(templates, length, permutations, asks):
    """Reordering the keys of any ``args``, ``ann`` or dict-valued
    ``ret`` leaves the digest alone, whichever path an ``args`` takes
    (its call's parameters in registry order, in another order, or
    not its call's parameters at all)."""
    rows = [
        dict(templates[number % len(templates)], idx=number)
        for number in range(length)
    ]
    shuffled = [
        _reordered(row, permutations[number % len(permutations)])
        for number, row in enumerate(rows)
    ]
    assert _chain_of(shuffled, ask_after=asks) == _chain_of(rows)


@given(
    row=_dict_rows(),
    length=st.integers(1, 140),
    data=st.data(),
    extra=_KEYS,
    values=st.tuples(_JSON_VALUES, _JSON_VALUES),
)
@settings(max_examples=120, deadline=None)
def test_chain_sees_every_args_value(row, length, data, extra, values):
    """An ``args`` key outside its call's parameters (a JSON-lines
    trace can carry one) and a key inside them are both hashed: a
    change to either value changes the digest."""
    old, new = values
    assume(json.dumps(old, sort_keys=True) != json.dumps(new, sort_keys=True))
    params = REGISTRY[row["name"]].args
    assume(extra not in params)
    key = data.draw(st.sampled_from([extra] + list(params)))
    victim = data.draw(st.integers(0, length - 1))
    rows = [dict(row, idx=number) for number in range(length)]
    rows[victim] = dict(rows[victim], args=dict(rows[victim]["args"], **{key: old}))
    before = _chain_of(rows)
    rows[victim] = dict(rows[victim], args=dict(rows[victim]["args"], **{key: new}))
    assert _chain_of(rows) != before


def test_chain_hashes_a_time_that_is_not_a_number():
    """A JSON-lines record may carry a time no binary64 packs; its
    block is still hashed, and the value is still seen."""
    rows = [dict(_ROW, idx=number) for number in range(3)]
    plain = _chain_of(rows)
    rows[1] = dict(rows[1], t_return=None)
    odd = _chain_of(rows)
    rows[1] = dict(rows[1], t_return="later")
    assert len({plain, odd, _chain_of(rows)}) == 3
