"""One front door: what a replay request may say, stated once.

``artc replay``, ``artc submit`` and the ``artc serve`` worker are three
transports for one request, a mapping of **fields**: argparse ``dest``
names are the serve ``params`` names, so ``vars(args)`` and a decoded
JSON object are the same mapping to this module.  It owns the request
kinds, the defaults, the resolvers that turn names into objects and the
replay sequence every door runs.  Bad input raises
:class:`RequestError`: the CLI prints it and exits 2, the worker answers
400/404 with ``kind`` as the error type.  docs/SERVICE.md has the field
table; ``tests/serve/test_request.py`` holds the two in step.
"""

from repro.artc.init import initialize
from repro.artc.replayer import REPLAY_CORES, SINGLE_PROCESS_CORES, ReplayConfig
from repro.bench.platforms import PLATFORMS
from repro.core.modes import ReplayMode, RuleSet
from repro.errors import ReproError
from repro.faults.harden import HardenConfig, RetryPolicy
from repro.syscalls.emulation import EmulationOptions

#: Request kinds executed on a worker process (and therefore subject
#: to quotas, coalescing, and timeouts).  ``repro.serve.jobs`` binds
#: ``_job_<kind>`` for each at import.
WORKER_KINDS = (
    "compile", "replay", "lint", "profile", "verify", "stream", "debug",
)

#: Request kinds the front-end answers itself.
LOCAL_KINDS = ("ping", "status", "metrics", "shutdown")

KINDS = WORKER_KINDS + LOCAL_KINDS

#: Field -> default, read by argparse ``default=`` and by the worker
#: alike.  A field not listed defaults to absent (a boolean to off).
#: One default differs on purpose between doors: a request without
#: ``platform`` replays on its cell's ``source`` when it names one
#: (:func:`target`).
DEFAULTS = {
    "source": "mac-ssd",
    "seed": 0,
    "platform": "hdd-ext4",
    "mode": ReplayMode.ARTC,
    "core": "auto",
    "timing": "afap",
    "jitter": 0.0,
    "cache_mb": 0,
    "fsync_mode": "durable",
    "retry_max": 0,
    "retry_base": 0.005,
    "watchdog": 0.0,
    "max_findings": 25,
    "checkpoint_every": 256,
}

#: The built-in workloads: name -> (module, class, whether ``artc trace
#: --threads`` sets its ``nthreads``).
WORKLOADS = {
    "randreads": ("repro.workloads", "ParallelRandomReaders", True),
    "cachereaders": ("repro.workloads", "CacheSensitiveReaders", False),
    "seqreaders": ("repro.workloads", "CompetingSequentialReaders", False),
    "leveldb-fillsync": ("repro.leveldb.apps", "LevelDBFillSync", True),
    "leveldb-readrandom": ("repro.leveldb.apps", "LevelDBReadRandom", True),
}


class RequestError(ReproError, ValueError):
    """A request the requester got wrong (bad name, bad value).
    ``kind`` is the serve error type; the ``unknown-*`` kinds are 404s."""

    def __init__(self, message, kind="bad-cell"):
        super().__init__(message)
        self.kind = kind


def field(fields, name):
    """``fields[name]``, or the field's default when it is absent or
    None (an unset ``artc submit`` flag)."""
    value = fields.get(name)
    return DEFAULTS.get(name) if value is None else value


def platform(name, cache_mb=0):
    """The named :class:`~repro.bench.platforms.Platform`, with its
    page cache overridden to ``cache_mb`` MiB when that is non-zero."""
    try:
        found = PLATFORMS[name]
    except (KeyError, TypeError):
        raise RequestError(
            "unknown platform %r; choose from: %s"
            % (name, ", ".join(sorted(PLATFORMS))),
            "unknown-platform",
        )
    if cache_mb:
        found = found.variant(cache_bytes=int(cache_mb) << 20)
    return found


def target(fields):
    """The platform a request replays on: ``platform``, else the
    cell's ``source``, else the default; ``cache_mb`` applied."""
    name = fields.get("platform") or fields.get("source") or DEFAULTS["platform"]
    return platform(name, field(fields, "cache_mb"))


def replay_seed(fields):
    """The target machine's seed: ``replay_seed``, else the cell ``seed``."""
    seed = fields.get("replay_seed")
    return int(field(fields, "seed") if seed is None else seed)


def ruleset(spec):
    """``None`` (ARTC default), a ``--mode-flags`` style string, or a
    ``{flag: bool}`` object."""
    if spec is None or spec == "":
        return None
    if isinstance(spec, str):
        flags = {}
        for token in spec.split(","):
            token = token.strip()
            if token.startswith("no-"):
                flags[token[3:].replace("-", "_")] = False
            else:
                flags[token.replace("-", "_")] = True
        spec = flags
    if not isinstance(spec, dict):
        raise RequestError("'ruleset' must be null, a flag string, or an object")
    unknown = sorted(str(flag) for flag in spec if flag not in RuleSet.__slots__)
    if unknown:
        raise RequestError(
            "bad ruleset: unknown flag %s; choose from: %s (prefix 'no-' to clear)"
            % (", ".join(map(repr, unknown)),
               ", ".join(flag.replace("_", "-") for flag in RuleSet.__slots__))
        )
    try:
        return RuleSet(**{flag: bool(value) for flag, value in spec.items()})
    except ReproError as exc:
        raise RequestError("bad ruleset: %s" % exc)


def app(name, app_args=None, threads=None):
    """Instantiate the application a cell names.

    ``name`` is a Magritte trace name (``artc magritte --list``) or a
    built-in workload (:data:`WORKLOADS`); ``app_args`` passes
    constructor keywords.  Non-default keywords are folded into the
    app's name so the artifact key (which hashes the name) cannot
    collide across configurations.  ``threads`` is ``artc trace
    --threads``: the thread count of the workloads that take one on the
    command line (their own names carry it).
    """
    if not isinstance(name, str) or not name:
        raise RequestError("params need an 'app' name")
    kwargs = app_args or {}
    if not isinstance(kwargs, dict):
        raise RequestError("'app_args' must be an object")

    if name not in WORKLOADS:
        from repro.workloads.magritte import build_suite, suite_names

        if name not in suite_names():
            raise RequestError(
                "unknown app %r (not a Magritte trace or built-in workload: %s)"
                % (name, ", ".join(sorted(WORKLOADS))),
                "unknown-app",
            )
        if kwargs:
            raise RequestError("Magritte apps take no app_args")
        return build_suite([name])[name]

    from importlib import import_module

    module, factory, threaded = WORKLOADS[name]
    keywords = dict(kwargs)
    if threaded and threads is not None:
        keywords.setdefault("nthreads", threads)
    try:
        built = getattr(import_module(module), factory)(**keywords)
    except TypeError as exc:
        raise RequestError("bad app_args for %r: %s" % (name, exc))
    if kwargs:
        suffix = ",".join("%s=%r" % (key, kwargs[key]) for key in sorted(kwargs))
        built.name = "%s@%s" % (built.name, suffix)
    return built


def timing(value):
    """``'afap'``, ``'natural'``, or a predelay scale factor."""
    if value in ("afap", "natural"):
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        raise RequestError(
            "bad timing %r; choose 'afap', 'natural', or a predelay scale factor"
            % (value,)
        )


def harden(fields):
    """A HardenConfig from ``retry_max``/``watchdog``/``degrade``; None
    when hardening is off (the classic replayer)."""
    retry_max = field(fields, "retry_max")
    watchdog = field(fields, "watchdog")
    degrade = field(fields, "degrade")
    if not (retry_max or watchdog or degrade):
        return None
    retry = None
    if retry_max:
        retry = RetryPolicy(
            max_attempts=int(retry_max), base=float(field(fields, "retry_base"))
        )
    return HardenConfig(
        retry=retry,
        watchdog_stall=float(watchdog) if watchdog else None,
        degrade=bool(degrade),
    )


def replay_config(fields, jobs=None):
    """The :class:`ReplayConfig` a request's fields ask for -- the only
    place outside ``replayer.py`` that builds one from request fields.
    ``jobs`` is ``artc replay --jobs``; None (a serve worker) admits
    only the single-process cores."""
    mode = field(fields, "mode")
    if mode not in ReplayMode.ALL:
        raise RequestError(
            "unknown mode %r; choose from: %s" % (mode, ", ".join(ReplayMode.ALL))
        )
    cores = SINGLE_PROCESS_CORES if jobs is None else REPLAY_CORES
    core = field(fields, "core")
    if core not in cores:
        raise RequestError(
            "unknown core %r; choose from: %s" % (core, ", ".join(cores))
        )
    return ReplayConfig(
        mode=mode,
        timing=timing(field(fields, "timing")),
        jitter=float(field(fields, "jitter")),
        emulation=EmulationOptions(fsync_mode=field(fields, "fsync_mode")),
        harden=harden(fields),
        core=core,
        jobs=jobs or 1,
    )


def replay_once(fields, snapshot, play, obs=None, jobs=None, digest=True):
    """One replay, the same from every door (which is what makes a
    serve response byte-identical to the CLI's): a fresh target at the
    replay seed, snapshot initialization, no cache drop, then
    ``play(fs, config)`` -- batch ``replay`` or a live follow.  Returns
    ``(what play returned, digest of the final FS state or None)``."""
    config = replay_config(fields, jobs)
    fs = target(fields).make_fs(seed=replay_seed(fields), obs=obs)
    if snapshot is not None:
        initialize(fs, snapshot)
    outcome = play(fs, config)
    state_digest = None
    if digest:
        from repro.verify.abstract import fs_digest

        state_digest = fs_digest(fs)
    fs.stack.close()  # free the machine now, not at a full collection
    return outcome, state_digest


def profile_once(fields, benchmark):
    """:func:`replay_once` of ``benchmark`` under an
    :class:`~repro.obs.Observability`, then the critical path of that
    run over the dependencies its mode enforced (``no_reduce``: every
    edge, not the reduced sets): ``artc profile`` and the serve
    ``profile`` job.  Its report is the one ``replay`` gives for the
    same fields.  Returns ``(report, obs, critpath)``."""
    from repro.artc.replayer import replay
    from repro.obs import Observability, replay_critical_path

    reduced = not field(fields, "no_reduce")

    def play(fs, config):
        config.reduced_deps = reduced
        return replay(benchmark, fs, config)

    obs = Observability()
    report, _ = replay_once(fields, benchmark.snapshot, play, obs=obs, digest=False)
    return report, obs, replay_critical_path(benchmark, report, reduced=reduced)
