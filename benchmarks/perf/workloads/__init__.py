"""The benchmark's workloads, one module each.

A workload module is data plus one function:

- ``NAME``, ``WHY`` (one line; copied into ``BENCHMARK.json``);
- ``SOURCE`` / ``TARGET``: platform names (trace there, replay here);
- ``build_app(seed, quick)``: the application to trace for this seed
  (``quick``: an eighth the size, for the harness self-test);
- ``CORES``: replay cores timed as interleaved tuples;
- ``SHARES``: fraction of the measuring time each phase gets, untraced
  (``False``) and traced (``True``); the traced run keeps the rest for
  its profile and extra passes;
- ``MODES`` / ``SHARD``: whether the traced run also times the other
  replay modes / the shard core on this workload;
- ``SERVE(seed, index, quick)``: the params of serve cell ``index``
  (``None`` when the workload bypasses the daemon); a serve workload
  also sets ``WORKERS``, ``CONNECTIONS``, ``WARM_CELLS``, ``COLD_REQUESTS``.
"""

from workloads import (
    big_trace,
    ldb_fillsync,
    ldb_readrandom,
    meta_churn,
    serve_warm2,
)

WORKLOADS = {
    module.NAME: module
    for module in (
        meta_churn, ldb_readrandom, ldb_fillsync, big_trace, serve_warm2
    )
}
