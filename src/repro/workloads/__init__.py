"""Workloads: the applications that get traced and replayed.

- :mod:`repro.workloads.base` -- the Application abstraction
- :mod:`repro.workloads.microbench` -- the section 5.2.1 feedback-loop
  microbenchmarks (workload parallelism, cache-sensitive reader,
  competing sequential readers, the log follower)
- :mod:`repro.workloads.magritte` -- 34 synthetic Apple-desktop-style
  traces forming the Magritte suite
"""

from repro.workloads.base import Application
from repro.workloads.microbench import (
    CacheSensitiveReaders,
    CompetingSequentialReaders,
    ParallelRandomReaders,
)

__all__ = [
    "Application",
    "ParallelRandomReaders",
    "CacheSensitiveReaders",
    "CompetingSequentialReaders",
]
