"""System-call knowledge base.

- :mod:`repro.syscalls.registry` -- specs for 90+ calls across Linux,
  Darwin, FreeBSD, and Illumos: semantic kind, Figure-10 category,
  platform availability.
- :mod:`repro.syscalls.execute` -- one executor used both when tracing a
  live workload and when replaying a compiled benchmark, so replayed
  semantics match traced semantics by construction.
- :mod:`repro.syscalls.emulation` -- ARTC's 19 cross-platform
  pseudo-call emulations (Darwin-only calls replayed elsewhere).
"""

from repro.syscalls.registry import REGISTRY, SyscallSpec, spec_for
from repro.syscalls.execute import perform

__all__ = ["REGISTRY", "SyscallSpec", "spec_for", "perform"]
