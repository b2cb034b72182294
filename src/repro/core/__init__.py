"""The ROOT trace model and ordering rules (paper sections 2-3).

- :mod:`repro.core.resources` -- resource keys and roles; a touch is a
  ``(key, role)`` pair
- :mod:`repro.core.rules` -- the stage / sequential / name rules (Table 1)
- :mod:`repro.core.modes` -- replay-mode matrix (Table 2)
- :mod:`repro.core.fsstate` -- ROOT's touch and generation rules: maps
  each trace action to the full set of resources it touches, asking the
  VFS on the null machine (:mod:`repro.vfs.null`) what each name means
- :mod:`repro.core.model` -- trace model: actions + touches + annotations
- :mod:`repro.core.deps` -- partial-order (dependency graph) construction
- :mod:`repro.core.analysis` -- action series, edge statistics, ordering
  validation
"""

from repro.core.resources import Role
from repro.core.rules import Rule
from repro.core.modes import ReplayMode, RuleSet
from repro.core.model import TraceModel

__all__ = ["Role", "Rule", "RuleSet", "ReplayMode", "TraceModel"]
