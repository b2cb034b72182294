"""Static verification for replay (``artc verify``).

Two engines over one compiled benchmark:

- **translation validation** (:mod:`repro.verify.transval`): prove the
  replay cores' specializations -- gates and release written out per
  action, bound constants, conformance coverage -- faithful to the
  scoreboard semantics, and emit a machine-checkable
  :class:`Certificate` per (benchmark, core);
- **abstract replay** (:mod:`repro.verify.abstract`): predict per-mode
  errno outcomes and the final FS-state digest without running the
  simulator -- a trace-order run of the replayer's own per-action body
  on the concrete VFS with the timing removed (the null machine),
  valid for a mode iff its race closure is empty, reporting
  ``UNKNOWN`` instead of ever guessing.

:func:`verify_benchmark` runs both, folds the results into the lint
reporting machinery (:class:`repro.lint.report.LintReport`), and --
with ``dynamic=True`` -- cross-checks every exact prediction against a
real replay, turning any contradiction into an ``error`` finding.
Both sides of that check share the VFS, so it tests mode gating,
schedule-independence and widening soundness, not errno semantics.
"""

from typing import Any, Dict, List, Optional, Sequence

from repro.core.modes import ReplayMode
from repro.lint.report import (
    ERROR,
    INFO,
    Finding,
    LintReport,
    PassResult,
)
from repro.verify.abstract import (
    UNKNOWN,
    Prediction,
    capture_entries,
    digest_of_entries,
    fs_digest,
    predict,
    predict_all,
)
from repro.verify.transval import CORES, Certificate, certify

__all__ = [
    "UNKNOWN",
    "CORES",
    "Certificate",
    "Prediction",
    "VerifyResult",
    "capture_entries",
    "certify",
    "cross_check",
    "digest_of_entries",
    "fs_digest",
    "predict",
    "predict_all",
    "verify_benchmark",
]


class VerifyResult(object):
    """Aggregate outcome of one ``artc verify`` run."""

    __slots__ = ("report", "certificates", "predictions")

    def __init__(self, report: LintReport,
                 certificates: Sequence[Certificate],
                 predictions: Sequence[Prediction]) -> None:
        self.report = report
        self.certificates = list(certificates)
        self.predictions = list(predictions)

    @property
    def ok(self) -> bool:
        return bool(self.report.clean)

    @property
    def exit_code(self) -> int:
        return int(self.report.exit_code)

    def to_dict(self) -> Dict[str, Any]:
        out = self.report.to_dict()
        out["certificates"] = [c.to_dict() for c in self.certificates]
        out["predictions"] = [p.to_dict() for p in self.predictions]
        return out

    def __repr__(self) -> str:
        return "<VerifyResult %s: %d certificates, %d predictions>" % (
            "ok" if self.ok else "REJECTED",
            len(self.certificates), len(self.predictions),
        )


def cross_check(benchmark: Any, prediction: Prediction, platform: Any,
                seed: int = 0, max_findings: int = 25) -> List[Finding]:
    """Replay ``benchmark`` dynamically under ``prediction.mode`` and
    report every place the static prediction *contradicts* reality.

    ``UNKNOWN`` outcomes and skipped dynamic actions are exempt by
    design; everything else -- per-action errnos and the final-state
    digest -- must agree exactly, so any finding here is a soundness
    bug in the abstract interpreter's gating or widening (or a
    schedule-dependence in the replay it just caught).
    """
    from repro.artc.init import initialize
    from repro.artc.replayer import ReplayConfig, replay

    fs = platform.make_fs(seed=seed)
    if prediction.target != fs.platform:
        prediction = predict(benchmark, prediction.mode, target=fs.platform)
    if benchmark.snapshot is not None:
        initialize(fs, benchmark.snapshot)
    findings: List[Finding] = []
    try:
        report = replay(benchmark, fs, ReplayConfig(mode=prediction.mode))
    except Exception as exc:
        if prediction.status == "exact":
            findings.append(Finding(
                "abstract-dynamic-crash", ERROR,
                "mode %s: prediction is exact but dynamic replay "
                "crashed: %r" % (prediction.mode, exc),
                detail={"mode": prediction.mode, "error": repr(exc)},
            ))
        return findings
    for result in report.results:
        out = prediction.outcomes[result.idx]
        if out == UNKNOWN or result.skipped:
            continue
        if out != result.err:
            if len(findings) < max_findings:
                findings.append(Finding(
                    "abstract-errno-contradiction", ERROR,
                    "mode %s: action #%d (%s) predicted %s but dynamic "
                    "replay returned %s"
                    % (prediction.mode, result.idx, result.name,
                       out or "success", result.err or "success"),
                    actions=(result.idx,),
                    detail={"mode": prediction.mode,
                            "predicted": out, "dynamic": result.err},
                ))
    if prediction.digest is not None:
        dynamic_digest = fs_digest(fs)
        if dynamic_digest != prediction.digest:
            findings.append(Finding(
                "abstract-digest-contradiction", ERROR,
                "mode %s: predicted final-state digest %s.. but dynamic "
                "replay left %s.."
                % (prediction.mode, prediction.digest[:16],
                   dynamic_digest[:16]),
                detail={"mode": prediction.mode,
                        "predicted": prediction.digest,
                        "dynamic": dynamic_digest},
            ))
    return findings


def verify_benchmark(benchmark: Any, cores: Optional[Sequence[str]] = None,
                     modes: Optional[Sequence[str]] = None,
                     dynamic: bool = False, platform: Any = None,
                     seed: int = 0,
                     max_findings: int = 25,
                     jobs: Optional[int] = None) -> VerifyResult:
    """Run both verification engines over ``benchmark``.

    - ``cores``: replay cores to certify (default: all three);
    - ``modes``: replay modes to predict (default: all four);
    - ``dynamic``/``platform``/``seed``: when ``dynamic`` is true,
      cross-check each prediction against a real replay on
      ``platform`` (required; a ``repro.bench`` platform object);
    - ``jobs``: additionally certify the shard core's partition plan
      for that worker count (:mod:`repro.verify.shardcheck`).

    Certificate violations and cross-check contradictions are
    ``error`` findings (exit code 1); ``UNKNOWN`` predictions are
    advisory ``info`` findings and never fail the run.
    """
    if dynamic and platform is None:
        raise ValueError("dynamic cross-check requires a platform")
    report = LintReport(label=benchmark.label or "")
    certificates: List[Certificate] = []
    for core in (cores or CORES):
        cert = certify(benchmark, core, max_findings=max_findings)
        certificates.append(cert)
        report.add(PassResult(
            "transval:%s" % core, cert.findings,
            {"obligations": cert.n_obligations,
             "certified": int(cert.ok)},
        ))
    if jobs:
        from repro.verify.shardcheck import shard_pass

        report.add(shard_pass(benchmark, jobs, max_findings=max_findings))

    target: Optional[str] = platform.os_flavor if dynamic else None
    predictions = predict_all(benchmark, sorted(modes or ReplayMode.ALL),
                              target=target)
    findings: List[Finding] = []
    for pred in predictions:
        if pred.status == "exact":
            continue
        findings.append(Finding(
            "abstract-unknown", INFO,
            "mode %s: prediction widened to UNKNOWN (%s) for %d/%d "
            "actions" % (pred.mode, pred.reason, pred.n_unknown,
                         len(pred.outcomes)),
            detail={"mode": pred.mode, "reason": pred.reason,
                    "widened_at": pred.widened_at},
        ))
    if dynamic:
        for pred in predictions:
            findings.extend(cross_check(
                benchmark, pred, platform, seed=seed,
                max_findings=max_findings,
            ))
    report.add(PassResult(
        "abstract", findings,
        {"modes": len(predictions),
         "exact": sum(1 for p in predictions if p.status == "exact"),
         "unknown_actions": sum(p.n_unknown for p in predictions),
         "cross_checked": int(dynamic)},
    ))
    return VerifyResult(report, certificates, predictions)
