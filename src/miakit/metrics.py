"""Mission-level outcome metrics and cross-replication statistics.

One :class:`MissionMetrics` per replication, Student-t confidence intervals
across replications, and attack-versus-baseline comparison with a
configurable significance threshold on the reduction in completed plans.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import Iterable, Sequence

from .fields import MiakitError, ValidationError

SIGNIFICANT_REDUCTION = 0.10

CSV_HEADER = (
    "replication,plans_completed,plans_corrupted_undetected,corrupted_fraction,"
    "mean_completion_delay_s,blocked_s,attack_duration_s,confidentiality_exposure_s"
)


class EmptyInput(MiakitError):
    pass


class BaselineZero(MiakitError):
    pass


@dataclass(frozen=True, slots=True)
class MissionMetrics:
    plans_completed: int
    plans_corrupted_undetected: int
    corrupted_fraction: float
    mean_completion_delay_s: float
    blocked_s: float
    attack_duration_s: float
    confidentiality_exposure_s: float


METRIC_NAMES = [f.name for f in fields(MissionMetrics)]


def collect(mission_result, attack_timeline=None) -> MissionMetrics:
    """Reduce final work-item records and the attack timeline to metrics.

    ``mean_completion_delay_s`` is the mean creation-to-completion time of
    finished items; the delay attributable to an attack is the delta of this
    value against the baseline run (see :func:`compare`).
    """
    items = mission_result.items
    blocked = mission_result.blocked_time.values()
    completed = [i for i in items if i.outcome == "completed_clean"]
    corrupted = [i for i in items if i.outcome == "completed_corrupted"]
    finished = completed + corrupted
    if finished:
        mean_completion = sum(i.completed_at - i.created_at for i in finished) / len(finished)
    else:
        mean_completion = 0.0

    attack_s = 0.0
    exposure_s = 0.0
    if attack_timeline is not None:
        from .threat import attack_duration, MissingOnset

        try:
            duration = attack_duration(attack_timeline)
            attack_s = duration.seconds
        except MissingOnset:
            attack_s = 0.0
        exposure_s = _confidentiality_exposure(attack_timeline)

    return MissionMetrics(
        plans_completed=len(completed),
        plans_corrupted_undetected=len(corrupted),
        # The literal when nothing was corrupted: callers that keep many rows
        # then share one 0.0 instead of holding a new float per row.
        corrupted_fraction=len(corrupted) / len(finished) if corrupted else 0.0,
        mean_completion_delay_s=mean_completion,
        # Likewise a task's own 0.0 when nothing was blocked (0 with no tasks).
        blocked_s=sum(blocked) or next(iter(blocked), 0),
        attack_duration_s=attack_s,
        confidentiality_exposure_s=exposure_s,
    )


def _confidentiality_exposure(timeline) -> float:
    onset = None
    exposure = 0.0
    for entry in timeline.entries:
        if entry.kind == "effect_onset" and entry.detail.startswith("confidentiality"):
            onset = entry.time
        elif entry.kind == "effect_end" and onset is not None:
            exposure += entry.time - onset
            onset = None
    if onset is not None:
        exposure += timeline.horizon - onset
    return exposure


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    stdev: float
    ci_halfwidth: float | None
    min: float
    max: float
    n: int


@dataclass
class ReplicationSummary:
    n: int
    per_metric: dict[str, MetricSummary]

    def __getitem__(self, name: str) -> MetricSummary:
        return self.per_metric[name]


def aggregate(metrics: Sequence[MissionMetrics]) -> ReplicationSummary:
    """Mean, sample stdev, 95% t-interval half-width, min, max per metric."""
    if not metrics:
        raise EmptyInput("no replications to aggregate")
    n = len(metrics)
    if n >= 2:
        t = _t975(n - 1)
    per_metric: dict[str, MetricSummary] = {}
    for name in METRIC_NAMES:
        values = [float(getattr(m, name)) for m in metrics]
        # fsum keeps the result independent of replication order.
        mean = math.fsum(values) / n
        if n >= 2:
            var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
            stdev = math.sqrt(var)
            half = t * stdev / math.sqrt(n)
        else:
            stdev = 0.0
            half = None
        per_metric[name] = MetricSummary(mean, stdev, half, min(values), max(values), n)
    return ReplicationSummary(n, per_metric)


def _t975(df: int) -> float:
    """The 0.975 quantile of Student's t with ``df`` >= 1 degrees of freedom.

    Closed forms for df 1 and 2.  Above df 500, Fisher's expansion in
    powers of 1/df (Abramowitz & Stegun 26.7.5), whose first omitted term
    is below 2e-14 of the quantile there.  In between, Newton steps from
    that expansion on the exact finite-sum CDF (A&S 26.7.3-4), so no call
    sums more than 250 terms, whatever df is.
    """
    if df == 1:
        return 1.0 / math.tan(math.pi / 40)
    if df == 2:
        return 0.95 / math.sqrt(2 * 0.975 * 0.025)
    z = NormalDist().inv_cdf(0.975)
    z2, n = z * z, float(df)
    g1 = (z2 + 1) / 4
    g2 = ((5 * z2 + 16) * z2 + 3) / 96
    g3 = (((3 * z2 + 19) * z2 + 17) * z2 - 15) / 384
    g4 = ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) / 92160
    t = z * (1 + (g1 + (g2 + (g3 + g4 / n) / n) / n) / n)
    if df > 500:
        return t
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - math.log(df * math.pi) / 2
    for _ in range(10):
        density = math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))
        step = (0.95 - _t_central(t, df)) / (2 * density)
        t += step
        if abs(step) < 1e-12 * t:
            break
    return t


def _t_central(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer ``df`` >= 3 (A&S 26.7.3-4)."""
    theta = math.atan(t / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    term = total = 1.0
    for k in range(1 + df % 2, df - 2, 2):
        term *= c2 * k / (k + 1)
        total += term
    if df % 2:
        return (theta + math.sin(theta) * math.cos(theta) * total) * 2 / math.pi
    return math.sin(theta) * total


@dataclass
class ComparisonReport:
    deltas: dict[str, float]
    percent_reduction: float
    significant: bool
    threshold: float


def compare(
    attack: ReplicationSummary,
    baseline: ReplicationSummary,
    threshold: float = SIGNIFICANT_REDUCTION,
) -> ComparisonReport:
    """Attack-minus-baseline deltas and the completed-plans reduction.

    The significance flag trips when mean plans_completed drops by at least
    ``threshold`` (default 10%) relative to baseline.
    """
    base_mean = baseline["plans_completed"].mean
    if base_mean == 0:
        raise BaselineZero("baseline completed no plans; reduction undefined")
    deltas = {
        name: attack[name].mean - baseline[name].mean for name in METRIC_NAMES
    }
    reduction = (base_mean - attack["plans_completed"].mean) / base_mean
    return ComparisonReport(
        deltas=deltas,
        percent_reduction=reduction,
        significant=reduction >= threshold,
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# Serialization


def metrics_csv(metrics: Iterable[MissionMetrics]) -> str:
    lines = [CSV_HEADER]
    for k, m in enumerate(metrics):
        lines.append(
            f"{k},{m.plans_completed},{m.plans_corrupted_undetected},"
            f"{m.corrupted_fraction!r},{m.mean_completion_delay_s!r},"
            f"{m.blocked_s!r},{m.attack_duration_s!r},{m.confidentiality_exposure_s!r}"
        )
    return "\n".join(lines) + "\n"


def parse_metrics_csv(text: str) -> list[MissionMetrics]:
    """The rows of a :func:`metrics_csv` document, blank lines skipped; a bad
    line is a :class:`~miakit.fields.ValidationError` naming it (``line 2``)."""
    rows = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    header_no, header = rows[0] if rows else (1, "")
    if header.strip() != CSV_HEADER:
        raise ValidationError(f"line {header_no}", f"metrics CSV header must be {CSV_HEADER!r}")
    out = []
    for n, ln in rows[1:]:
        parts = ln.split(",")
        if len(parts) != 8:
            raise ValidationError(f"line {n}", f"expected 8 fields, got {len(parts)}")
        try:
            out.append(MissionMetrics(int(parts[1]), int(parts[2]), *map(float, parts[3:])))
        except ValueError as exc:
            raise ValidationError(f"line {n}", str(exc)) from None
    return out


def summary_text(summary: ReplicationSummary, title: str = "summary") -> str:
    buf = io.StringIO()
    buf.write(f"{title} (n={summary.n})\n")
    for name in METRIC_NAMES:
        s = summary[name]
        ci = f" ci95=+/-{s.ci_halfwidth:.4g}" if s.ci_halfwidth is not None else ""
        buf.write(
            f"  {name}: mean={s.mean:.6g} stdev={s.stdev:.4g}{ci}"
            f" min={s.min:.6g} max={s.max:.6g}\n"
        )
    return buf.getvalue()


def comparison_text(report: ComparisonReport) -> str:
    buf = io.StringIO()
    buf.write("attack vs baseline\n")
    for name in METRIC_NAMES:
        buf.write(f"  delta {name}: {report.deltas[name]:+.6g}\n")
    buf.write(
        f"  percent_reduction_plans_completed: {report.percent_reduction * 100:.2f}%\n"
    )
    flag = "yes" if report.significant else "no"
    buf.write(f"  significant (>= {report.threshold * 100:.0f}% reduction): {flag}\n")
    return buf.getvalue()
