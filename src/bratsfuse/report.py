"""Aggregate statistics and model ranking over ``metrics.CaseMetrics`` rows.

Summaries report mean, population standard deviation, median, and the 25/75
quantiles (linear interpolation) per metric per region. Models (one row
each, its ``case_id`` holding the model name) rank by their region-averaged
DSC, descending; DSC ties (within 5e-5, the printed rounding resolution)
break by region-averaged HD95 ascending, then by name.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyList
from .metrics import REGION_ORDER, CaseMetrics, percentile

__all__ = ["summarize", "rank_models", "format_summary_table", "format_ranking_table"]

DSC_TIE_TOL = 5e-5
_STAT_LABELS = {"mean": "Mean", "stddev": "StdDev", "median": "Median",
                "q25": "25quantile", "q75": "75quantile"}


def _stats(values: np.ndarray) -> dict[str, float]:
    return {"mean": float(values.mean()), "stddev": float(values.std()),  # population
            "median": percentile(values, 50), "q25": percentile(values, 25),
            "q75": percentile(values, 75)}


def summarize(cases: list[CaseMetrics]) -> dict:
    """The summary-table statistics of per-case metrics:
    ``{"n_cases": n, "stats": {metric: {region: {stat: value}}}}``, with
    metrics "DSC" and "HD95" and the stats of ``_STAT_LABELS``."""
    if not cases:
        raise EmptyList("summarize needs at least one case")
    tables = {"DSC": [c.dsc for c in cases], "HD95": [c.hd95 for c in cases]}
    stats = {metric: {r: _stats(np.array([t[r] for t in ts])) for r in REGION_ORDER}
             for metric, ts in tables.items()}
    return {"n_cases": len(cases), "stats": stats}


def _mean(scores: dict[str, float]) -> float:
    """The region average of one metric of a row: a plain arithmetic mean."""
    return sum(scores[r] for r in REGION_ORDER) / len(REGION_ORDER)


def rank_models(models: list[CaseMetrics]) -> list[CaseMetrics]:
    """The rows of ``models`` (``case_id`` the model name) best first, by avg
    DSC descending, HD95 (then name) breaking ties; a model's rank is its
    position plus 1.

    Models whose avg DSC values differ by at most 5e-5 (chained) are treated
    as tied and reordered by avg HD95 ascending, then by name.
    """
    if not models:
        raise EmptyList("rank_models needs at least one model summary")
    ordered = sorted(models, key=lambda m: -_mean(m.dsc))
    groups: list[list[CaseMetrics]] = [[ordered[0]]]
    for m in ordered[1:]:
        if abs(_mean(groups[-1][-1].dsc) - _mean(m.dsc)) <= DSC_TIE_TOL:
            groups[-1].append(m)
        else:
            groups.append([m])
    return [m for g in groups for m in sorted(g, key=lambda m: (_mean(m.hd95), m.case_id))]


def format_summary_table(summary: dict) -> str:
    """Text table in the Mean/StdDev/Median/25quantile/75quantile layout of
    a :func:`summarize` dict."""
    dsc, hd95 = summary["stats"]["DSC"], summary["stats"]["HD95"]
    lines = [f"{'':12s}{'DSC':30s}{'HD95':30s}",
             " " * 12 + "".join(f"{r:>10s}" for r in REGION_ORDER * 2)]
    for stat, label in _STAT_LABELS.items():
        lines.append(f"{label:12s}" + "".join(f"{dsc[r][stat]:10.4f}" for r in REGION_ORDER)
                     + "".join(f"{hd95[r][stat]:10.2f}" for r in REGION_ORDER))
    return "\n".join(lines) + "\n"


def format_ranking_table(ranked: list[CaseMetrics]) -> str:
    """Text table of per-region and average scores of the models ``ranked``
    (best first, as :func:`rank_models` orders them) with each one's rank."""
    width = max(len("Model"), *(len(m.case_id) for m in ranked)) + 2
    head = (
        f"{'Model':<{width}}"
        + "".join(f"{'DSC_' + r:>10s}" for r in REGION_ORDER)
        + f"{'DSC_Avg':>10s}"
        + "".join(f"{'HD95_' + r:>10s}" for r in REGION_ORDER)
        + f"{'HD95_Avg':>10s}{'Rank':>6s}"
    )
    lines = [head]
    for rank, m in enumerate(ranked, 1):
        lines.append(
            f"{m.case_id:<{width}}"
            + "".join(f"{m.dsc[r]:10.4f}" for r in REGION_ORDER)
            + f"{_mean(m.dsc):10.4f}"
            + "".join(f"{m.hd95[r]:10.2f}" for r in REGION_ORDER)
            + f"{_mean(m.hd95):10.2f}{rank:6d}"
        )
    return "\n".join(lines) + "\n"
