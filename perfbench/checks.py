"""Correctness checks on the program's outputs, computed apart from it.

Each check returns a list of human-readable problems (empty when the output
is correct), so a run can report every problem at once and the self-test
(``selftest.py``) can feed each check a deliberately wrong output.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

#: The reports that, at the benchmarked commit, render differently from the
#: committed ``results/<id>.txt``.  They are counted as failed operations
#: until a change fixes the drift or regenerates the committed reports.
KNOWN_REPORT_DRIFT = ("R2", "R9", "R10")


def check_cells_against_columns(
    tool_names: Sequence[str],
    cells: Sequence[tuple[int, int, int, int]],
    n_sites: int,
    n_vulnerable: int,
    where: str,
) -> list[str]:
    """Per tool: tp+fn equals the vulnerable sites, all four cells the sites.

    ``n_sites`` and ``n_vulnerable`` come from the decoded columns, not from
    the tool path that produced ``cells``.
    """
    problems = []
    for name, (tp, fp, fn, tn) in zip(tool_names, cells):
        if min(tp, fp, fn, tn) < 0:
            problems.append(f"{where} {name}: negative cell in {(tp, fp, fn, tn)}")
        if tp + fn != n_vulnerable:
            problems.append(
                f"{where} {name}: tp+fn={tp + fn}, columns say "
                f"{n_vulnerable} vulnerable sites"
            )
        if tp + fp + fn + tn != n_sites:
            problems.append(
                f"{where} {name}: cells sum to {tp + fp + fn + tn}, columns "
                f"say {n_sites} sites"
            )
    if len(cells) != len(tool_names):
        problems.append(f"{where}: {len(cells)} cell rows for {len(tool_names)} tools")
    return problems


def recount_cells(
    flagged: Iterable[object], sites: Iterable[object], vulnerable: Iterable[object]
) -> tuple[int, int, int, int]:
    """The four confusion cells by set arithmetic over one report."""
    flagged_set = set(flagged)
    site_set = set(sites)
    vulnerable_set = set(vulnerable)
    tp = len(flagged_set & vulnerable_set)
    fp = len(flagged_set - vulnerable_set)
    fn = len(vulnerable_set - flagged_set)
    tn = len(site_set) - tp - fp - fn
    return tp, fp, fn, tn


def check_recount(
    tool_names: Sequence[str],
    cells: Sequence[tuple[int, int, int, int]],
    recounts: Sequence[tuple[int, int, int, int]],
    where: str,
) -> list[str]:
    """The program's cells equal the benchmark's own recount, tool by tool."""
    return [
        f"{where} {name}: program cells {tuple(got)} != recount {tuple(want)}"
        for name, got, want in zip(tool_names, cells, recounts)
        if tuple(got) != tuple(want)
    ]


def check_report(rendered: str, committed: str | None, experiment_id: str) -> list[str]:
    """A rendered report equals the committed ``results/<id>.txt``."""
    if committed is None:
        return [f"{experiment_id}: no committed report to compare against"]
    if rendered == committed:
        return []
    for number, (got, want) in enumerate(
        zip(rendered.splitlines(), committed.splitlines()), start=1
    ):
        if got != want:
            return [
                f"{experiment_id}: line {number} renders {got.strip()!r}, "
                f"committed {want.strip()!r}"
            ]
    return [
        f"{experiment_id}: renders {len(rendered.splitlines())} lines, "
        f"committed {len(committed.splitlines())}"
    ]


def textbook_metrics(tp: float, fp: float, fn: float, tn: float) -> dict[str, float]:
    """Precision, recall, F1, informedness, markedness and MCC, by definition."""
    nan = float("nan")
    pre = tp / (tp + fp) if tp + fp else nan
    rec = tp / (tp + fn) if tp + fn else nan
    spc = tn / (tn + fp) if tn + fp else nan
    npv = tn / (tn + fn) if tn + fn else nan
    f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else nan
    denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / denom if denom else nan
    return {
        "PRE": pre,
        "REC": rec,
        "F1": f1,
        "INF": rec + spc - 1,
        "MRK": pre + npv - 1,
        "MCC": mcc,
    }


def check_metric_values(
    values: Mapping[str, Mapping[str, float]],
    confusions: Mapping[str, tuple[float, float, float, float]],
    tolerance: float = 1e-9,
) -> list[str]:
    """The suite's metric values equal the textbook formulas on its cells."""
    problems = []
    for tool, cells in confusions.items():
        for symbol, want in textbook_metrics(*cells).items():
            got = values.get(symbol, {}).get(tool)
            if got is None:
                problems.append(f"R4 reports no {symbol} for {tool}")
            elif math.isnan(want) != math.isnan(got) or (
                not math.isnan(want) and abs(got - want) > tolerance
            ):
                problems.append(
                    f"R4 {symbol}[{tool}] = {got!r}, textbook {want!r} "
                    f"from cells {cells}"
                )
    return problems


def check_backlogged(
    queued: Mapping[str, Sequence[tuple[float, float]]], start: float, end: float
) -> list[str]:
    """Every tenant had a job queued at every instant of ``[start, end]``.

    ``queued`` maps each tenant to its jobs' ``(submitted, dispatched)``
    intervals.  The fairness bound holds only over a window in which every
    compared tenant stays backlogged; a lane that empties voids it.
    """
    problems = []
    for tenant, intervals in queued.items():
        covered = start
        for submitted, dispatched in sorted(intervals):
            if submitted > covered:
                break
            covered = max(covered, dispatched)
        if covered < end:
            problems.append(
                f"backlog: {tenant} had nothing queued at {covered - start:.3f}s "
                f"into the window"
            )
    return problems


def check_fairness(
    served_units: Mapping[str, float],
    weights: Mapping[str, float],
    quantum: int,
    largest_job: int,
) -> list[str]:
    """Deficit round-robin bound over a backlogged window.

    Any two tenants' served units, each divided by its weight, differ by no
    more than two quanta plus the largest job (Shreedhar and Varghese,
    1996).  A window that does not start and end on rotation boundaries
    catches each tenant with a deficit anywhere below one quantum plus its
    head job, so one quantum plus the largest job holds only for aligned
    windows.
    """
    bound = 2 * quantum + largest_job
    normalized = {
        tenant: units / weights.get(tenant, 1.0)
        for tenant, units in served_units.items()
    }
    if len(normalized) < 2:
        return ["fairness: fewer than two tenants were served in the window"]
    low = min(normalized, key=normalized.__getitem__)
    high = max(normalized, key=normalized.__getitem__)
    gap = normalized[high] - normalized[low]
    if gap > bound:
        return [
            f"fairness: {high} served {normalized[high]:.0f} weighted units, "
            f"{low} {normalized[low]:.0f}; gap {gap:.0f} > bound {bound}"
        ]
    return []


def check_totals(server: Mapping[str, object], reference: Mapping[str, object], where: str) -> list[str]:
    """A served result's totals equal an in-process run of the same spec."""
    if dict(server) == dict(reference):
        return []
    keys = sorted(k for k in set(server) | set(reference) if server.get(k) != reference.get(k))
    return [f"{where}: served totals differ from the in-process run in {keys}"]
