"""Human-readable diagnostics over the run-manifest ledger.

Backs ``repro obs runs`` (ledger table), ``repro obs report`` (one
run's post-mortem: identity, throughput, fault and cache counters,
adaptive trajectories, ASCII latency histograms from the final merged
metrics snapshot), and ``repro obs diff`` (two runs side by side:
config/version changes, wall-clock and counter deltas, histogram
count/mean shifts) for regression triage.  Pure formatting over
:mod:`repro.obs.manifest` dicts — stdlib only, no registry access, so
rendering a report can never touch a live run.
"""

from __future__ import annotations

import time
from typing import Any

__all__ = [
    "diff_lines",
    "render_diff",
    "render_run_report",
    "render_runs_table",
]

_BAR_WIDTH = 24


def _table(headers: "list[str]", rows: "list[list[str]]") -> "list[str]":
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        )
    return lines


def _fmt_when(unix: "float | None") -> str:
    if unix is None:
        return "-"
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(unix))


def _fmt_num(value: "float | int | None", digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.{digits}g}"


def _nonzero_faults(manifest: "dict[str, Any]") -> "dict[str, Any]":
    """The manifest's fault counters that are not zero.

    Dropping zeros lets a manifest that still carries a retired slot
    (``serial_recovered_chunks``) diff clean against a newer one.
    """
    faults = manifest.get("execution", {}).get("faults", {})
    return {key: value for key, value in faults.items() if value}


def _histogram_mean(data: "dict[str, Any]") -> "float | None":
    count = data.get("count", 0)
    if not count:
        return None
    return float(data.get("sum", 0.0)) / count


# -- ledger table ------------------------------------------------------------


def render_runs_table(manifests: "list[dict[str, Any]]") -> str:
    """One line per manifest: id, status, command, age, wall clock."""
    if not manifests:
        return "no runs in ledger"
    rows = []
    for manifest in manifests:
        rows.append([
            str(manifest.get("run_id", "?")),
            str(manifest.get("status", "?")),
            str(manifest.get("command") or "-"),
            _fmt_when(manifest.get("started_unix")),
            _fmt_num(manifest.get("wall_clock_s"), 4) + (
                " s" if manifest.get("wall_clock_s") is not None else ""
            ),
            str(manifest.get("execution", {}).get("trials", 0)),
        ])
    return "\n".join(
        _table(["run", "status", "command", "started", "wall", "trials"], rows)
    )


# -- single-run report -------------------------------------------------------


def render_run_report(manifest: "dict[str, Any]") -> str:
    lines: "list[str]" = []
    run_id = manifest.get("run_id", "?")
    lines.append(f"run {run_id} ({manifest.get('status', '?')})")
    argv = manifest.get("argv")
    if argv:
        lines.append(f"  argv: {' '.join(str(a) for a in argv)}")
    lines.append(
        f"  version: {manifest.get('version', '?')}"
        f"   python: {manifest.get('python', '?')}"
        f"   config: {manifest.get('config_fingerprint') or '-'}"
    )
    wall = manifest.get("wall_clock_s")
    lines.append(
        f"  started: {_fmt_when(manifest.get('started_unix'))}"
        f"   wall clock: {_fmt_num(wall)}{' s' if wall is not None else ''}"
        f"   exit code: {_fmt_num(manifest.get('exit_code'))}"
    )

    execution = manifest.get("execution", {})
    trials = execution.get("trials", 0)
    seconds = execution.get("seconds", 0.0)
    lines.append("")
    lines.append("executor")
    rate = f" ({trials / seconds:.1f} trials/s)" if seconds and trials else ""
    lines.append(
        f"  {execution.get('maps', 0)} map call(s), "
        f"{execution.get('chunks', 0)} chunk(s), {trials} trial(s)"
        f" in {_fmt_num(seconds)} s{rate}"
    )
    faults = execution.get("faults", {})
    lines.append(
        "  faults: "
        f"{faults.get('retries', 0)} retries, "
        f"{faults.get('pool_rebuilds', 0)} pool rebuilds, "
        f"{faults.get('timeouts', 0)} timeouts"
    )
    events = manifest.get("fault_events", [])
    for event in events[:8]:
        lines.append(f"    event: {event}")
    if len(events) > 8 or manifest.get("fault_events_dropped", 0):
        hidden = len(events) - 8 + manifest.get("fault_events_dropped", 0)
        lines.append(f"    ... {hidden} more fault event(s)")

    store = manifest.get("store", {})
    if any(store.get(k, 0) for k in ("hits", "misses", "puts")):
        lines.append("")
        lines.append("store")
        probes = store.get("hits", 0) + store.get("misses", 0)
        rate_text = (
            f" ({store.get('hits', 0) / probes:.0%} hit rate)" if probes else ""
        )
        lines.append(
            f"  {store.get('hits', 0)} hits / {store.get('misses', 0)} misses"
            f" / {store.get('puts', 0)} puts{rate_text};"
            f" {store.get('fingerprints_seen', 0)} distinct fingerprint(s)"
        )

    sweeps = manifest.get("sweeps", [])
    if sweeps:
        lines.append("")
        lines.append("sweeps")
        rows = [
            [
                str(s.get("label", "?")),
                str(s.get("points", 0)),
                str(s.get("store_hits", 0)),
                str(s.get("store_misses", 0)),
            ]
            for s in sweeps
        ]
        lines.extend(
            "  " + line
            for line in _table(["label", "points", "hits", "misses"], rows)
        )

    adaptive = manifest.get("adaptive", [])
    if adaptive:
        lines.append("")
        lines.append("adaptive stopping")
        for trajectory in adaptive[:16]:
            ci = (
                f"[{_fmt_num(trajectory.get('ci_low'))}, "
                f"{_fmt_num(trajectory.get('ci_high'))}]"
            )
            lines.append(
                f"  {trajectory.get('frames', 0)} frames in "
                f"{trajectory.get('rounds', 0)} round(s), stop="
                f"{trajectory.get('reason', '?')}, ci={ci}"
            )
        if len(adaptive) > 16 or manifest.get("adaptive_dropped", 0):
            hidden = len(adaptive) - 16 + manifest.get("adaptive_dropped", 0)
            lines.append(f"  ... {hidden} more trajectory(ies)")

    histograms = manifest.get("metrics", {}).get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("latency histograms")
        for name, data in histograms.items():
            mean = _histogram_mean(data)
            lines.append(
                f"  {name}: n={data.get('count', 0)}"
                f" mean={_fmt_num(mean)}"
                f" min={_fmt_num(data.get('min'))}"
                f" max={_fmt_num(data.get('max'))}"
            )
            edges = list(data.get("edges", ()))
            buckets = list(data.get("bucket_counts", ()))
            peak = max(buckets) if buckets else 0
            labels = [f"<= {_fmt_num(e)}" for e in edges] + ["> last"]
            label_width = max((len(l) for l in labels), default=0)
            for label, bucket in zip(labels, buckets):
                if not bucket:
                    continue
                bar = "#" * max(1, round(_BAR_WIDTH * bucket / peak))
                lines.append(
                    f"    {label.ljust(label_width)}  {bar} {bucket}"
                )

    counters = manifest.get("metrics", {}).get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters")
        for name, value in counters.items():
            lines.append(f"  {name} = {_fmt_num(value)}")
    return "\n".join(lines)


# -- run diff ----------------------------------------------------------------


def diff_lines(a: "dict[str, Any]", b: "dict[str, Any]") -> "list[str]":
    lines: "list[str]" = []
    lines.append(
        f"diff {a.get('run_id', '?')} -> {b.get('run_id', '?')}"
    )

    def field(label: str, key: str) -> None:
        left, right = a.get(key), b.get(key)
        if left == right:
            lines.append(f"  {label}: {left if left is not None else '-'} (unchanged)")
        else:
            lines.append(f"  {label}: {left} -> {right}  [CHANGED]")

    field("version", "version")
    field("config fingerprint", "config_fingerprint")
    argv_a = a.get("argv") or []
    argv_b = b.get("argv") or []
    if argv_a == argv_b:
        lines.append("  argv: unchanged")
    else:
        lines.append(f"  argv: {' '.join(map(str, argv_a))}")
        lines.append(f"     -> {' '.join(map(str, argv_b))}")
    wall_a, wall_b = a.get("wall_clock_s"), b.get("wall_clock_s")
    if wall_a and wall_b:
        change = (wall_b - wall_a) / wall_a * 100.0
        lines.append(
            f"  wall clock: {_fmt_num(wall_a)} s -> {_fmt_num(wall_b)} s"
            f" ({change:+.1f}%)"
        )

    store_a = a.get("store", {})
    store_b = b.get("store", {})
    lines.append(
        "  store: "
        f"hits {store_a.get('hits', 0)} -> {store_b.get('hits', 0)}, "
        f"misses {store_a.get('misses', 0)} -> {store_b.get('misses', 0)}, "
        f"puts {store_a.get('puts', 0)} -> {store_b.get('puts', 0)}"
    )
    faults_a, faults_b = _nonzero_faults(a), _nonzero_faults(b)
    if faults_a != faults_b:
        lines.append(f"  faults: {faults_a} -> {faults_b}  [CHANGED]")

    counters_a = a.get("metrics", {}).get("counters", {})
    counters_b = b.get("metrics", {}).get("counters", {})
    names = sorted(set(counters_a) | set(counters_b))
    deltas = []
    for name in names:
        left = counters_a.get(name, 0)
        right = counters_b.get(name, 0)
        if left != right:
            deltas.append([
                name, _fmt_num(left), _fmt_num(right), _fmt_num(right - left),
            ])
    if deltas:
        lines.append("")
        lines.append("counter deltas")
        lines.extend(
            "  " + line for line in _table(["counter", "a", "b", "delta"], deltas)
        )

    gauges_a = a.get("metrics", {}).get("gauges", {})
    gauges_b = b.get("metrics", {}).get("gauges", {})
    changed = [
        [name, _fmt_num(gauges_a.get(name)), _fmt_num(gauges_b.get(name))]
        for name in sorted(set(gauges_a) | set(gauges_b))
        if gauges_a.get(name) != gauges_b.get(name)
    ]
    if changed:
        lines.append("")
        lines.append("gauge changes")
        lines.extend(
            "  " + line for line in _table(["gauge", "a", "b"], changed)
        )

    hists_a = a.get("metrics", {}).get("histograms", {})
    hists_b = b.get("metrics", {}).get("histograms", {})
    rows = []
    for name in sorted(set(hists_a) | set(hists_b)):
        left = hists_a.get(name, {})
        right = hists_b.get(name, {})
        if left.get("count") == right.get("count") and left.get("sum") == right.get("sum"):
            continue
        rows.append([
            name,
            f"{left.get('count', 0)} -> {right.get('count', 0)}",
            f"{_fmt_num(_histogram_mean(left))} -> {_fmt_num(_histogram_mean(right))}",
        ])
    if rows:
        lines.append("")
        lines.append("histogram changes")
        lines.extend(
            "  " + line for line in _table(["histogram", "count", "mean"], rows)
        )
    return lines


def render_diff(a: "dict[str, Any]", b: "dict[str, Any]") -> str:
    return "\n".join(diff_lines(a, b))
