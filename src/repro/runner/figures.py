"""Figure registry: the paper's evaluation sweeps as run-spec batches.

Each :class:`Figure` names one Section 6 figure, expands to the exact
:class:`RunSpec` list the benchmark harness would execute for it, and
renders a paper-style table from the resulting artifacts' metrics --
no payload deserialization needed.  ``python -m repro bench`` fans the
union of the selected figures' specs through the
:class:`~repro.runner.pool.Runner` and renders each figure from the
artifact map.

Because ``benchmarks/harness.py`` builds its specs with the same
constructors, a ``repro bench`` sweep warms the cache for the pytest
benchmark suite and vice versa: the spec hashes are identical by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.report import format_table, geometric_mean
from repro.baselines import ConsistencyModel
from repro.core.modes import ExecutionMode
from repro.errors import ConfigurationError
from repro.runner.specs import RunSpec
from repro.workloads import SPLASH2_APPS, WORKLOAD_APPS

#: Default workload set: the SPLASH-2 stand-ins plus the commercial
#: apps, in the paper's presentation order.
DEFAULT_APPS = tuple(SPLASH2_APPS) + ("sjbb2k", "sweb2005")

_CHUNK_SIZES = (1000, 2000, 3000)


def _metrics(artifacts: dict, spec: RunSpec) -> dict | None:
    artifact = artifacts.get(spec.content_hash())
    return artifact["metrics"] if artifact else None


def _fmt(value, pattern="{:.2f}") -> str:
    return pattern.format(value) if value is not None else "n/a"


def _gm_row(label: str, per_app: dict, columns, apps) -> list:
    """Geometric-mean row over the SPLASH-2 subset of ``apps``."""
    splash = [app for app in apps if app in SPLASH2_APPS]
    row = [label]
    for column in columns:
        values = [per_app[app][column] for app in splash
                  if per_app[app].get(column) is not None]
        row.append(_fmt(geometric_mean(values)) if values else "n/a")
    return row


@dataclass(frozen=True)
class Figure:
    """One registered evaluation sweep."""

    name: str
    title: str
    specs: Callable[..., list]
    render: Callable[..., str]
    description: str = ""


def _log_size_specs(mode):
    def build(apps, scale, seed):
        return [RunSpec.record(app, mode, chunk_size=chunk_size,
                               scale=scale, seed=seed)
                for chunk_size in _CHUNK_SIZES for app in apps]
    return build


def _log_size_render(mode, title, raw_key, comp_key):
    def render(artifacts, apps, scale, seed):
        rows = []
        for chunk_size in _CHUNK_SIZES:
            per_app = {}
            for app in apps:
                metrics = _metrics(artifacts, RunSpec.record(
                    app, mode, chunk_size=chunk_size, scale=scale,
                    seed=seed))
                if metrics is None:
                    per_app[app] = {"raw": None, "comp": None}
                    continue
                norm = 1000.0 / max(
                    1, metrics["total_committed_instructions"])
                per_app[app] = {
                    "raw": metrics[raw_key] * norm,
                    "comp": metrics[comp_key] * norm,
                }
            for app in apps:
                rows.append([app, chunk_size,
                             _fmt(per_app[app]["raw"]),
                             _fmt(per_app[app]["comp"])])
            rows.append(_gm_row(f"SP2-G.M. (chunk {chunk_size})",
                                per_app, ("raw", "comp"), apps))
        return format_table(
            ["workload", "chunk", "bits raw", "bits comp"], rows,
            title=title)
    return render


def _fig10_specs(apps, scale, seed):
    specs = []
    for app in apps:
        specs.append(RunSpec.consistency(app, ConsistencyModel.RC,
                                         scale=scale, seed=seed))
        specs.append(RunSpec.consistency(app, ConsistencyModel.SC,
                                         scale=scale, seed=seed))
        for mode in (ExecutionMode.ORDER_AND_SIZE,
                     ExecutionMode.ORDER_ONLY, ExecutionMode.PICOLOG):
            specs.append(RunSpec.record(app, mode, scale=scale,
                                        seed=seed))
    return specs


_FIG10_BARS = ("RC", "Order&Size", "OrderOnly", "PicoLog", "SC")


def _fig10_render(artifacts, apps, scale, seed):
    per_app = {}
    for app in apps:
        rc = _metrics(artifacts, RunSpec.consistency(
            app, ConsistencyModel.RC, scale=scale, seed=seed))
        sc = _metrics(artifacts, RunSpec.consistency(
            app, ConsistencyModel.SC, scale=scale, seed=seed))
        modes = {
            "Order&Size": ExecutionMode.ORDER_AND_SIZE,
            "OrderOnly": ExecutionMode.ORDER_ONLY,
            "PicoLog": ExecutionMode.PICOLOG,
        }
        row = {"RC": 1.0 if rc else None}
        for bar, mode in modes.items():
            metrics = _metrics(artifacts, RunSpec.record(
                app, mode, scale=scale, seed=seed))
            row[bar] = (rc["cycles"] / metrics["cycles"]
                        if rc and metrics else None)
        row["SC"] = rc["cycles"] / sc["cycles"] if rc and sc else None
        per_app[app] = row
    rows = [[app] + [_fmt(per_app[app][bar]) for bar in _FIG10_BARS]
            for app in apps]
    rows.append(_gm_row("SP2-G.M.", per_app, _FIG10_BARS, apps))
    return format_table(
        ["app"] + list(_FIG10_BARS), rows,
        title="Figure 10 -- initial-execution speedup normalized "
              "to RC")


def _fig11_specs(apps, scale, seed):
    specs = []
    for app in apps:
        specs.append(RunSpec.consistency(app, ConsistencyModel.RC,
                                         scale=scale, seed=seed))
        for mode in (ExecutionMode.ORDER_ONLY, ExecutionMode.PICOLOG):
            specs.append(RunSpec.record(app, mode, scale=scale,
                                        seed=seed))
            specs.append(RunSpec.replay(app, mode, scale=scale,
                                        seed=seed))
        specs.append(RunSpec.replay(app, ExecutionMode.ORDER_ONLY,
                                    use_strata=True, scale=scale,
                                    seed=seed))
    return specs


_FIG11_BARS = ("OO exec", "OO replay", "StratOO replay", "Pico exec",
               "Pico replay")


def _fig11_render(artifacts, apps, scale, seed):
    per_app = {}
    verified = True
    for app in apps:
        rc = _metrics(artifacts, RunSpec.consistency(
            app, ConsistencyModel.RC, scale=scale, seed=seed))

        def speed(metrics):
            return (rc["cycles"] / metrics["cycles"]
                    if rc and metrics else None)

        oo_rec = _metrics(artifacts, RunSpec.record(
            app, ExecutionMode.ORDER_ONLY, scale=scale, seed=seed))
        pico_rec = _metrics(artifacts, RunSpec.record(
            app, ExecutionMode.PICOLOG, scale=scale, seed=seed))
        replays = {
            "OO replay": RunSpec.replay(
                app, ExecutionMode.ORDER_ONLY, scale=scale, seed=seed),
            "StratOO replay": RunSpec.replay(
                app, ExecutionMode.ORDER_ONLY, use_strata=True,
                scale=scale, seed=seed),
            "Pico replay": RunSpec.replay(
                app, ExecutionMode.PICOLOG, scale=scale, seed=seed),
        }
        row = {"OO exec": speed(oo_rec), "Pico exec": speed(pico_rec)}
        for bar, spec in replays.items():
            metrics = _metrics(artifacts, spec)
            row[bar] = speed(metrics)
            if metrics is not None and not metrics["matches"]:
                verified = False
        per_app[app] = row
    rows = [[app] + [_fmt(per_app[app][bar]) for bar in _FIG11_BARS]
            for app in apps]
    rows.append(_gm_row("SP2-G.M.", per_app, _FIG11_BARS, apps))
    table = format_table(
        ["app"] + list(_FIG11_BARS), rows,
        title="Figure 11 -- replay speedup normalized to RC")
    footer = ("all replays verified deterministic" if verified
              else "WARNING: at least one replay DIVERGED")
    return f"{table}\n{footer}"


FIGURES: dict[str, Figure] = {}


def _register(figure: Figure) -> Figure:
    FIGURES[figure.name] = figure
    return figure


_register(Figure(
    name="fig06",
    title="Figure 6: OrderOnly PI+CS log size",
    specs=_log_size_specs(ExecutionMode.ORDER_ONLY),
    render=_log_size_render(
        ExecutionMode.ORDER_ONLY,
        "Figure 6 -- OrderOnly PI+CS log size "
        "(bits/proc/kilo-instruction)",
        "total_bits_raw", "total_bits_compressed"),
    description="PI+CS log bits/proc/kinst at chunk 1000/2000/3000",
))

_register(Figure(
    name="fig07",
    title="Figure 7: PicoLog CS log size",
    specs=_log_size_specs(ExecutionMode.PICOLOG),
    render=_log_size_render(
        ExecutionMode.PICOLOG,
        "Figure 7 -- PicoLog CS log size "
        "(bits/proc/kilo-instruction)",
        "cs_bits_raw", "cs_bits_compressed"),
    description="CS log bits/proc/kinst at chunk 1000/2000/3000",
))

_register(Figure(
    name="fig10",
    title="Figure 10: initial-execution speed",
    specs=_fig10_specs,
    render=_fig10_render,
    description="record-mode speedups vs the RC and SC baselines",
))

_register(Figure(
    name="fig11",
    title="Figure 11: replay speed",
    specs=_fig11_specs,
    render=_fig11_render,
    description="replay speedups (plain, stratified, PicoLog) vs RC",
))


def resolve_figures(names) -> list[Figure]:
    """Map user-facing figure names to registry entries."""
    if not names:
        return list(FIGURES.values())
    figures = []
    for name in names:
        if name not in FIGURES:
            known = ", ".join(sorted(FIGURES))
            raise ConfigurationError(
                f"unknown figure {name!r} (known: {known})")
        figures.append(FIGURES[name])
    return figures


def specs_for(figures, apps=DEFAULT_APPS, scale: float = 1.0,
              seed: int = 11) -> list:
    """Deduplicated union of the figures' spec lists."""
    specs = []
    seen = set()
    for figure in figures:
        for spec in figure.specs(tuple(apps), scale, seed):
            spec_hash = spec.content_hash()
            if spec_hash not in seen:
                seen.add(spec_hash)
                specs.append(spec)
    return specs


def validate_apps(apps) -> tuple:
    """Check an ``--apps`` selection against the known workloads."""
    unknown = [app for app in apps if app not in WORKLOAD_APPS]
    if unknown:
        raise ConfigurationError(
            f"unknown app(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(WORKLOAD_APPS))})")
    return tuple(apps)
