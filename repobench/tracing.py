"""Per-layer cost attribution, measured from outside the program.

A traced repetition runs under :mod:`cProfile` with a ``gc.callbacks``
hook; neither is installed on untraced runs.  Self time (``tottime``)
is summed into layers by module prefix, public counters are read off
the live objects once the repetition ends, and GC pauses are timed
per generation.
"""

from __future__ import annotations

import cProfile
import gc
import time
from pathlib import Path

#: module prefix -> layer, matched longest prefix first at a dot
#: boundary.  Every module under ``src/repro`` must match one entry
#: (``check_layer_map`` enforces it).
LAYER_MAP: tuple[tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.net.tcp", "tcp"),
    ("repro.net", "net"),
    ("repro.iscsi", "iscsi"),
    ("repro.core.relay", "relay"),
    ("repro.core.middlebox", "relay"),
    ("repro.core.semantics", "services"),
    ("repro.core.ha", "ha"),
    ("repro.core", "control"),
    ("repro.cloud", "control"),
    ("repro.services", "services"),
    ("repro.crypto", "services"),
    ("repro.blockdev", "storage"),
    ("repro.fs", "storage"),
    ("repro.objstore", "storage"),
    ("repro.obs", "obs"),
    ("repro.analysis", "obs"),
    ("repro.faults", "faults"),
    ("repro.integrity", "integrity"),
    ("repro.fleet", "fleet"),
    ("repro.workloads", "workloads"),
    # the static analyzer never runs inside a workload
    ("repro.lint", "other"),
)

LAYERS = (
    "sim", "net", "tcp", "iscsi", "relay", "services", "storage", "control",
    "ha", "obs", "faults", "integrity", "fleet", "workloads", "other",
)

#: public counters summed over every live instance of a class (by
#: class name, so a module move does not break the benchmark); a
#: counter the program no longer exposes reads 0
COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("net.link_packets", "Interface", "tx_packets"),
    ("net.switch_packets", "Switch", "packets_switched"),
    ("tcp.retransmits", "TcpSocket", "retransmits"),
    ("iscsi.commands_served", "IscsiTarget", "commands_served"),
    ("iscsi.relogins", "IscsiSession", "relogins"),
    ("relay.pdus_relayed", "ActiveRelay", "pdus_relayed"),
    ("relay.pdus_replayed", "ActiveRelay", "pdus_replayed"),
    ("relay.packets_copied", "PassiveRelay", "packets_copied"),
    ("faults.dropped", "LinkFaults", "dropped"),
    ("obs.spans", "ObsBus", "spans_started"),
    ("obs.events", "ObsBus", "events_emitted"),
)

#: call counts read from the profile: (metric, source file, function)
CALL_COUNTS = (
    ("ha.ship_mark_calls", "repro/core/ha.py", "ship_mark"),
    ("ha.apply_calls", "repro/core/ha.py", "apply"),
    ("ha.node_calls", "repro/core/ha.py", "node"),
)


def layer_of(module: str) -> str | None:
    best = None
    for prefix, layer in LAYER_MAP:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


def repro_modules(src: Path) -> list[str]:
    """Every module under ``src/repro`` except the package root."""
    names = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if len(parts) > 1:
            names.append(".".join(parts))
    return names


def check_layer_map(src: Path) -> list[str]:
    """Failures: no modules found, or a module no layer claims."""
    modules = repro_modules(src)
    if not modules:
        return [f"layer_map_complete (no modules under {src / 'repro'})"]
    return [f"layer_map_complete ({m} maps to no layer)" for m in modules if layer_of(m) is None]


class _GcTimer:
    """``gc.callbacks`` hook: pause time and collections per generation."""

    def __init__(self) -> None:
        self.pause = 0.0
        self.gen2_pause = 0.0
        self.collections = [0, 0, 0]
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        pause = time.perf_counter() - self._start
        self.pause += pause
        generation = info["generation"]
        self.collections[generation] += 1
        if generation == 2:
            self.gen2_pause += pause


class Tracer:
    """Profiler plus GC hook, switched on around the phases of one
    repetition, and the benchmark's own phase spans."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.src = self.root / "src"
        self.profile = cProfile.Profile()
        self.gc = _GcTimer()
        self.spans: list[dict] = []
        self._origin = 0.0

    def start(self) -> None:
        if not self._origin:
            self._origin = time.perf_counter()
        gc.callbacks.append(self.gc)
        self.profile.enable()

    def stop(self) -> None:
        self.profile.disable()
        gc.callbacks.remove(self.gc)

    def span(self, name: str, parent: str | None, start: float, end: float) -> None:
        self.spans.append({
            "name": name, "parent": parent,
            "start_s": start - self._origin, "end_s": end - self._origin,
            "duration_s": end - start,
        })

    # -- attribution ------------------------------------------------------

    def _file_layer(self, filename: str) -> str | None:
        """The layer of a file under ``src/repro``, ``other`` for the
        rest of the repository (the benchmark, its harness), ``None``
        for code from outside it (C builtins, the standard library)."""
        path = Path(filename)
        if not path.is_absolute():
            return None
        path = path.resolve()
        if not path.is_relative_to(self.root):
            return None
        if not path.is_relative_to(self.src):
            return "other"
        parts = path.relative_to(self.src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        return layer_of(module) or "other"

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """``<layer>.self_s/.calls/.share`` plus the profile call counts.

        Code from outside the repository (C builtins, the standard
        library) is charged to the layer of its caller, following the
        costliest caller up until a repository frame.
        """
        self.profile.create_stats()
        stats = self.profile.stats
        layers = {func: self._file_layer(func[0]) for func in stats}
        home: dict = {}

        def resolve(func, seen) -> str:
            layer = layers.get(func)
            if layer is not None:
                return layer
            if func in home:
                return home[func]
            callers = stats[func][4] if func in stats else {}
            if func in seen or not callers:
                return "other"
            seen.add(func)
            top = max(callers, key=lambda caller: callers[caller][2])
            home[func] = resolve(top, seen)
            return home[func]

        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for func, (_cc, nc, tt, _ct, callers) in stats.items():
            if layers[func] is not None or not callers:
                layer = resolve(func, set())
                self_s[layer] += tt
                calls[layer] += nc
                continue
            for caller, (_c_cc, c_nc, c_tt, _c_ct) in callers.items():
                layer = resolve(caller, set())
                self_s[layer] += c_tt
                calls[layer] += c_nc
        total = sum(self_s.values()) or 1.0
        metrics: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (self_s[layer], "s")
            metrics[f"{layer}.calls"] = (calls[layer], "count")
            metrics[f"{layer}.share"] = (self_s[layer] / total, "ratio")
        for name, path, function in CALL_COUNTS:
            count = sum(
                stat[1] for func, stat in stats.items()
                if func[0].endswith(path) and func[2] == function
            )
            metrics[name] = (count, "count")
        metrics["ha.ship_mark_calls_per_op"] = (
            metrics.pop("ha.ship_mark_calls")[0] / ops, "count/op"
        )
        metrics["gc.pause_s"] = (self.gc.pause, "s")
        metrics["gc.gen2_pause_s"] = (self.gc.gen2_pause, "s")
        metrics["gc.share"] = (self.gc.pause / total, "ratio")
        for generation, count in enumerate(self.gc.collections):
            metrics[f"gc.collections_gen{generation}"] = (count, "count")
        return metrics


def read_counters(ops: int, events: int) -> dict[str, tuple[float, str]]:
    """Public counters summed over the live objects of the traced
    repetition (earlier repetitions are collected before it starts)."""
    wanted: dict[str, list[tuple[str, str]]] = {}
    for metric, cls, attr in COUNTERS:
        wanted.setdefault(cls, []).append((metric, attr))
    totals = {metric: 0 for metric, _cls, _attr in COUNTERS}
    records = 0
    for obj in gc.get_objects():
        name = type(obj).__name__
        if name in wanted:
            for metric, attr in wanted[name]:
                totals[metric] += getattr(obj, attr, 0)
            if name == "ObsBus":
                records += len(obj.records)
    metrics: dict[str, tuple[float, str]] = {
        metric: (value, "count") for metric, value in totals.items()
    }
    metrics["obs.records_retained"] = (records, "count")
    metrics["sim.events"] = (events, "count")
    metrics["sim.events_per_op"] = (events / ops, "count/op")
    packets = totals["net.link_packets"]
    metrics["net.packets_per_op"] = (packets / ops, "count/op")
    return metrics
