"""Layer timing from outside the program: wrap public functions, keep spans.

The traced run installs :class:`LayerTracer` around the public entry points
of each layer (column decode, materialization, every tool's ``analyze``,
scoring, the streaming fold, and the suite's inner stages).  Each call
becomes one span — name, start, end, parent — kept in memory and written
out when the run ends.  A layer's *self time* is its spans' durations minus
the part their child spans cover, so nested layers (an ensemble running its
member tools, a property check calling the bootstrap) are never counted
twice.  Nothing under ``src/`` is modified; :meth:`LayerTracer.uninstall`
restores every original binding.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: Tool classes whose ``analyze`` is a layer, keyed by their module.
TOOL_CLASSES = (
    ("repro.tools.taint_analyzer", "TaintAnalyzer"),
    ("repro.tools.pattern_scanner", "PatternScanner"),
    ("repro.tools.simulated", "SimulatedTool"),
    ("repro.tools.dynamic_injector", "DynamicInjector"),
    ("repro.tools.ensemble", "EnsembleTool"),
    ("repro.tools.sca_matcher", "ScaMatcher"),
)

#: Module-level functions wrapped as layers: (module, function, layer).
FUNCTIONS = (
    ("repro.workload.columnar", "decode_columns", "workload.columnar.decode"),
    ("repro.workload.columnar", "materialize_workload",
     "workload.columnar.materialize"),
    ("repro.bench.campaign", "score_report", "bench.campaign.score"),
    ("repro.experts.elicitation", "validate_scenario",
     "experts.elicitation.validate_scenario"),
    ("repro.scenarios.adequacy", "rank_metrics_for_scenario",
     "scenarios.adequacy.rank_metrics"),
    ("repro.stats.bootstrap", "bootstrap_metric",
     "stats.bootstrap.bootstrap_metric"),
)

#: Methods wrapped as layers: (module, class, method, layer).
METHODS = (
    ("repro.bench.streaming", "CampaignAccumulator", "fold",
     "bench.streaming.fold"),
    ("repro.experts.expert", "Expert", "judge", "experts.expert.judge"),
    ("repro.mcda.ahp", "AhpHierarchy", "compose", "mcda.ahp.compose"),
) + tuple(
    (module, cls, "analyze", f"tools.{module.rsplit('.', 1)[1]}.analyze")
    for module, cls in TOOL_CLASSES
)

#: Every property check's ``assess`` reports under this one layer.
ASSESS_LAYER = "properties.checks.assess"

CAMPAIGN_LAYERS = (
    "workload.columnar.decode",
    "workload.columnar.materialize",
    *(f"tools.{module.rsplit('.', 1)[1]}.analyze" for module, _ in TOOL_CLASSES),
    "bench.campaign.score",
    "bench.streaming.fold",
)
SUITE_LAYERS = (
    "experts.elicitation.validate_scenario",
    "experts.expert.judge",
    "mcda.ahp.compose",
    "scenarios.adequacy.rank_metrics",
    "stats.bootstrap.bootstrap_metric",
    ASSESS_LAYER,
)
ALL_LAYERS = CAMPAIGN_LAYERS + SUITE_LAYERS


class LayerTracer:
    """In-memory span recorder over wrapped layer entry points."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        """``(layer, start, end, parent span index or -1)``."""
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    # -- recording ------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            spans.append((layer, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, spans[index][3])

        return traced

    # -- installation ---------------------------------------------------------
    def install(self) -> "LayerTracer":
        """Wrap every layer entry point (modules must be importable)."""
        import importlib

        for module_name, attr, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._rebind_everywhere(original, self._wrap(layer, original))
        for module_name, cls_name, method, layer in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch_attr(cls, method, self._wrap(layer, vars(cls)[method]))
        from repro.properties.base import MetricProperty

        importlib.import_module("repro.properties.checks")
        importlib.import_module("repro.properties.qualitative")
        pending = list(MetricProperty.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "assess" in vars(cls):
                self._patch_attr(
                    cls, "assess", self._wrap(ASSESS_LAYER, vars(cls)["assess"])
                )
        return self

    def _patch_attr(self, owner: Any, attr: str, value: Any) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _rebind_everywhere(self, original: Any, wrapped: Any) -> None:
        """Replace every ``repro.*`` module binding of ``original``.

        Callers that did ``from module import function`` hold their own
        binding; rebinding only the defining module would miss them.
        """
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch_attr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def paired(self, index: int, call: Callable[[], Any]) -> tuple[Any, Any]:
        """``(untraced, traced)`` results of ``call``, run once each.

        The untraced call goes first on even ``index`` and second on odd,
        so neither side of the tracing-overhead comparison always runs warm.
        """
        def traced() -> Any:
            self.install()
            try:
                return call()
            finally:
                self.uninstall()

        if index % 2 == 0:
            plain = call()
            return plain, traced()
        wrapped = traced()
        return call(), wrapped

    # -- analysis -------------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, summed over every span of the layer."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (layer, start, end, _) in enumerate(self.spans):
            totals[layer] += (end - start) - child[index]
        return {layer: totals.get(layer, 0.0) for layer in ALL_LAYERS}

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for layer, *_ in self.spans:
            counts[layer] += 1
        return {layer: counts.get(layer, 0) for layer in ALL_LAYERS}

    def campaign_ms(self, shards: int) -> dict[str, float]:
        """Campaign layers' self time in ms per shard (0 when none ran)."""
        self_s = self.self_seconds()
        return {
            f"{name}_ms": 1000 * self_s[name] / shards if shards else 0.0
            for name in CAMPAIGN_LAYERS
        }

    def summary(self, layers: tuple[str, ...], untraced: float, traced: float) -> dict[str, float]:
        """Coverage and tracing overhead, each with its bases.

        ``untraced`` and ``traced`` are the walls of the same work run
        without and with the wrappers; ``layers`` names the layers whose
        self time the coverage sums.
        """
        self_s = self.self_seconds()
        layer_sum = sum(self_s[name] for name in layers)
        return {
            "trace.layers_s": layer_sum,
            "trace.untraced_wall_s": untraced,
            "trace.traced_wall_s": traced,
            "trace.coverage": layer_sum / untraced,
            "trace.overhead": traced / untraced - 1,
        }

    def write(self, path: Path) -> None:
        """Dump the spans as TSV: layer, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("layer\tstart_s\tend_s\tparent\n")
            for layer, start, end, parent in self.spans:
                handle.write(f"{layer}\t{start:.9f}\t{end:.9f}\t{parent}\n")
