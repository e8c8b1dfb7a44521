"""Spans around the public entry points of each semidim layer.

The tracer rebinds functions and methods of the already imported package
from outside it, so the program under test is unchanged.  Every wrapped call
becomes one span (name, start, end, parent, run id) held in memory, with the
work counters of that call recorded at the same boundary.  The per-layer
metrics are computed from the spans alone, so they can be recomputed from
the file that :meth:`Tracer.write` leaves behind.

The program is serial at ``threads=1``: one stack of open spans is enough,
and no layer ever waits on another.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field

RUN_SPAN = "harness.run_scenario"

# Harness stages, keyed by the spans the harness calls directly.  The path
# simulated after the sojourn stage feeds the energy stage.
_STAGE_OF_CHILD = {
    "estimators.box": "box",
    "estimators.sojourn": "sojourn",
    "estimators.energy": "energy",
}

LAW_KINDS = ("STABLE_SYMMETRIC", "STABLE_ISOTROPIC_2D", "SEMISTABLE_DISCRETE")

# Every per-layer metric with its unit, in the order it is reported.
PER_LAYER_UNITS = {
    "trace.verdict_s": "s",
    "trace.overhead_s": "s",
    "harness.self_s": "s",
    "harness.box_stage_s": "s",
    "harness.sojourn_stage_s": "s",
    "harness.energy_stage_s": "s",
    "spectral.decompose.calls": "count",
    "spectral.decompose.busy_s": "s",
    "paths.simulate.calls": "count",
    "paths.simulate.grid_points": "count",
    "paths.simulate.busy_s": "s",
    "paths.simulate.self_s": "s",
    "paths.simulate.points_per_s": "1/s",
    "paths.graph_points.calls": "count",
    "paths.graph_points.busy_s": "s",
    **{
        f"laws.{kind}.{key}": unit
        for kind in LAW_KINDS
        for key, unit in (("increments", "count"), ("busy_s", "s"), ("increments_per_s", "1/s"))
    },
    "borel.mask.calls": "count",
    "borel.mask.points": "count",
    "borel.mask.busy_s": "s",
    "estimators.box.calls": "count",
    "estimators.box.busy_s": "s",
    "estimators.cubes.point_scales": "count",
    "estimators.cubes.busy_s": "s",
    "estimators.cubes.point_scales_per_s": "1/s",
    "estimators.cubes.occupied_share": "ratio",
    "estimators.sojourn.paths": "count",
    "estimators.sojourn.busy_s": "s",
    "estimators.sojourn.self_s": "s",
    "estimators.energy.pairs": "count",
    "estimators.energy.busy_s": "s",
    "estimators.energy.pairs_per_s": "1/s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    run: int
    work: dict = field(default_factory=dict)
    own_s: float = 0.0  # seconds the wrapper itself spent around the call

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _energy_pairs(est) -> int:
    """Pairs the dense near-pair loop evaluates: every small block and the
    large selection each compare all of their points with each other."""
    small, large = est.sizes
    return (large // small) * small**2 + large**2


class Tracer:
    """Installs span wrappers on semidim's layer entry points."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, work=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string or a function of the bound arguments; ``work``
        maps (bound arguments, result) to the call's counters and runs after
        the span has closed.
        """
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            bound = signature.bind(*args, **kwargs).arguments
            span = Span(
                name if isinstance(name, str) else name(bound),
                0.0,
                0.0,
                self._stack[-1] if self._stack else -1,
                self.run,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span.work = work(bound, result)
            span.own_s = span.start - entered + time.perf_counter() - span.end
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, fn, name: str, work=None) -> None:
        """Rebind ``fn`` in every semidim module that imported it by name."""
        traced = self.wrap(name, fn, work)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "semidim":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, traced)

    def install(self) -> None:
        from semidim import borel, estimators, harness, laws, paths, spectral

        self._patch_function(spectral.decompose, "spectral.decompose")
        self._patch_function(
            paths.simulate_path,
            "paths.simulate",
            lambda a, path: {"grid_points": int(path.times.size)},
        )
        self._patch_function(paths.empirical_fullness, "paths.fullness")
        self._patch_function(
            estimators.box_count_graph,
            "estimators.box",
            lambda a, est: {"occupied": int(est.counts.sum())},
        )
        self._patch_function(
            estimators.count_occupied_cubes,
            "estimators.cubes",
            lambda a, count: {"points": int(a["points"].shape[0])},
        )
        self._patch_function(
            estimators.sojourn_mc,
            "estimators.sojourn",
            lambda a, out: {"paths": int(a["ensemble"])},
        )
        self._patch_function(
            estimators.energy_dimension,
            "estimators.energy",
            lambda a, est: {"pairs": _energy_pairs(est)},
        )
        self._patch(
            paths.LevyPath,
            "graph_points",
            self.wrap("paths.graph_points", paths.LevyPath.graph_points),
        )
        self._patch(
            borel.BorelSetSpec,
            "mask",
            self.wrap(
                "borel.mask",
                borel.BorelSetSpec.mask,
                lambda a, mask: {"points": int(mask.size)},
            ),
        )
        self._patch(
            laws.BlockLaw,
            "sample_increments",
            self.wrap(
                lambda a: f"laws.{a['self'].kind.value}",
                laws.BlockLaw.sample_increments,
                lambda a, inc: {"increments": int(inc.shape[0])},
            ),
        )
        self._patch_function(harness.run_scenario, RUN_SPAN)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def read_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh]


def per_layer(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics, as means per traced ``run_scenario`` call.

    busy: seconds inside a layer's outermost spans.  self: busy minus the
    time of the spans nested directly inside.  The tracing overhead is the
    time the wrappers spent around the calls they recorded.
    """
    runs = [s for s in spans if s.name == RUN_SPAN]
    if not runs:
        raise ValueError(f"no {RUN_SPAN} span recorded")
    per_run = 1.0 / len(runs)

    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)

    def outermost(name: str) -> list[Span]:
        out = []
        for span in spans:
            if span.name != name:
                continue
            p = span.parent
            while p >= 0 and spans[p].name != name:
                p = spans[p].parent
            if p < 0:
                out.append(span)
        return out

    def busy(name: str) -> float:
        return sum(s.seconds for s in outermost(name)) * per_run

    def self_time(name: str) -> float:
        total = 0.0
        for i, span in enumerate(spans):
            if span.name == name:
                total += span.seconds - sum(c.seconds for c in children.get(i, ()))
        return total * per_run

    def calls(name: str) -> float:
        return sum(1 for s in spans if s.name == name) * per_run

    def work(name: str, key: str) -> float:
        return sum(s.work.get(key, 0) for s in spans if s.name == name) * per_run

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0.0 else 0.0

    stage_s = {"box": 0.0, "sojourn": 0.0, "energy": 0.0}
    for i, run in enumerate(spans):
        if run.name != RUN_SPAN:
            continue
        # a stage lasts from its first direct child's start to its last one's end
        bounds: dict[str, tuple[float, float]] = {}
        after_sojourn = False
        for child in children.get(i, ()):
            if child.name == "paths.simulate":
                stage = "energy" if after_sojourn else "box"
            else:
                stage = _STAGE_OF_CHILD.get(child.name)
            after_sojourn = after_sojourn or child.name == "estimators.sojourn"
            if stage is not None:
                lo, hi = bounds.get(stage, (child.start, child.end))
                bounds[stage] = (min(lo, child.start), max(hi, child.end))
        for stage, (lo, hi) in bounds.items():
            stage_s[stage] += hi - lo

    verdict_s = busy(RUN_SPAN)
    point_scales = work("estimators.cubes", "points")
    m = {
        "trace.verdict_s": verdict_s,
        "trace.overhead_s": sum(s.own_s for s in spans) * per_run,
        "harness.self_s": self_time(RUN_SPAN),
        "harness.box_stage_s": stage_s["box"] * per_run,
        "harness.sojourn_stage_s": stage_s["sojourn"] * per_run,
        "harness.energy_stage_s": stage_s["energy"] * per_run,
        "spectral.decompose.calls": calls("spectral.decompose"),
        "spectral.decompose.busy_s": busy("spectral.decompose"),
        "paths.simulate.calls": calls("paths.simulate"),
        "paths.simulate.grid_points": work("paths.simulate", "grid_points"),
        "paths.simulate.busy_s": busy("paths.simulate"),
        "paths.simulate.self_s": self_time("paths.simulate"),
        "paths.graph_points.calls": calls("paths.graph_points"),
        "paths.graph_points.busy_s": busy("paths.graph_points"),
        "borel.mask.calls": calls("borel.mask"),
        "borel.mask.points": work("borel.mask", "points"),
        "borel.mask.busy_s": busy("borel.mask"),
        "estimators.box.calls": calls("estimators.box"),
        "estimators.box.busy_s": busy("estimators.box"),
        "estimators.cubes.point_scales": point_scales,
        "estimators.cubes.busy_s": busy("estimators.cubes"),
        "estimators.cubes.occupied_share": rate(
            work("estimators.box", "occupied"), point_scales
        ),
        "estimators.sojourn.paths": work("estimators.sojourn", "paths"),
        "estimators.sojourn.busy_s": busy("estimators.sojourn"),
        "estimators.sojourn.self_s": self_time("estimators.sojourn"),
        "estimators.energy.pairs": work("estimators.energy", "pairs"),
        "estimators.energy.busy_s": busy("estimators.energy"),
    }
    m["paths.simulate.points_per_s"] = rate(
        m["paths.simulate.grid_points"], m["paths.simulate.busy_s"]
    )
    m["estimators.cubes.point_scales_per_s"] = rate(point_scales, m["estimators.cubes.busy_s"])
    m["estimators.energy.pairs_per_s"] = rate(
        m["estimators.energy.pairs"], m["estimators.energy.busy_s"]
    )
    for kind in LAW_KINDS:
        name = f"laws.{kind}"
        m[f"{name}.increments"] = work(name, "increments")
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.increments_per_s"] = rate(m[f"{name}.increments"], m[f"{name}.busy_s"])
    return {key: m[key] for key in PER_LAYER_UNITS}

