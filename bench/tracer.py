"""Per-layer tracing of clfgame from outside the package.

`Tracer.install` wraps every public function and public classmethod defined
in a `clfgame` module and puts the wrapper at every binding site: the
defining module, every module that bound the name with `from ... import`,
the package namespace, and module-level dicts that captured the function
(such as the CLI's preset dispatch table).  Each wrapped call is a span
with a parent; a layer's self time is its spans' durations minus the time
covered by their child spans, so the recursive `tree_traverse` is counted
once per level, never twice.  Layers are the module names.

Methods of instances are not wrapped: their time counts to the layer that
called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from pathlib import Path

#: Calls inside which a `proportional_choice` draw decides a realized play.
PLAY_KEYS = frozenset({"tree.game_play", "tree.play_batch"})
#: Spans kept in memory for one traced invocation.
SPAN_CAP = 20_000

#: (name, unit) of every per-layer metric, in report order.  Counts and
#: self times are per traced experiment; `Tracer.totals` computes them.
LAYER_METRICS = (
    ("tree.traversals", "count/exp"),
    ("tree.draws", "count/exp"),
    ("tree.useful_draw_ratio", "ratio"),
    ("tree.self_s", "s/exp"),
    ("tree.draw.self_s", "s/exp"),
    ("tree.plays", "count/exp"),
    ("tree.game_play.self_s", "s/exp"),
    ("tree.play.self_s", "s/exp"),
    ("oracle.queries", "count/exp"),
    ("oracle.classify.calls", "count/exp"),
    ("oracle.self_s", "s/exp"),
    ("selection.bne.calls", "count/exp"),
    ("selection.ucb.calls", "count/exp"),
    ("selection.self_s", "s/exp"),
    ("game.calls", "count/exp"),
    ("game.self_s", "s/exp"),
    ("belief.record.calls", "count/exp"),
    ("belief.refresh.calls", "count/exp"),
    ("belief.refresh.self_s", "s/exp"),
    ("belief.kl.calls", "count/exp"),
    ("belief.self_s", "s/exp"),
    ("selfplay.runs", "count/exp"),
    ("selfplay.self_s", "s/exp"),
    ("presets.runs", "count/exp"),
    ("presets.self_s", "s/exp"),
    ("reports.rows", "count/exp"),
    ("reports.bytes", "B/exp"),
    ("reports.self_s", "s/exp"),
    ("config.self_s", "s/exp"),
    ("cli.self_s", "s/exp"),
)


class Tracer:
    """Call counts, self time and extra counters per wrapped function.

    Counters are cumulative; `snapshot` and `totals` give the values
    one experiment added.  Spans are kept in memory only while `spans` is a
    list, up to SPAN_CAP of them.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}   # key -> [calls, self seconds]
        self.counters = {"tree.traversals": 0, "tree.useful_draws": 0,
                         "oracle.queries": 0, "reports.rows": 0,
                         "reports.bytes": 0}
        self.spans: list[tuple] | None = None
        self._stack: list[list] = []      # frames: [key, child seconds, span id]
        self._next_span = 0
        self._play_depth = 0
        self._wrappers: dict[int, tuple] = {}
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        marks_play = key in PLAY_KEYS
        hook = _HOOKS.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0, tracer._next_span]
            tracer._next_span += 1
            stack.append(frame)
            if marks_play:
                tracer._play_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if marks_play:
                    tracer._play_depth -= 1
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                spans = tracer.spans
                if spans is not None and len(spans) < SPAN_CAP:
                    spans.append((frame[2], None if parent is None else parent[2],
                                  key, start, end))
            if hook is not None:
                hook(tracer, args, kwargs, result, parent)
            return result

        return wrapper

    def _set(self, container, name, value) -> None:
        if isinstance(container, dict):
            self._patches.append((container, name, container[name]))
            container[name] = value
        else:
            self._patches.append((container, name, container.__dict__[name]))
            setattr(container, name, value)

    def install(self) -> None:
        """Wrap every public clfgame function at every binding site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [module for name, module in sorted(sys.modules.items())
                   if name.startswith("clfgame.")]
        if not modules:
            raise RuntimeError("clfgame is not imported")
        package = sys.modules["clfgame"]
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{layer}.{attr}"
                    self._wrappers[id(obj)] = (obj, self._wrap(key, obj))
                elif inspect.isclass(obj):
                    for name, member in list(vars(obj).items()):
                        if isinstance(member, classmethod) and not name.startswith("_"):
                            key = f"{layer}.{attr}.{name}"
                            self._set(obj, name, classmethod(self._wrap(key, member.__func__)))
        for module in [package, *modules]:
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if self._original(obj):
                    self._set(namespace, attr, self._wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for name, value in list(obj.items()):
                        if self._original(value):
                            self._set(obj, name, self._wrappers[id(value)][1])

    def _original(self, obj) -> bool:
        entry = self._wrappers.get(id(obj))
        return entry is not None and entry[0] is obj

    def uninstall(self) -> None:
        for container, name, original in reversed(self._patches):
            if isinstance(container, dict):
                container[name] = original
            else:
                setattr(container, name, original)
        self._patches.clear()
        self._wrappers.clear()

    # -- reading ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative calls, self seconds and counters, for differencing."""
        return {"stats": {k: tuple(v) for k, v in self.stats.items()},
                "counters": dict(self.counters)}

    def totals(self, since: dict | None = None) -> dict[str, float]:
        """Raw layer quantities accumulated since a snapshot (or ever)."""
        base_stats = since["stats"] if since else {}
        base_counters = since["counters"] if since else {}
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for key, (n, seconds) in self.stats.items():
            n0, s0 = base_stats.get(key, (0, 0.0))
            calls[key] = n - n0
            self_s[key] = seconds - s0
        counters = {k: v - base_counters.get(k, 0) for k, v in self.counters.items()}

        def n(*keys):
            return sum(calls.get(k, 0) for k in keys)

        def s(*keys):
            return sum(self_s.get(k, 0.0) for k in keys)

        def layer_s(layer):
            return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

        draws = n("tree.proportional_choice")
        return {
            "tree.traversals": counters["tree.traversals"],
            "tree.draws": draws,
            "tree.useful_draws": counters["tree.useful_draws"],
            "tree.useful_draw_ratio": counters["tree.useful_draws"] / draws if draws else 0.0,
            "tree.self_s": s("tree.tree_traverse", "tree.rollout", "tree.select_best_child"),
            "tree.draw.self_s": s("tree.proportional_choice"),
            "tree.plays": n("tree.game_play"),
            "tree.game_play.self_s": s("tree.game_play"),
            "tree.play.self_s": s("tree.play_batch"),
            "oracle.queries": counters["oracle.queries"],
            "oracle.classify.calls": n("oracle.classify"),
            "oracle.self_s": layer_s("oracle"),
            "selection.bne.calls": n("selection.bne_select"),
            "selection.ucb.calls": n("selection.ucb_select_learner",
                                     "selection.ucb_select_adversary"),
            "selection.self_s": layer_s("selection"),
            "game.calls": n("game.pure_learner_utilities", "game.adversary_utilities",
                            "game.Strategy.pure"),
            "game.self_s": layer_s("game"),
            "belief.record.calls": n("belief.record_observation"),
            "belief.refresh.calls": n("belief.refresh_marginal"),
            "belief.refresh.self_s": s("belief.refresh_marginal"),
            "belief.kl.calls": n("belief.kl_divergence"),
            "belief.self_s": layer_s("belief"),
            "selfplay.runs": n("selfplay.self_play"),
            "selfplay.self_s": layer_s("selfplay"),
            "presets.runs": sum(v for k, v in calls.items() if k.startswith("presets.preset_")),
            "presets.self_s": layer_s("presets"),
            "reports.rows": counters["reports.rows"],
            "reports.bytes": counters["reports.bytes"],
            "reports.self_s": layer_s("reports"),
            "config.self_s": layer_s("config"),
            "cli.self_s": layer_s("cli"),
        }


def _count_traversal(tracer, args, kwargs, result, parent):
    if parent is None or parent[0] != "tree.tree_traverse":
        tracer.counters["tree.traversals"] += 1


def _count_draw(tracer, args, kwargs, result, parent):
    if tracer._play_depth:
        tracer.counters["tree.useful_draws"] += 1


def _count_queries(tracer, args, kwargs, result, parent):
    tracer.counters["oracle.queries"] += int(kwargs["q"] if "q" in kwargs else args[1])


def _count_report(tracer, args, kwargs, result, parent):
    rows = kwargs["rows"] if "rows" in kwargs else args[0]
    tracer.counters["reports.rows"] += len(rows)
    tracer.counters["reports.bytes"] += sum(Path(p).stat().st_size for p in result)


_HOOKS = {
    "tree.tree_traverse": _count_traversal,
    "tree.proportional_choice": _count_draw,
    "oracle.generate_queries": _count_queries,
    "reports.write_report": _count_report,
}
