"""In-memory span tracer installed from outside the program.

The tracer wraps public functions of ``dynevo`` by patching each name
where the program looks it up (a class attribute, or the module global
that the caller reads), so the program itself carries no tracing code.

Every wrapped call adds to two aggregates: ``calls`` and ``self_s``, the
call's duration minus the time spent in wrapped calls it made. Calls to
the coarse functions in ``SPAN_NAMES`` are also kept as spans
``(id, parent, name, start, end, pid)``; the hot per-step functions are
aggregated only, because one span per env step would not fit in memory.

Pool workers are forked after the wrappers are installed, so they run
the wrapped code too. A worker ships its spans and aggregates back with
each ``_evaluate_one`` result: the result is pickled through
``_Shipped.__reduce__``, whose unpickling in the parent files the
shipment in the tracer's inbox and hands the program the plain result.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
from collections import defaultdict
from time import perf_counter

import dynevo.cli
import dynevo.envs
import dynevo.evolution
import dynevo.netgraph
import dynevo.rng

# Stage spans: the steps a generation blocks on, used for the coverage
# check against the traced wall time.
STAGES = (
    "evolution.variation",
    "evolution.evaluate",
    "evolution.select",
    "evolution.save_checkpoint",
    "evolution.load_checkpoint",
    "evolution.test_elite",
)
SPAN_NAMES = frozenset(STAGES + ("cli.main", "envs.run_episode_set"))

# Functions timed per layer; each yields ``<layer>.<function>.calls``
# and ``<layer>.<function>.self_s``.
LAYERS = {
    "netgraph": ("forward", "mutate", "perturb_parameters", "reset_state", "serialize"),
    "envs": ("step", "reset", "standardizer", "decode_action", "run_episode_set"),
    "rng": ("derive_stream", "randrange", "normal_array"),
    "evolution": ("variation", "evaluate", "select", "clone", "test_elite",
                  "save_checkpoint", "load_checkpoint"),
    "cli": ("main",),
}

# The tracer that receives worker shipments while it is installed.
_ACTIVE = None


class Tracer:
    """Span and aggregate store for one traced round."""

    def __init__(self) -> None:
        self.home = self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.inbox: list = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # recording

    def _leaf(self, name, fn):
        """Wrapper for a function that makes no wrapped calls."""
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                calls[name] += 1
                self_s[name] += dur
                if stack:
                    stack[-1][1] += dur

        return traced

    def _node(self, name, fn, after=None):
        """Wrapper for a function whose wrapped callees are subtracted.

        ``after(result, span_id, start, end)`` runs once the call has
        returned, outside the measured interval.
        """
        keep = name in SPAN_NAMES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    self.spans.append((span_id, parent, name, start, end, self.pid))
            if after is not None:
                after(result, span_id, start, end)
            return result

        return traced

    # ------------------------------------------------------------------
    # hooks with extra counters

    def _after_mutate(self, outcome, *_):
        self.counters["netgraph.mutate.applied"] += bool(outcome.applied)
        self.counters["netgraph.mutate.cascade_removed"] += outcome.info.get(
            "cascade_removed", 0
        )

    def _after_save(self, data, *_):
        self.counters["evolution.save_checkpoint.bytes"] += len(data)

    def _before_evaluate(self, fn):
        @functools.wraps(fn)
        def evaluate(pop, cfg, spec, pool=None):
            if pool is not None:
                seeds = dynevo.evolution.episode_seeds_for(pop.generation, spec)
                self.counters["evolution.pool.bytes"] += sum(
                    len(pickle.dumps((a.genome, a.standardizer, cfg.task, seeds)))
                    for a in pop.agents
                )
            return fn(pop, cfg, spec, pool)

        return evaluate

    def _after_evaluate(self, _result, span_id, start, end):
        """File this evaluation's worker shipments under its span.

        Every result has been unpickled once ``evaluate`` returns, so the
        inbox holds exactly this call's shipments.
        """
        shipments, self.inbox = self.inbox, []
        if not shipments:
            return
        busy: dict[int, float] = defaultdict(float)
        for spans, calls, self_s, counters in shipments:
            for _sid, _parent, name, s, e, pid in spans:
                self.spans.append((self._next_id, span_id, name, s, e, pid))
                self._next_id += 1
                if name == "envs.run_episode_set":
                    busy[pid] += e - s
            for k, v in calls.items():
                self.calls[k] += v
            for k, v in self_s.items():
                self.self_s[k] += v
            for k, v in counters.items():
                self.counters[k] += v
        self.counters["evolution.pool.wait_s"] += (end - start) - max(
            busy.values(), default=0.0
        )

    def _worker_side(self, fn):
        @functools.wraps(fn)
        def evaluate_one(payload):
            if os.getpid() == self.home:
                return fn(payload)
            if os.getpid() != self.pid:
                # A forked worker inherits the parent's open frames and
                # records; drop them.
                self.pid = os.getpid()
                self._stack.clear()
                self._drain()
            result = fn(payload)
            self.counters["evolution.pool.bytes"] += len(pickle.dumps(result))
            return _Shipped(result, self._drain())

        return evaluate_one

    def _drain(self) -> tuple:
        shipment = (self.spans, dict(self.calls), dict(self.self_s), dict(self.counters))
        self.spans = []
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()
        return shipment

    # ------------------------------------------------------------------
    # results

    def layer_metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``.

        Counts and self times are summed over the parent and the pool
        workers.
        """
        out = {}
        for layer, functions in LAYERS.items():
            for function in functions:
                key = f"{layer}.{function}"
                out[f"{key}.calls"] = (self.calls.get(key, 0), "count")
                out[f"{key}.self_s"] = (self.self_s.get(key, 0.0), "s")
        c = self.counters
        mutations = self.calls.get("netgraph.mutate", 0)
        applied = c["netgraph.mutate.applied"] / mutations if mutations else 0.0
        out["netgraph.mutate.applied_frac"] = (applied, "fraction")
        out["netgraph.mutate.cascade_removed"] = (
            int(c["netgraph.mutate.cascade_removed"]), "count")
        out["evolution.save_checkpoint.bytes"] = (
            int(c["evolution.save_checkpoint.bytes"]), "B")
        out["evolution.pool.bytes"] = (int(c["evolution.pool.bytes"]), "B-computed")
        out["evolution.pool.wait_s"] = (c["evolution.pool.wait_s"], "s")
        return out

    def stage_s(self) -> float:
        """Total duration of the parent's stage spans."""
        return sum(
            end - start
            for _, _, name, start, end, pid in self.spans
            if pid == self.home and name in STAGES
        )

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent, name, start, end, pid."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # ------------------------------------------------------------------
    # installation

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Patch every traced name; must run before any pool starts."""
        global _ACTIVE
        ev, envs, ng = dynevo.evolution, dynevo.envs, dynevo.netgraph
        net, env_cls = ng.DynamicNet, envs.ClassicControlEnv
        std, stream = envs.RunningStandardizer, dynevo.rng.RngStream
        leaves = [
            (net, "forward", "netgraph.forward"),
            (net, "reset_state", "netgraph.reset_state"),
            (net, "serialize", "netgraph.serialize"),
            (env_cls, "step", "envs.step"),
            (env_cls, "reset", "envs.reset"),
            (std, "update", "envs.standardizer"),
            (std, "apply", "envs.standardizer"),
            (envs, "decode_action", "envs.decode_action"),
            (ev, "derive_stream", "rng.derive_stream"),
            (stream, "randrange", "rng.randrange"),
            (stream, "normal_array", "rng.normal_array"),
        ]
        for owner, attr, name in leaves:
            self._patch(owner, attr, self._leaf(name, getattr(owner, attr)))
        nodes = [
            (net, "mutate", "netgraph.mutate", self._after_mutate),
            (net, "perturb_parameters", "netgraph.perturb_parameters", None),
            (ev, "run_episode_set", "envs.run_episode_set", None),
            (ev, "variation", "evolution.variation", None),
            (ev, "select", "evolution.select", None),
            (ev.Agent, "clone", "evolution.clone", None),
            (ev, "test_elite", "evolution.test_elite", None),
            (ev, "save_checkpoint", "evolution.save_checkpoint", self._after_save),
            (ev, "load_checkpoint", "evolution.load_checkpoint", None),
            (dynevo.cli, "load_checkpoint", "evolution.load_checkpoint", None),
            (dynevo.cli, "main", "cli.main", None),
        ]
        for owner, attr, name, after in nodes:
            self._patch(owner, attr, self._node(name, getattr(owner, attr), after))
        self._patch(
            ev, "evaluate",
            self._before_evaluate(
                self._node("evolution.evaluate", ev.evaluate, self._after_evaluate)
            ),
        )
        self._patch(ev, "_evaluate_one", self._worker_side(ev._evaluate_one))
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None


class _Shipped:
    """A worker result carrying the worker's trace records to the parent."""

    def __init__(self, result, shipment) -> None:
        self.result = result
        self.shipment = shipment

    def __reduce__(self):
        return _receive, (self.result, self.shipment)


def _receive(result, shipment):
    # Runs in the parent's result-reader thread: only append, which is
    # atomic; the main thread merges the inbox when ``evaluate`` returns.
    if _ACTIVE is not None:
        _ACTIVE.inbox.append(shipment)
    return result
