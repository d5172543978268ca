"""Per-layer attribution for the traced benchmark run.

The simulator is not edited: :func:`install` wraps the public entry points
of each ``src/repro`` layer at runtime (module functions, class methods and
the attributes of one live simulation) and restores them afterwards.

Every wrapper pushes its layer on one nesting stack. Time between two stack
events is charged to the layer on top, in integer nanoseconds, so the
layers' self times add up exactly to the wall time of the traced rounds.
Whatever a round does outside every wrapped call (the simtime event loop,
hier orchestration, record assembly) stays on the root and is reported as
``round.self_s``.

Calls made outside a traced round (construction, the warm-up round) and
calls made in forked process-backend workers are passed straight through;
worker time comes back as the ``TaskResult`` train/compress seconds.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

from repro.compression.base import SparseUpdate
from repro.compression.registry import available_compressors, make_compressor
from repro.fl import simulation as fl_simulation
from repro.fl.client import Client
from repro.network.transport import FaultInjector, IngressPipe, Transport
from repro.population import ClientPool, Population
from repro.robust import aggregators as robust_aggregators

ROOT = "round"

#: Layers whose self times partition a traced round, in report order.
ROUND_LAYERS = (
    "client.train",
    "compression.compress",
    "population.hydrate",
    "core.sparse_sum",
    "core.overlap",
    "core.opwa",
    "core.server_step",
    "robust.aggregate",
    "exec.dispatch",
    "network.pricing",
    "network.resolve",
    "fl.sample",
    "fl.plan",
    "fl.evaluate",
    ROOT,
)

#: Layers timed while a simulation is constructed (outside any round).
SETUP_LAYERS = ("data.build", "population.build")


def values_in(update) -> int:
    """Values an update carries: nnz when sparse, the dense size otherwise."""
    return update.nnz if isinstance(update, SparseUpdate) else update.dense_size


def _defining_class(cls: type, name: str) -> type:
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


class LayerTrace:
    """A nesting wrapper stack with exact self times, spans kept in memory."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: Only rounds entered while this is set are traced.
        self.recording = False
        self.self_ns = dict.fromkeys(ROUND_LAYERS, 0)
        self.setup_ns = dict.fromkeys(SETUP_LAYERS, 0)
        self.counts = {
            "exec.tasks": 0,
            "exec.inclusive_ns": 0,
            "exec.worker_busy_s": 0.0,
            "client.train_samples": 0,
            "compression.values_kept": 0,
            "core.values_folded": 0,
            "network.flows": 0,
        }
        #: One row per traced call: [layer, parent row or -1, start_ns, end_ns].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._mark = 0

    # ------------------------------------------------------------ the stack

    def _enter(self, layer: str) -> int:
        now = time.perf_counter_ns()
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            self.self_ns[self.spans[parent][0]] += now - self._mark
        row = len(self.spans)
        self.spans.append([layer, parent, now, 0])
        self._stack.append(row)
        self._mark = now
        return row

    def _exit(self) -> None:
        now = time.perf_counter_ns()
        row = self._stack.pop()
        span = self.spans[row]
        self.self_ns[span[0]] += now - self._mark
        span[3] = now
        self._mark = now

    def wrap(self, layer: str, fn, count=None):
        """``fn`` timed as ``layer`` inside traced rounds; ``count(args,
        kwargs, result, span)`` then adds the call's work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack or os.getpid() != self.pid:
                return fn(*args, **kwargs)
            row = self._enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                count(args, kwargs, out, self.spans[row])
            return out

        return traced

    def wrap_root(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self._enter(ROOT)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def wrap_setup(self, layer: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_ns[layer] += time.perf_counter_ns() - t0

        return timed

    # --------------------------------------------------------------- results

    def wall_ns(self) -> int:
        """Summed wall time of the traced rounds."""
        return sum(end - start for layer, _, start, end in self.spans if layer == ROOT)

    def partition_error_ns(self) -> int:
        """Layer self times minus traced wall: exactly 0 by construction."""
        return sum(self.self_ns.values()) - self.wall_ns()

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "layers": names,
            "columns": ["layer", "parent", "start_ns", "end_ns"],
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
        }


# ------------------------------------------------------------- installation


def _count_exec(trace: LayerTrace, sim):
    epochs = sim.config.local_epochs
    sizes = sim.population.data_sizes

    def count(args, kwargs, results, span):
        c = trace.counts
        c["exec.tasks"] += len(results)
        c["exec.inclusive_ns"] += span[3] - span[2]
        c["exec.worker_busy_s"] += sum(r.train_seconds + r.compress_seconds for r in results)
        c["client.train_samples"] += sum(int(sizes[r.cid]) for r in results) * epochs
        c["compression.values_kept"] += sum(values_in(r.update) for r in results)

    return count


def _count_folded(trace: LayerTrace):
    def count(args, kwargs, out, span):
        updates = args[0] if args else kwargs["updates"]
        trace.counts["core.values_folded"] += sum(values_in(u) for u in updates)

    return count


def _count_flow(trace: LayerTrace):
    def count(args, kwargs, out, span):
        trace.counts["network.flows"] += 1

    return count


@contextlib.contextmanager
def install(trace: LayerTrace):
    """Wrap module- and class-level entry points for the ``with`` body.

    Covers everything a simulation looks up by name: construction-time
    builders (timed as setup layers) and the functions and methods a round
    calls. Per-simulation attributes are wrapped by :func:`attach`.
    """
    undo = []

    def replace(owner, name, wrapper):
        raw = vars(owner)[name]
        if isinstance(raw, staticmethod):
            new = staticmethod(wrapper(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(wrapper(raw.__func__))
        else:
            new = wrapper(raw)
        setattr(owner, name, new)
        undo.append((owner, name, raw))

    def layer(name, count=None):
        return lambda fn: trace.wrap(name, fn, count)

    try:
        for fn in ("train_test_split", "dirichlet_partition", "iid_partition", "shard_partition"):
            replace(fl_simulation, fn, lambda f: trace.wrap_setup("data.build", f))
        replace(Population, "from_config", lambda f: trace.wrap_setup("population.build", f))

        replace(fl_simulation, "pipeline_times", layer("network.pricing", _count_flow(trace)))
        replace(fl_simulation, "overlap_distribution", layer("core.overlap"))
        replace(fl_simulation, "opwa_mask_from_updates", layer("core.opwa"))
        replace(fl_simulation, "robust_aggregate", layer("robust.aggregate", _count_folded(trace)))
        replace(robust_aggregators, "weighted_sparse_sum", layer("core.sparse_sum"))
        replace(Client, "local_train", layer("client.train"))
        replace(ClientPool, "__getitem__", layer("population.hydrate"))
        compressors = {type(make_compressor(n, seed=0)) for n in available_compressors()}
        for cls in {_defining_class(c, "compress") for c in compressors}:
            replace(cls, "compress", layer("compression.compress"))
        replace(Transport, "resolve_uploads", layer("network.resolve"))
        for name in ("admit", "cancel", "peek_next", "pop_next", "pop_until", "drain"):
            replace(IngressPipe, name, layer("network.resolve"))
        for name in ("fate", "truncate"):
            replace(FaultInjector, name, layer("network.resolve"))
        yield trace
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)


def attach(trace: LayerTrace, sim) -> None:
    """Wrap one simulation's own entry points (sampler, plan, backend,
    server optimizers, evaluation and the round itself)."""

    def wrap_attr(obj, name, layer_name, count=None):
        setattr(obj, name, trace.wrap(layer_name, getattr(obj, name), count))

    sim.run_round = trace.wrap_root(sim.run_round)
    wrap_attr(sim, "evaluate", "fl.evaluate")
    wrap_attr(sim.sampler, "sample", "fl.sample")
    wrap_attr(sim.algorithm, "plan", "fl.plan")
    wrap_attr(sim.backend, "run_round", "exec.dispatch", _count_exec(trace, sim))
    for opt in [sim.server_opt, *getattr(sim, "edge_opts", ())]:
        wrap_attr(opt, "step", "core.server_step")
