"""Measurement, output checks and metrics for one benchmark invocation.

Untraced run (``--trace 0``): identical repetitions of the workload's fixed
work, as many as ``--seconds`` holds at the workload's nominal repetition
time (at least the workload's ``min_reps``), each preceded by two extra
set-ups (build every cell and run its warm-up round). Every repetition
starts from the same seed, so its simulated outputs must repeat
bit-for-bit, and round ``i`` does the same work in each. Host interference
only ever adds time, and on a shared host it comes in stretches of seconds,
so a round's host time is its minimum over the repetitions.

Traced run (``--trace 1``): one untraced repetition, then one repetition
with the layer wrappers of :mod:`layers` installed. The two must produce
identical simulated outputs, and the layers' self times must add up to the
traced wall time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import multiprocessing
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import layers
from repro.simtime import make_simulation
from workloads import Workload

#: Set-ups measured before each untraced repetition, besides its own;
#: ``setup_s`` is the median of all of them.
EXTRA_SETUPS = 2

#: Simulated outputs compared bit-for-bit between repetitions.
SIM_OUTPUTS = ("final_accuracy", "sim_clock_s", "uplink_bits", "params_sha1")


@dataclass
class Tally:
    """Rounds attempted and rounds that raised, over the whole invocation."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


@dataclass
class Rep:
    """What one repetition of a workload measured and produced."""

    setup_s: float = 0.0
    round_s: list[float] = field(default_factory=list)
    round_updates: list[int] = field(default_factory=list)  # client uploads per timed round
    uploads_lost: int = 0
    worker_rss_mb: float = 0.0
    workers: int = 1
    pool: dict = field(default_factory=lambda: {"hits": 0, "misses": 0, "hydrations": 0})
    cells: list[dict] = field(default_factory=list)  # simulated outputs per cell

    def outputs(self) -> list[tuple]:
        return [tuple(c[k] for k in SIM_OUTPUTS) for c in self.cells]


def _play(sim, rounds: int, tally: Tally, times: list[float] | None = None) -> bool:
    """Closed loop: each round starts when the previous one has returned."""
    for _ in range(rounds):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            sim.run_round()
        except Exception:
            tally.failed += 1
            tally.errors.append(f"round {sim.round_index} raised")
            traceback.print_exc(file=sys.stderr)
            return False
        if times is not None:
            times.append(time.perf_counter() - t0)
    return True


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _check_cell(sim, rounds: int) -> list[str]:
    """Output checks on one finished cell; returns the failures found."""
    h = sim.history
    name = f"{sim.config.mode}/{sim.config.algorithm}"
    bad = []
    if len(h) != rounds:
        bad.append(f"{name}: {len(h)} rounds recorded, {rounds} attempted")
    if not np.isfinite(sim.global_params).all():
        bad.append(f"{name}: non-finite global params")
    if any(r.comm is None for r in h.records):
        bad.append(f"{name}: a round has no comm ledger")
    else:
        per_round = sum(r.comm.uplink_bits for r in h.records)
        total = h.comm_totals()["uplink_bytes"] * 8.0
        if per_round != total or total <= 0:
            bad.append(f"{name}: per-round uplink {per_round} != total {total}")
    ends = [r.sim_end for r in h.records]
    if any(r.sim_end < r.sim_start for r in h.records) or ends != sorted(ends):
        bad.append(f"{name}: virtual clock went backwards")
    acc = h.final_accuracy()
    if not 0.0 <= acc <= 1.0:
        bad.append(f"{name}: final accuracy {acc} outside [0, 1]")
    return bad


def _cell_outputs(sim) -> dict:
    return {
        "final_accuracy": float(sim.history.final_accuracy()),
        "sim_clock_s": float(sim.sim_clock),
        "uplink_bits": float(sim.history.comm_totals()["uplink_bytes"] * 8.0),
        "params_sha1": hashlib.sha1(np.ascontiguousarray(sim.global_params).tobytes()).hexdigest(),
    }


def _setup(cfg, tally: Tally, trace=None):
    """Build one cell and run its warm-up round: (sim, warm-up ok, seconds)."""
    t0 = time.perf_counter()
    sim = make_simulation(cfg)
    if trace is not None:
        layers.attach(trace, sim)
    ok = _play(sim, 1, tally)
    return sim, ok, time.perf_counter() - t0


def setup_once(workload: Workload, seed: int, tally: Tally) -> float:
    """One set-up sample: every cell built and warmed up, in host seconds."""
    total = 0.0
    for cfg in workload.cells(seed):
        sim, _, seconds = _setup(cfg, tally)
        sim.close()
        total += seconds
        del sim
        gc.collect()
    return total


def run_rep(workload: Workload, seed: int, tally: Tally, trace=None) -> Rep:
    """One repetition: per cell, set-up (build + warm-up) then timed rounds."""
    rep = Rep()
    for cfg in workload.cells(seed):
        installed = layers.install(trace) if trace is not None else contextlib.nullcontext()
        with installed:
            sim, ok, seconds = _setup(cfg, tally, trace)
            try:
                rep.setup_s += seconds
                warm = sim.clients.stats()
                if ok:
                    if trace is not None:
                        trace.recording = True
                    try:
                        _play(sim, workload.timed_rounds, tally, rep.round_s)
                    finally:
                        if trace is not None:
                            trace.recording = False
                end = sim.clients.stats()
                for key in rep.pool:
                    rep.pool[key] += end[key] - warm[key]
                rep.workers = getattr(sim.backend, "workers", 1)
                rep.worker_rss_mb = max(
                    rep.worker_rss_mb,
                    sum(_vm_hwm_mb(p.pid) for p in multiprocessing.active_children()),
                )
                for r in sim.history.records[1:]:
                    rep.round_updates.append(len(r.selected))
                    if r.num_participants is not None:
                        rep.uploads_lost += len(r.selected) - r.num_participants
                tally.errors.extend(_check_cell(sim, 1 + workload.timed_rounds))
                rep.cells.append(_cell_outputs(sim))
            finally:
                sim.close()
        del sim
        gc.collect()
    return rep


def measure_untraced(workload: Workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setups: list[float] = []
    reps: list[Rep] = []
    for _ in range(max(workload.min_reps, round(seconds / workload.rep_seconds))):
        setups += [setup_once(workload, seed, tally) for _ in range(EXTRA_SETUPS)]
        reps.append(run_rep(workload, seed, tally))
        setups.append(reps[-1].setup_s)
    if any(r.outputs() != reps[0].outputs() for r in reps):
        tally.errors.append("simulated outputs differ between repetitions of one seed")

    n = min(len(r.round_s) for r in reps)  # shorter only when a round raised
    round_s = np.min([r.round_s[:n] for r in reps], axis=0)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "client_updates_per_s": (sum(reps[0].round_updates[:n]) / float(round_s.sum()), "1/s"),
        "round_ms.p50": (1e3 * float(np.median(round_s)), "ms"),
        "round_ms.p90": (1e3 * statistics.quantiles(round_s, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss + max(r.worker_rss_mb for r in reps), "MB"),
    }
    detail = {
        "repetitions": len(reps),
        "timed_rounds": n,
        "rounds_beyond_p90": int((round_s > metrics["round_ms.p90"][0] / 1e3).sum()),
        "setup_samples_s": setups,
        "cells": reps[0].cells,
    }
    return metrics, detail


def measure_traced(workload: Workload, seed: int, tally: Tally) -> tuple[dict, dict, layers.LayerTrace]:
    plain = run_rep(workload, seed, tally)
    trace = layers.LayerTrace()
    traced = run_rep(workload, seed, tally, trace)
    if traced.outputs() != plain.outputs():
        tally.errors.append("traced run's simulated outputs differ from the untraced run's")
    if trace.partition_error_ns() != 0:
        tally.errors.append(f"layer self times miss the traced wall by {trace.partition_error_ns()} ns")

    s = {name: ns / 1e9 for name, ns in trace.self_ns.items()}
    c = trace.counts
    lookups = traced.pool["hits"] + traced.pool["misses"]
    exec_wall = c["exec.inclusive_ns"] / 1e9
    metrics = {
        "client.train_s": (s["client.train"], "s"),
        "client.train_samples": (c["client.train_samples"], "count"),
        "compression.compress_s": (s["compression.compress"], "s"),
        "compression.values_kept": (c["compression.values_kept"], "count"),
        "population.hydrate_s": (s["population.hydrate"], "s"),
        "population.hydrations": (traced.pool["hydrations"], "count"),
        "population.hit_ratio": (traced.pool["hits"] / lookups if lookups else 0.0, "ratio"),
        "core.sparse_sum_s": (s["core.sparse_sum"], "s"),
        "core.overlap_s": (s["core.overlap"], "s"),
        "core.opwa_s": (s["core.opwa"], "s"),
        "core.server_step_s": (s["core.server_step"], "s"),
        "core.values_folded": (c["core.values_folded"], "count"),
        "robust.aggregate_s": (s["robust.aggregate"], "s"),
        "exec.dispatch_s": (s["exec.dispatch"], "s"),
        "exec.worker_busy_s": (c["exec.worker_busy_s"], "s"),
        "exec.utilization": (
            c["exec.worker_busy_s"] / (exec_wall * traced.workers) if exec_wall else 0.0,
            "ratio",
        ),
        "exec.tasks": (c["exec.tasks"], "count"),
        "network.pricing_s": (s["network.pricing"], "s"),
        "network.resolve_s": (s["network.resolve"], "s"),
        "network.flows": (c["network.flows"], "count"),
        "network.upload_loss_ratio": (
            traced.uploads_lost / sum(traced.round_updates) if traced.round_updates else 0.0,
            "ratio",
        ),
        "fl.sample_s": (s["fl.sample"], "s"),
        "fl.plan_s": (s["fl.plan"], "s"),
        "fl.evaluate_s": (s["fl.evaluate"], "s"),
        "round.self_s": (s[layers.ROOT], "s"),
        "data.build_s": (trace.setup_ns["data.build"] / 1e9, "s"),
        "population.build_s": (trace.setup_ns["population.build"] / 1e9, "s"),
        "fl.final_accuracy": (
            statistics.fmean(c["final_accuracy"] for c in traced.cells),
            "fraction",
        ),
        "simtime.clock": (sum(c["sim_clock_s"] for c in traced.cells), "sim_s"),
        "network.uplink_gbit": (sum(c["uplink_bits"] for c in traced.cells) / 1e9, "Gbit"),
        "trace.overhead_ratio": (sum(traced.round_s) / sum(plain.round_s), "ratio"),
        "trace.wall_s": (trace.wall_ns() / 1e9, "s"),
    }
    detail = {"timed_rounds": len(traced.round_s), "spans": len(trace.spans), "cells": traced.cells}
    return metrics, detail, trace
