"""The benchmark's workloads.

A workload is a list of seeded experiment configs ("cells"). One repetition
builds each cell, runs one warm-up round (part of set-up), then
``timed_rounds`` timed rounds, each started only when the previous one has
returned. Every config counts the warm-up round, so a cell's history ends
with ``1 + timed_rounds`` records and its last round is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.presets import paper_config
from repro.fl.config import ExperimentConfig

#: Table 2's rows, in the paper's order.
PAPER_ALGORITHMS = ("fedavg", "topk", "eftopk", "bcrs", "bcrs_opwa")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    timed_rounds: int  # per cell, after the warm-up round
    #: Nominal host seconds of one repetition (2-core reference host). A
    #: fixed constant, so ``--seconds`` maps to the same repetition count
    #: on every host.
    rep_seconds: float
    make: Callable[[int, int], list[ExperimentConfig]]  # (seed, rounds) -> cells
    #: Fewest repetitions an untraced run makes, however short ``--seconds``.
    min_reps: int = 3

    def cells(self, seed: int) -> list[ExperimentConfig]:
        return self.make(seed, 1 + self.timed_rounds)


def _paper_grid(seed: int, rounds: int) -> list[ExperimentConfig]:
    # Sec. 5.1: N=10, C=0.5, synth-cifar10, MLP, Dirichlet beta=0.5, CR*=0.1,
    # evaluation every round, serial backend.
    return [paper_config("cifar10", alg, seed=seed, rounds=rounds) for alg in PAPER_ALGORITHMS]


def _fleet_cohort(seed: int, rounds: int) -> list[ExperimentConfig]:
    # The mega-fleet scenario's settings at 100K clients and a 500-client cohort.
    return [
        ExperimentConfig(
            algorithm="bcrs_opwa",
            compression_ratio=0.1,
            alpha=0.3,
            gamma=8.0,
            num_clients=100_000,
            participation=0.005,
            virtual_shards=True,
            virtual_shard_min=16,
            virtual_shard_max=64,
            hydration_cache=256,
            num_train=4096,
            num_test=400,
            eval_every=2,
            lr=0.1,
            rounds=rounds,
            seed=seed,
        )
    ]


def _async_adversarial(seed: int, rounds: int) -> list[ExperimentConfig]:
    return [
        paper_config(
            "cifar10",
            "topk",
            seed=seed,
            rounds=rounds,
            num_clients=64,
            mode="async",
            concurrency=16,
            compression_ratio=0.1,
            contention="fair",
            server_ingress_mbps=20.0,
            drop_prob=0.05,
            truncate_prob=0.05,
            adversary="sign_flip",
            adversary_fraction=0.2,
            aggregator="trimmed_mean",
            trim_beta=0.25,
        )
    ]


def _hier_edges(seed: int, rounds: int) -> list[ExperimentConfig]:
    return [
        paper_config(
            "cifar10",
            "bcrs_opwa",
            seed=seed,
            rounds=rounds,
            num_clients=64,
            mode="hier",
            num_edges=4,
            edge_rounds=2,
            backhaul_bandwidth_mbps=100.0,
            backhaul_latency_s=0.01,
            contention="fair",
            server_ingress_mbps=50.0,
            backend="process",
            workers=2,
        )
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-grid",
            "Table 2 at Sec. 5.1 geometry: 5 algorithms x 200 rounds; local training, per-round evaluation and fixed round overhead",
            199,
            15.0,
            _paper_grid,
            # Its ~12 ms rounds are short enough for one scheduler burst to
            # inflate a tail round in every repetition; a fourth keeps p90 down.
            min_reps=4,
        ),
        Workload(
            "fleet-cohort",
            "100K virtual-shard clients, 500-client bcrs_opwa cohort: cold hydration, compression and sparse sum/overlap/OPWA every round",
            12,
            12.0,
            _fleet_cohort,
        ),
        Workload(
            "async-adversarial",
            "FedBuff async with fair ingress, faults and sign-flip clients under trimmed_mean: event loop, water-filling, dense robust path",
            299,
            4.0,
            _async_adversarial,
        ),
        Workload(
            "hier-edges",
            "4 edges x 2 sub-rounds of bcrs_opwa over a fair per-edge ingress on the 2-worker process backend: hier and exec fan-out",
            109,
            9.0,
            _hier_edges,
        ),
    )
}
