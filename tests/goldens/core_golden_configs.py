"""The frozen configs behind the round-core golden histories.

The robustness goldens beside this file all train the MLP, so none of them
pins persistent-buffer (BN) averaging, dense or quantized uploads under the
event-driven and hierarchical protocols, plan-time zero weights, the
semisync ``late_policy="drop"`` path or per-round link drift. These configs
cover exactly those paths, in every protocol mode where they apply.

``core/*.json`` were generated from these configs **before** the round loop
of ``sync``/``semisync``/``async``/``hier`` was factored into one shared core,
so matching them bit-for-bit proves the refactor changed no history. They
are frozen artifacts, not build products: ``test_core_goldens.py`` replays
them with ``regen=False``, and :func:`main` exists only to document how they
were made (running it on a later tree would silently re-pin its behaviour).

    PYTHONPATH=src python tests/goldens/core_golden_configs.py
"""

from __future__ import annotations

from pathlib import Path

from repro.fl.config import ExperimentConfig

__all__ = ["CORE_GOLDEN_CONFIGS", "CORE_GOLDEN_DIR"]

CORE_GOLDEN_DIR = Path(__file__).parent / "core"


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10",
        model="mlp",
        num_train=480,
        num_test=160,
        num_clients=12,
        participation=0.5,
        rounds=3,
        batch_size=32,
        lr=0.1,
        seed=5,
        eval_every=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


_SEMISYNC = dict(mode="semisync", deadline_quantile=0.6, rounds=4)
_ASYNC = dict(mode="async", concurrency=4, buffer_size=2, rounds=4)
_HIER = dict(mode="hier", num_edges=3, edge_rounds=2)
_CNN = dict(model="small_cnn", num_train=240, num_test=80)

#: name → config. Names key the golden JSON files in ``core/``.
CORE_GOLDEN_CONFIGS: dict[str, ExperimentConfig] = {
    # BN running statistics through every protocol's averaging step,
    # including survivor renormalization (lost uploads, crashed edges).
    "sync-cnn": _cfg(**_CNN, algorithm="bcrs_opwa", compression_ratio=0.1),
    "sync-cnn-lossy": _cfg(**_CNN, algorithm="topk", compression_ratio=0.2, drop_prob=0.3),
    "semisync-cnn": _cfg(**_CNN, **_SEMISYNC, algorithm="eftopk", compression_ratio=0.2),
    "async-cnn-lossy": _cfg(
        **_CNN, **_ASYNC, algorithm="topk", compression_ratio=0.2, drop_prob=0.3
    ),
    "hier-cnn-crash": _cfg(
        **_CNN, **_HIER, algorithm="topk", compression_ratio=0.2, edge_crash_prob=0.3
    ),
    # Dense FedAvg and 8-bit quantized uploads off the sync path.
    "semisync-fedavg": _cfg(**_SEMISYNC, algorithm="fedavg"),
    "async-fedavg": _cfg(**_ASYNC, algorithm="fedavg"),
    "hier-fedavg": _cfg(**_HIER, algorithm="fedavg"),
    "semisync-qsgd8": _cfg(
        **_SEMISYNC, algorithm="topk", compressor="qsgd8", compression_ratio=0.2
    ),
    "async-qsgd8": _cfg(**_ASYNC, algorithm="topk", compressor="qsgd8", compression_ratio=0.2),
    "hier-qsgd8": _cfg(**_HIER, algorithm="topk", compressor="qsgd8", compression_ratio=0.2),
    # deadline_topk's plan-time zero weights (dropped stragglers).
    "sync-deadline_topk": _cfg(algorithm="deadline_topk", compression_ratio=0.2),
    "semisync-deadline_topk": _cfg(
        **_SEMISYNC, algorithm="deadline_topk", compression_ratio=0.2
    ),
    "hier-deadline_topk-semisync": _cfg(
        **_HIER, algorithm="deadline_topk", compression_ratio=0.2, edge_sync="semisync"
    ),
    # Semisync late updates abandoned at the deadline, with downlink pricing.
    "semisync-drop": _cfg(
        **_SEMISYNC,
        algorithm="topk",
        compression_ratio=0.2,
        late_policy="drop",
        include_downlink=True,
    ),
    # Per-round link drift re-planning BCRS every round.
    "sync-drift": _cfg(
        algorithm="bcrs_opwa", compression_ratio=0.1, time_varying_links=True, rounds=4
    ),
}


def main() -> None:
    from repro.testing.goldens import run_trace, write_golden

    for name, config in CORE_GOLDEN_CONFIGS.items():
        out = CORE_GOLDEN_DIR / f"{name}.json"
        write_golden(out, run_trace(config.with_(backend="serial")))
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
