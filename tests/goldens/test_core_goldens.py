"""Frozen round-core goldens: histories the shared round core must keep.

Each ``core/*.json`` is the serial trace of one
``core_golden_configs.CORE_GOLDEN_CONFIGS`` entry, captured before the
protocols shared one round core. Replayed with ``regen=False``, so
``REGEN_GOLDEN=1`` can never overwrite them.
"""

from __future__ import annotations

import pytest

from core_golden_configs import CORE_GOLDEN_CONFIGS, CORE_GOLDEN_DIR
from repro.testing.goldens import check_golden, run_trace


@pytest.mark.parametrize("name", sorted(CORE_GOLDEN_CONFIGS))
def test_core_golden_replays(name):
    trace = run_trace(CORE_GOLDEN_CONFIGS[name].with_(backend="serial"))
    check_golden(CORE_GOLDEN_DIR / f"{name}.json", trace, name=name, regen=False)


def test_core_goldens_cover_every_mode_and_path():
    cfgs = CORE_GOLDEN_CONFIGS.values()
    assert {c.mode for c in cfgs} == {"sync", "semisync", "async", "hier"}
    assert {c.mode for c in cfgs if c.model == "small_cnn"} == {
        "sync",
        "semisync",
        "async",
        "hier",
    }
    assert any(c.late_policy == "drop" and c.mode == "semisync" for c in cfgs)
    assert any(c.time_varying_links for c in cfgs)
    assert any(c.edge_sync == "semisync" for c in cfgs)
    assert all((CORE_GOLDEN_DIR / f"{n}.json").exists() for n in CORE_GOLDEN_CONFIGS)
