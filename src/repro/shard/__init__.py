"""repro.shard — sharded gigapixel SAT with single-pass tile carries.

Splits images too large for one launch into a tile grid, runs per-tile
SATs across a set of simulated devices and streams, and propagates
inter-tile row/column carries with a LightScan-style decoupled-lookback
descriptor array — one carry fix-up per tile, never a second full sweep.

* :mod:`.descriptor` — the ``X``/``A``/``P`` tile-status protocol;
* :mod:`.executor` — :func:`sharded_sat` / :func:`sharded_sat_series`,
  the :class:`ShardConfig` knobs and the modeled device/stream timeline.

A sharded run returns the materialised table; rectangle queries on it go
through :func:`repro.rect_sums` like any other SAT.

``sat()`` shards transparently above :data:`DEFAULT_THRESHOLD_ELEMS`
(override with ``REPRO_SHARD_THRESHOLD`` or ``sat(shard=...)``): it asks
:func:`above_threshold` and then calls :func:`sharded_sat`.

See ``docs/sharding.md``.
"""

from .descriptor import A, DescriptorChain, LookbackStats, P, X
from .executor import (
    DEFAULT_THRESHOLD_ELEMS,
    ShardConfig,
    ShardRun,
    ShardSeriesRun,
    above_threshold,
    sharded_sat,
    sharded_sat_series,
)

__all__ = [
    "X",
    "A",
    "P",
    "DescriptorChain",
    "LookbackStats",
    "DEFAULT_THRESHOLD_ELEMS",
    "ShardConfig",
    "ShardRun",
    "ShardSeriesRun",
    "above_threshold",
    "sharded_sat",
    "sharded_sat_series",
]
