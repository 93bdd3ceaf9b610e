"""Shard hooks: k-span ledgers merge to the serial ledger bitwise.

The sweep engine splits large profile jobs of the shard-capable kernels
into k-span :class:`~repro.core.engine.ShardTask`s; each runs one span
through ``apply_shard`` and the parent sums the span ledgers in
ascending order.  The determinism contract is that the sum equals the
serial pass *bitwise*, for any shard count — including more shards than
the lattice has planes, whose tail spans are empty.
"""

from __future__ import annotations

import pytest

from repro.core.profiles import merge_shard_ledgers
from repro.data.generators import make_dataset
from repro.viz import ALGORITHMS, Isovolume
from repro.viz.base import OpCounts

SHARDABLE = ("contour", "clip", "isovolume")


@pytest.fixture(scope="module")
def dataset():
    return make_dataset(24, kind="blobs", seed=7)


class TestShardedEqualsSerial:
    """The core contract: merged shard ledgers equal the serial ledger."""

    @pytest.mark.parametrize("name", SHARDABLE)
    @pytest.mark.parametrize("shards", [1, 3, 5, 24, 64])
    def test_ledger_bitwise(self, dataset, name, shards):
        # Each span fills its own ledger, as a pool worker's ShardTask
        # does, and merge_shard_ledgers sums them in ascending order.
        filt = ALGORITHMS[name]()
        serial = filt.execute(dataset).counts.as_dict()
        parts = []
        for shard in range(shards):
            counts = OpCounts()
            filt.apply_shard(dataset, counts, shard, shards)
            parts.append(counts.as_dict())
        assert merge_shard_ledgers(parts) == serial


class TestApplyShard:
    """The engine-facing ledger-only span API."""

    @pytest.mark.parametrize("name", SHARDABLE)
    def test_span_ledgers_sum_to_serial(self, dataset, name):
        filt = ALGORITHMS[name]()
        serial = filt.execute(dataset).counts.as_dict()
        total = OpCounts()
        for shard in range(5):
            filt.apply_shard(dataset, total, shard, 5)
        assert total.as_dict() == serial

    def test_empty_span_adds_nothing(self, dataset):
        counts = OpCounts()
        # 64 shards over 24 planes: the tail shards are empty spans.
        ALGORITHMS["contour"]().apply_shard(dataset, counts, 63, 64)
        assert counts.as_dict() == {}

    def test_unsupported_filter_rejected(self, dataset):
        with pytest.raises(ValueError, match="does not support sharding"):
            ALGORITHMS["threshold"]().apply_shard(dataset, OpCounts(), 0, 2)

    def test_isovolume_keep_output_rejected(self, dataset):
        """Pass 2b's ledger lives in _finish: shard ledgers are only
        exact for the counting configuration the engine profiles with."""
        with pytest.raises(ValueError, match="keep_output"):
            Isovolume(keep_output=True).apply_shard(dataset, OpCounts(), 0, 2)
