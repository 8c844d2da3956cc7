"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from dualdit import model as M
from dualdit import shards as SH


@pytest.fixture
def usable_cores(monkeypatch):
    """A setter of the number of usable cores the data-parallel runtime sees."""
    def set_cores(n: int):
        monkeypatch.setattr(SH.os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cores


@pytest.fixture
def shard_sizes(monkeypatch, usable_cores):
    """Two usable cores; returns the batch sizes of the shards, those sent to workers first.

    A shard sent to a worker is counted once, at ``_ShardWorker.submit``; the
    work of this process is counted at each ``DualLevelModel.forward`` call, so
    a sampling shard that runs here counts once per NFE.
    """
    if SH._openblas_threads() is None:
        pytest.skip("sharding needs OpenBLAS's thread-count setter")
    usable_cores(2)
    sizes = []
    forward, submit = M.DualLevelModel.forward, SH._ShardWorker.submit

    def counted(self, x, *args, **kwargs):
        sizes.append(x.shape[0])
        return forward(self, x, *args, **kwargs)

    def counted_submit(self, fn, part):
        # a sampling shard starts with its noise, a train step's with its FlowBatch;
        # a span of the optimizer tail holds no rows
        rows = part[0] if isinstance(part[0], np.ndarray) else getattr(part[0], "x_t", None)
        if rows is not None:
            sizes.append(rows.shape[0])
        return submit(self, fn, part)

    monkeypatch.setattr(M.DualLevelModel, "forward", counted)
    monkeypatch.setattr(SH._ShardWorker, "submit", counted_submit)
    return sizes
