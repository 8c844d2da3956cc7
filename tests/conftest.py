"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from dualdit import model as M


@pytest.fixture
def shard_sizes(monkeypatch):
    """Two usable cores; returns the batch sizes of the shards, those sent to workers first.

    A shard sent to a worker is counted once, at ``_ShardWorker.submit``; the
    work of this process is counted at each ``DualLevelModel.forward`` call, so
    a sampling shard that runs here counts once per NFE.
    """
    if M._openblas_threads() is None:
        pytest.skip("sharding needs OpenBLAS's thread-count setter")
    monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 1})
    sizes = []
    forward, submit = M.DualLevelModel.forward, M._ShardWorker.submit

    def counted(self, x, *args, **kwargs):
        sizes.append(x.shape[0])
        return forward(self, x, *args, **kwargs)

    def counted_submit(self, fn, part):
        # a sampling shard starts with its noise, a train step's with its FlowBatch
        rows = part[0] if isinstance(part[0], np.ndarray) else part[0].x_t
        sizes.append(rows.shape[0])
        return submit(self, fn, part)

    monkeypatch.setattr(M.DualLevelModel, "forward", counted)
    monkeypatch.setattr(M._ShardWorker, "submit", counted_submit)
    return sizes
