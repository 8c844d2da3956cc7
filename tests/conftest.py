"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from dualdit import model as M


@pytest.fixture
def shard_sizes(monkeypatch):
    """Two usable cores; returns the batch sizes of the shards, those sent to workers first.

    A shard sent to a worker is counted at ``_ShardWorker.submit``, one run in
    this process at ``DualLevelModel._forward``.
    """
    if M._openblas_threads() is None:
        pytest.skip("sharding needs OpenBLAS's thread-count setter")
    monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 1})
    sizes = []
    serial, submit = M.DualLevelModel._forward, M._ShardWorker.submit

    def counted(self, x, *args, **kwargs):
        sizes.append(x.shape[0])
        return serial(self, x, *args, **kwargs)

    def counted_submit(self, fn, part):
        # a forward shard starts with its images, a train step's with its FlowBatch
        rows = part[0] if isinstance(part[0], np.ndarray) else part[0].x_t
        sizes.append(rows.shape[0])
        return submit(self, fn, part)

    monkeypatch.setattr(M.DualLevelModel, "_forward", counted)
    monkeypatch.setattr(M._ShardWorker, "submit", counted_submit)
    return sizes
