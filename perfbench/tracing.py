"""Spans around dualdit's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the traced modules (and
the few methods that carry a layer boundary) with a wrapper that records a
span: name, start, end, parent span and the shared id of the operation
(train step, sample batch or FD evaluation) it belongs to. Spans live in
flat typed arrays so a run of a million spans stays small, and are written
out once at the end. ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("tensor", "blocks", "model", "flow", "trainer", "samplers", "checkpoint", "data")

# consulted inside every primitive; its cost stays with the primitive that asks
SKIP = {"tensor.active_tape"}

# methods that mark a layer boundary: (module, class, method, span name)
METHODS = (
    ("tensor", "Tape", "backward", "tensor.backward"),
    ("tensor", "Tensor", "accumulate_grad", "tensor.accumulate_grad"),
    ("model", "DualLevelModel", "__init__", "model.DualLevelModel"),
    ("model", "DualLevelModel", "forward", "model.forward"),
    ("model", "DualLevelModel", "forward_with_tap", "model.forward_with_tap"),
    ("model", "DualLevelModel", "embed_condition", "model.embed_condition"),
    ("model", "DualLevelModel", "patch_pathway", "model.patch_pathway"),
    ("model", "DualLevelModel", "_patch_pathway_tapped", "model.patch_pathway_tapped"),
    ("model", "DualLevelModel", "pixel_adaln_params", "model.pixel_adaln_params"),
    ("model", "DualLevelModel", "pit_block", "model.pit_block"),
    ("model", "DualLevelModel", "load_state", "model.load_state"),
)

SETUP_OP = -1

TENSOR_OPS = ("matmul", "add", "mul", "reshape", "transpose", "slice_lastdim", "rms_norm",
              "rope_2d", "softmax_lastdim", "gelu_tanh", "silu", "gather_rows", "scale")

# spans whose inclusive forward time makes up each analysis.estimate_flops key;
# "blocks.linear@<key>" is a linear call on the model's parameters of that name
KEY_SPANS = {
    "patch_embed": ("model.patchify", "blocks.linear@patch_embed"),
    "conditioning": ("model.embed_condition",),
    "patch_blocks": ("model.patch_pathway", "model.patch_pathway_tapped"),
    "pixel_embed": ("model.pixel_tokens", "blocks.linear@pixel_embed"),
    "pixel_blocks": ("model.pit_block",),
    "pixel_head": ("blocks.linear@pixel_head", "model.unpixel_tokens"),
}
FLOPS_KEYS = tuple(KEY_SPANS)
REARRANGE = ("model.patchify", "model.unpatchify", "model.pixel_tokens", "model.unpixel_tokens")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.nbytes = array("f")   # output bytes of a tensor primitive
        self.flops = array("f")    # matmul FLOPs, from shapes
        self.items = array("f")    # tape records at backward, bytes of a saved file
        self.op_id = SETUP_OP
        self.linear_tags: dict[int, str] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.nbytes.append(0.0)
        self.flops.append(0.0)
        self.items.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self.name_id(name))
        try:
            yield i
        finally:
            self._close(i)

    def tag_linears(self, model):
        """Name the model's top-level linear layers so their calls can be told apart."""
        self.linear_tags = {
            id(getattr(model, key)): key
            for key in ("patch_embed", "pixel_embed", "pixel_head")
        }

    def wrap(self, owner, attr: str, name: str, measure=None):
        original = owner.__dict__[attr]
        base = self.name_id(name)
        tagged = name == "blocks.linear"
        tracer = self

        def traced(*args, **kwargs):
            nid = base
            if tagged and id(args[1]) in tracer.linear_tags:
                nid = tracer.name_id(f"{name}@{tracer.linear_tags[id(args[1])]}")
            i = tracer._open(nid)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer._close(i)
            if measure is not None:
                measure(tracer, i, args, out)
            return out

        functools.update_wrapper(traced, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"dualdit.{layer}")
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in SKIP or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                self.wrap(mod, attr, name, _MEASURES.get(name, _tensor_bytes if layer == "tensor" else None))
        for layer, cls, attr, name in METHODS:
            owner = getattr(importlib.import_module(f"dualdit.{layer}"), cls)
            if attr in owner.__dict__:  # a method merged away leaves its spans empty
                self.wrap(owner, attr, name, _MEASURES.get(name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def columns(self) -> dict[str, np.ndarray]:
        """Views of the span columns; record no more spans while they are held."""
        cols = ("start", "end", "name", "parent", "op", "nbytes", "flops", "items")
        return {c: np.frombuffer(getattr(self, c), dtype=getattr(self, c).typecode) for c in cols}

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)), **self.columns())


def _tensor_bytes(tracer, i, args, out):
    data = getattr(out, "data", None)
    if isinstance(data, np.ndarray):
        tracer.nbytes[i] = data.nbytes


def _matmul(tracer, i, args, out):
    _tensor_bytes(tracer, i, args, out)
    tracer.flops[i] = 2.0 * out.data.size * args[0].shape[-1]


def _tape_records(tracer, i, args, out):
    tracer.items[i] = len(args[0])


def _file_size(tracer, i, args, out):
    tracer.items[i] = os.path.getsize(args[0])


_MEASURES = {
    "tensor.matmul": _matmul,
    "tensor.backward": _tape_records,
    "checkpoint.save": _file_size,
}


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------

def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def root_of(parent: np.ndarray) -> np.ndarray:
    """Index of the root span of each span's tree."""
    root = np.arange(len(parent))
    up = parent.astype(np.int64)
    while np.any(up >= 0):
        has = up >= 0
        root = np.where(has, up, root)
        up = np.where(has, parent[np.maximum(up, 0)], -1)
    return root


class SpanTable:
    """Sums over the spans of the measured operations (and, for per-call
    metrics, over every span, set-up included)."""

    def __init__(self, tracer: Tracer):
        c = tracer.columns()
        self.start, self.end, self.parent = c["start"], c["end"], c["parent"]
        self.dur = self.end - self.start
        self.self_t = self_times(self.start, self.end, self.parent)
        self.root = root_of(self.parent)
        self.measured = c["op"] >= 0
        self.n_ops = len(np.unique(c["op"][self.measured]))
        # names are interned twice: in full ("blocks.linear@pixel_head") and
        # by base, without the "@tag" a tagged linear call carries
        self.full_ids = {n: i for i, n in enumerate(tracer.names)}
        self.base_names = sorted({n.split("@")[0] for n in tracer.names})
        self.base_ids = {n: i for i, n in enumerate(self.base_names)}
        base_of = np.array([self.base_ids[n.split("@")[0]] for n in tracer.names] or [0], dtype=np.int64)
        self.nid = c["name"]
        self.base = base_of[self.nid]
        self.nbytes, self.flops, self.items = (c[k].astype(np.float64) for k in ("nbytes", "flops", "items"))
        self.parent_base = np.where(self.parent >= 0, self.base[np.maximum(self.parent, 0)], -1)

    def mask(self, names, parent=None, measured=True, full=False) -> np.ndarray:
        ids = self.full_ids if full else self.base_ids
        m = np.isin(self.nid if full else self.base, [ids[n] for n in names if n in ids])
        if parent is not None:
            m &= np.isin(self.parent_base, [self.base_ids[n] for n in parent if n in self.base_ids])
        if measured:
            m &= self.measured
        return m

    def per_op(self, values: np.ndarray, m: np.ndarray) -> float:
        return float(values[m].sum()) / self.n_ops if self.n_ops else 0.0

    def ms(self, names, **kw) -> float:
        """Inclusive milliseconds per operation."""
        return 1e3 * self.per_op(self.dur, self.mask(names, **kw))

    def calls(self, names, **kw) -> float:
        m = self.mask(names, **kw)
        return float(np.count_nonzero(m)) / self.n_ops if self.n_ops else 0.0

    def mean_per_call(self, values, names) -> float:
        m = self.mask(names, measured=False)
        return float(values[m].mean()) if m.any() else 0.0


def per_layer_metrics(table: SpanTable, flops_shares: dict, analytic_gflop_per_forward: float,
                      skipped_steps: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, in ms (or counts) per operation unless named per call."""
    t = table
    out: dict[str, tuple[float, str]] = {}
    backward = t.mask(["tensor.backward"])
    out["tensor.records_per_step"] = (float(t.items[backward].mean()) if backward.any() else 0.0, "count")
    for op in TENSOR_OPS:
        out[f"tensor.calls.{op}"] = (t.calls([f"tensor.{op}"]), "count")
    for op in TENSOR_OPS:
        out[f"tensor.self_ms.{op}"] = (1e3 * t.per_op(t.self_t, t.mask([f"tensor.{op}"])), "ms")
    out["tensor.matmul.gflop_per_step"] = (t.per_op(t.flops, t.mask(["tensor.matmul"])) / 1e9, "GFLOP")
    tensor_fns = [n for n in t.base_names if n.startswith("tensor.")]
    out["tensor.out_mb_per_step"] = (t.per_op(t.nbytes, t.mask(tensor_fns)) / 1e6, "MB")
    out["tensor.backward_ms"] = (t.ms(["tensor.backward"]), "ms")
    out["tensor.accumulate_grad.calls"] = (t.calls(["tensor.accumulate_grad"]), "count")
    out["tensor.accumulate_grad.ms"] = (t.ms(["tensor.accumulate_grad"]), "ms")

    out["blocks.dit_block.ms"] = (t.ms(["blocks.dit_block"]), "ms")
    for fn, label in (("blocks.multi_head_attention", "attention"), ("blocks.mlp", "mlp")):
        out[f"blocks.{label}.ms.patch"] = (t.ms([fn], parent=["blocks.dit_block"]), "ms")
        out[f"blocks.{label}.ms.pixel"] = (t.ms([fn], parent=["model.pit_block"]), "ms")
    out["blocks.linear.calls"] = (t.calls(["blocks.linear"]), "count")
    out["blocks.linear.ms"] = (t.ms(["blocks.linear"]), "ms")
    out["blocks.modulation.ms"] = (t.ms(["blocks.split_modulation", "blocks.adaln_modulate"]), "ms")

    forwards = t.calls(["model.forward"])
    forward_ms = t.ms(["model.forward"])
    out["model.forward.calls"] = (forwards, "count")
    out["model.forward.ms"] = (forward_ms, "ms")
    for key in FLOPS_KEYS:
        key_ms = t.ms(KEY_SPANS[key], full=True)
        out[f"model.{key}.fwd_ms"] = (key_ms, "ms")
        out[f"model.{key}.time_share"] = (key_ms / forward_ms if forward_ms else 0.0, "ratio")
    for key in FLOPS_KEYS:
        out[f"analysis.{key}.flops_share"] = (flops_shares.get(key, 0.0), "ratio")
    out["analysis.forward_gflop_per_step"] = (analytic_gflop_per_forward * forwards, "GFLOP")
    pit = ["model.pit_block"]
    out["model.pit.compact_expand.ms"] = (t.ms(["blocks.linear"], parent=pit), "ms")
    out["model.pit.attention.ms"] = (t.ms(["blocks.multi_head_attention"], parent=pit), "ms")
    out["model.pit.mlp.ms"] = (t.ms(["blocks.mlp"], parent=pit), "ms")
    out["model.pit.modulation.ms"] = (
        t.ms(["model.pixel_adaln_params", "blocks.adaln_modulate"], parent=pit), "ms")
    out["model.rearrange.ms"] = (t.ms(REARRANGE), "ms")

    out["flow.make_flow_batch.ms"] = (t.ms(["flow.make_flow_batch"]), "ms")
    out["flow.loss_diffusion.ms"] = (t.ms(["flow.loss_diffusion"]), "ms")
    out["trainer.optimizer.ms"] = (
        t.ms(["trainer.adamw_step", "trainer.clip_gradients", "trainer.ema_update"]), "ms")
    out["trainer.skipped_steps"] = (float(skipped_steps), "count")

    solver = ["samplers.flow_dpm_step"]
    velocity = t.mask(["model.forward"], parent=solver)
    steps = np.flatnonzero(t.mask(solver))
    per_step = np.bincount(t.parent[velocity], minlength=len(t.dur))[steps] if len(steps) else steps
    out["samplers.nfe_per_batch"] = (t.calls(["model.forward"], parent=solver), "count")
    out["samplers.guided_steps_per_batch"] = (
        float(np.count_nonzero(per_step == 2)) / t.n_ops if t.n_ops else 0.0, "count")
    out["samplers.solver_self_ms"] = (t.ms(solver) - 1e3 * t.per_op(t.dur, velocity), "ms")

    out["checkpoint.save.ms"] = (1e3 * t.mean_per_call(t.dur, ["checkpoint.save"]), "ms")
    out["checkpoint.save.mb"] = (t.mean_per_call(t.items, ["checkpoint.save"]) / 1e6, "MB")
    out["checkpoint.load.ms"] = (1e3 * t.mean_per_call(t.dur, ["checkpoint.load"]), "ms")
    out["data.make_dataset.ms"] = (1e3 * t.mean_per_call(t.dur, ["data.make_dataset"]), "ms")

    layers = layer_self_ms(t)
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = (layers[layer], "ms")
    out["trace.unaccounted_ms"] = (layers["bench"], "ms")
    out["trace.spans_per_op"] = (float(np.count_nonzero(t.measured)) / t.n_ops if t.n_ops else 0.0, "count")
    return out


def layer_self_ms(t: SpanTable, root: str | None = None) -> dict[str, float]:
    """Self milliseconds per operation of each layer, over the measured spans
    or over the trees whose root span is named ``root``. "bench" is the
    benchmark's own code between wrapped calls, the unaccounted remainder."""
    layers = LAYERS + ("bench",)
    layer_of = np.array([layers.index(n.split(".")[0]) for n in t.base_names] or [0])[t.base]
    m = t.measured
    if root is not None:
        m = m & t.mask([root])[t.root]
    return {layer: 1e3 * t.per_op(t.self_t, m & (layer_of == i)) for i, layer in enumerate(layers)}
