"""The transformer pieces: 2D rotary embeddings, attention, AdaLN-gated blocks.

Shows the two properties that make 2D RoPE the right positional scheme here
(isometry and relative-offset dependence) and the identity-at-init behavior
of gated blocks.
"""

import numpy as np

from dualdit import blocks as B
from dualdit import tensor as T
from dualdit.tensor import Tensor

rng = np.random.default_rng(0)

# --- 2D RoPE: rotations preserve norms and encode relative offsets --------

# the tables are built once per grid; attention rotates q and k inside its
# record with the private helper shown here
rope = B.rope_tables(B.grid_positions(3, 3), 8, np.float64)
x = rng.normal(size=(1, 9, 2, 8))  # 3x3 grid, 2 heads, head_dim 8
y = T._rotate(x, *rope)
print("per-token norms preserved:",
      np.allclose(np.linalg.norm(y, axis=-1), np.linalg.norm(x, axis=-1)))

q, k = rng.normal(size=8), rng.normal(size=8)

def rotated(v, r, c):
    buf = np.zeros((1, 9, 1, 8))
    buf[0, r * 3 + c, 0] = v
    return T._rotate(buf, *rope)[0, r * 3 + c, 0]

pairs = [((0, 1), (1, 0)), ((1, 2), (2, 1)), ((0, 2), (1, 1))]
print("inner products at equal offsets (should all match):")
for (r1, c1), (r2, c2) in pairs:
    print(f"  q@({r1},{c1}) . k@({r2},{c2}) = {rotated(q, r1, c1) @ rotated(k, r2, c2):+.6f}")

# --- attention against a naive per-head loop -------------------------------

store = B.ParamStore(np.random.default_rng(1), dtype=np.float64)
params = B.make_attention_params(store, "attn", 8)
for t in store.params.values():
    t.data[...] = rng.normal(scale=0.3, size=t.shape)
rope = B.rope_tables(B.grid_positions(1, 3), 4, np.float64)  # 2 heads of width 4
out = B.multi_head_attention(Tensor(rng.normal(size=(1, 3, 8))), params, 2, rope)
print("attention output shape:", out.shape)

# --- gated blocks start as the identity ------------------------------------

store = B.ParamStore(np.random.default_rng(2), dtype=np.float64)
blocks = [B.make_dit_block_params(store, f"blk{i}", 8) for i in range(4)]
for name, t in store.params.items():
    if ".ada." not in name:
        t.data[...] = rng.normal(scale=0.5, size=t.shape)
s = Tensor(rng.normal(size=(1, 4, 8)))
c = Tensor(rng.normal(size=(1, 1, 8)))
out = s
rope = B.rope_tables(B.grid_positions(2, 2), 4, np.float64)
for p in blocks:
    out = B.dit_block(out, c, p, 2, rope)
print("4-block stack at init is the identity:", bool(np.all(out.data == s.data)))
print("(the residual gates are zero-initialized; the gammas start at one so")
print(" the gates still receive gradient and the stack can leave the identity)")
