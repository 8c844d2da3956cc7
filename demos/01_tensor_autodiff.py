"""Reverse-mode differentiation on the explicit tape, and how we verify it.

Every gradient in this package is checked against central finite differences
in double precision; this script walks through the machinery on small cases.
"""

import numpy as np

from dualdit import tensor as T
from dualdit.tensor import Tape, Tensor, grad_check

# --- record a computation, replay it backwards ----------------------------

x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
with Tape() as tape:
    s = T.silu(x)
    y = (s * x).sum()
print(f"f(x) = sum(x * silu(x)) at x=[1,2,3]  ->  {y.item():.6f}")
print(f"tape recorded {len(tape)} primitive applications")

tape.backward(y)
print("analytic gradient:", np.round(x.grad, 6))
# the backward frees each intermediate's gradient once it has passed it: only leaves keep one
print(f"after backward: x.grad (a leaf) holds {x.grad.size} values, silu(x).grad is {s.grad}")

# --- the finite-difference oracle ------------------------------------------

err = grad_check(lambda t: (T.silu(t) * t).sum(), x, step=1e-5)
print(f"max relative error vs central differences: {err:.2e}")

# gradients accumulate across uses of the same tensor: d/dx of (x + x) is 2
z = Tensor([5.0], requires_grad=True)
with Tape() as tape:
    out = (z + z).sum()
tape.backward(out)
print(f"d/dx of (x + x): {z.grad[0]:.1f}  (shared subexpressions accumulate)")

# attention's softmax stays finite however extreme the scores: one head of width
# one, q = 1000 and keys (1, 1, -1) score every query (1000, 1000, -1000)
q = Tensor(np.full((1, 3, 1), 1000.0))
k = Tensor(np.array([1.0, 1.0, -1.0]).reshape(1, 3, 1))
v = Tensor(np.array([2.0, 4.0, 100.0]).reshape(1, 3, 1))
a = T.attention(q, k, v, 1)
print("attention over scores (1000, 1000, -1000), values (2, 4, 100) =",
      np.round(a.data.ravel(), 6), "(max-subtraction keeps it finite)")

# the registered-primitive sweep used by `dualdit grad-check`
from dualdit.verification import primitive_checks

print("\nper-primitive verification (tolerance 1e-4):")
for name, fn in primitive_checks():
    print(f"  {name:16s} max_rel_error = {fn():.2e}")
