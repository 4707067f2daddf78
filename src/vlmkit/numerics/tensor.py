"""Dense float32 tensors with taped reverse-mode automatic differentiation.

Every operation whose inputs require gradients records a node carrying the
inputs, the output, and a backward closure. Nodes get a monotonically
increasing sequence number at creation, so replaying reachable nodes in
descending sequence order is a valid reverse topological traversal.

Storage is float32 everywhere; reductions (sums, statistics, losses)
accumulate in float64 internally before casting back. Values are treated
as immutable once created, except parameter data mutated by the optimizer
and gradient buffers.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ValidationError

_node_counter = itertools.count()
_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording inside its block."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def grad_enabled() -> bool:
    return _grad_enabled


class Node:
    """One recorded operation: inputs, output, and its backward rule.

    The output is held weakly. It holds its node, and a strong reference back
    would make every taped graph a reference cycle, freed only by the cyclic
    garbage collector instead of when the last tensor of the step goes away.
    A node reachable from a live root always has a live output: the root, or
    an input of a later node.
    """

    __slots__ = ("seq", "op", "inputs", "_out", "backward_fn")

    def __init__(self, op: str, inputs: Sequence["Tensor"], out: "Tensor",
                 backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]):
        self.seq = next(_node_counter)
        self.op = op
        self.inputs = tuple(inputs)
        self._out = weakref.ref(out)
        self.backward_fn = backward_fn

    @property
    def out(self) -> Optional["Tensor"]:
        return self._out()


class Tensor:
    """N-dimensional float32 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[Node] = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValidationError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def is_leaf(self) -> bool:
        return self._node is None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- gradient bookkeeping ------------------------------------------------

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad)

    # -- operator sugar (delegates to ops) -------------------------------------

    def __add__(self, other):
        from . import ops
        return ops.add(self, _as_tensor(other))

    __radd__ = __add__

    def __mul__(self, other):
        from . import ops
        if isinstance(other, (int, float)):
            return ops.scale(self, float(other))
        return ops.mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __neg__(self):
        from . import ops
        return ops.scale(self, -1.0)

    def __sub__(self, other):
        from . import ops
        return ops.add(self, ops.scale(_as_tensor(other), -1.0))

    def __matmul__(self, other):
        from . import ops
        return ops.matmul(self, _as_tensor(other))

    def __truediv__(self, other):
        from . import ops
        if not isinstance(other, (int, float)):
            raise ValidationError("tensor division only supports scalar divisors")
        return ops.scale(self, 1.0 / float(other))

    def reshape(self, *shape):
        from . import ops
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, axes=None):
        from . import ops
        return ops.transpose(self, axes)

    def sum(self):
        from . import ops
        return ops.tsum(self)

    def mean(self):
        from . import ops
        return ops.tmean(self)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def record(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
           backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> Tensor:
    """Wrap an op result, attaching a graph node when gradients are live."""
    needs = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = needs
    out.grad = None
    out._node = None
    if needs:
        out._node = Node(op, inputs, out, backward_fn)
    return out


def backward(root: Tensor):
    """Accumulate gradients of a scalar `root` into requires_grad leaves.

    Repeated calls on the same graph add to existing leaf gradients.
    Frozen leaves (requires_grad=False) never receive a buffer.
    """
    if root.data.size != 1:
        raise ValidationError(f"backward root must be scalar, got shape {root.shape}")
    if root._node is None:
        raise ValidationError("backward root was not produced by a recorded graph")

    # Collect reachable nodes; descending seq order reverses insertion order.
    nodes = {}
    stack = [root._node]
    while stack:
        node = stack.pop()
        if node.seq in nodes:
            continue
        nodes[node.seq] = node
        for t in node.inputs:
            if t._node is not None and t._node.seq not in nodes:
                stack.append(t._node)
    order = sorted(nodes.values(), key=lambda n: n.seq, reverse=True)

    flowing: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in order:
        out_grad = flowing.pop(id(node.out), None)
        if out_grad is None:
            continue
        input_grads = node.backward_fn(out_grad)
        for t, g in zip(node.inputs, input_grads):
            if g is None or not t.requires_grad:
                continue
            g = g.astype(np.float32, copy=False)
            if t._node is None:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += g
            else:
                acc = flowing.get(id(t))
                if acc is None:
                    # Copy: closures may hand back views or shared buffers.
                    flowing[id(t)] = g.copy()
                else:
                    acc += g
