"""Dense float32 tensors with taped reverse-mode automatic differentiation.

Every operation whose inputs require gradients records a node carrying the
inputs, the output, and a backward closure. Nodes get a monotonically
increasing sequence number at creation, so replaying reachable nodes in
descending sequence order is a valid reverse topological traversal.

Storage is float32 everywhere; reductions (sums, statistics, losses)
accumulate in float64 internally before casting back. Values are treated
as immutable once created, except parameter data mutated by the optimizer
and gradient buffers. An optimizer may give a parameter a gradient view
(`_grad_view`, a slice of its flat gradient buffer); `backward` writes the
parameter's gradient there instead of allocating one.

Importing this module sets two thresholds of glibc's allocator, for the
whole process: blocks up to 32 MiB come from the heap rather than from
their own mappings, and free memory at the top of the heap is handed back
to the system only once it exceeds 64 MiB (glibc's own ceilings for its
adaptive values). A training step frees its whole tape at once when the
loss is dropped; with the default thresholds glibc then trims the heap and
the next step faults those pages back in, a thousand or more per step on
the default model. The allocator is one per process, so the setting cannot
be scoped to this module. Nothing is set where the C library is not glibc.
"""

from __future__ import annotations

import itertools
import os
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ValidationError

_node_counter = itertools.count()
_ZERO = np.float32(0.0)
_grad_enabled = True

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Raise glibc's trim and mmap thresholds; a no-op on any other libc."""
    # platform.libc_ver() makes this check first; where it fails, libc_ver()
    # goes on to read the interpreter's whole binary, which an import should
    # not do.
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if not libc.startswith("glibc "):
        return
    try:
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory()


class no_grad:
    """Context manager that disables graph recording inside its block.

    One instance may be entered again while active; each exit restores the
    state its own entry saw.
    """

    def __init__(self):
        self._prev = []

    def __enter__(self):
        global _grad_enabled
        self._prev.append(_grad_enabled)
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev.pop()
        return False


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

    __slots__ = ("data", "requires_grad", "grad", "_grad_view", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._grad_view: Optional[np.ndarray] = None
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

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- gradient bookkeeping ------------------------------------------------

    def backward(self):
        backward(self)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad)

    # -- reductions (delegate to ops) ------------------------------------------

    def sum(self):
        from . import ops
        return ops.tsum(self)


def taped(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on `inputs` is recorded: gradients are live and an input
    requires one."""
    return _grad_enabled and any(t.requires_grad for t in inputs)


def record(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
           backward_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]]
           ) -> Tensor:
    """Wrap an op result, attaching a graph node when `taped(inputs)`; an op
    that checked `taped` itself may pass no `backward_fn` when it is not."""
    needs = taped(inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = needs
    out.grad = None
    out._grad_view = None
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
                    # g + 0 rounds like the zeros-then-add it replaces, signed
                    # zero included, and needs no zeroed buffer.
                    view = t._grad_view
                    if view is None or view.shape != t.data.shape:
                        view = np.empty_like(t.data)
                    t.grad = np.add(g, _ZERO, out=view)
                else:
                    t.grad += g
            else:
                acc = flowing.get(id(t))
                if acc is None:
                    # Closures may hand back views or shared buffers, so no
                    # flowing gradient is ever written in place. A strided
                    # view is still copied: matmul's backward would hand it to
                    # BLAS, which then sums in another order and changes the
                    # result in the last bits. (np.ascontiguousarray would
                    # also turn a 0-d gradient into a 1-d one.)
                    flowing[id(t)] = g if g.flags.c_contiguous else g.copy()
                else:
                    flowing[id(t)] = acc + g
