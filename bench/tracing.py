"""Spans around the calls into vlmkit's layers, for the traced benchmark run.

Nothing in the package changes. The tracer wraps names where callers look
them up and puts every one back on `uninstall`:

- layer functions and ops, in every ``vlmkit.*`` namespace that binds them
  (the model modules import ops by name; ``Tensor`` operators reach them
  through the ``ops`` module; the benchmark calls through the modules);
- ``ops.record``, so each taped node's backward rule runs inside a span;
- attributes of one model instance: the vision tower and the connector
  behind proxies, ``llm.forward_embeds`` as an instance attribute.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span, or -1. Spans of one benchmark operation (a pass, a step or
a request) are kept in memory and folded into per-name totals when the
operation ends; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from types import FunctionType
from typing import Dict, Iterable, List, Sequence

import numpy as np

from vlmkit.numerics.tensor import Tensor

_MISSING = object()

# Ops reported one by one; every other recorded op still counts toward the
# op total that `numerics.ops.outside.share` is measured against.
REPORTED_OPS = ("matmul", "softmax", "layer_norm", "gelu", "masked_cross_entropy",
                "embedding", "add", "scale", "concat", "narrow", "reshape", "transpose")
# Public op function -> the op name it records on the tape.
_OP_FUNCTIONS = {name: name for name in REPORTED_OPS}
_OP_FUNCTIONS.update({"mul": "mul", "tanh": "tanh", "exp": "exp", "tsum": "sum", "tmean": "mean"})

OP_PREFIX = "numerics.ops."
BACKWARD_SUFFIX = ".bw"

# Span name -> (module, attribute) of the public layer functions.
LAYER_FUNCTIONS = {
    "data.conversations.load_dataset": ("vlmkit.data.conversations", "load_dataset"),
    "data.images.load_ppm": ("vlmkit.data.images", "load_ppm"),
    "data.images.preprocess_image": ("vlmkit.data.images", "preprocess_image"),
    "data.labeling.tokenize_and_label": ("vlmkit.data.labeling", "tokenize_and_label"),
    "data.labeling.collate": ("vlmkit.data.labeling", "collate"),
    "model.multimodal.compose_multimodal": ("vlmkit.model.multimodal", "compose_multimodal"),
    "model.multimodal.sequence_loss": ("vlmkit.model.multimodal", "sequence_loss"),
    "numerics.tensor.backward": ("vlmkit.numerics.tensor", "backward"),
    "numerics.optim.step": ("vlmkit.numerics.optim", "adamw_step"),
}


def self_times(spans: Sequence[Sequence]) -> Dict[str, List[float]]:
    """Per span name: [inclusive seconds, self seconds, calls].

    Self time is a span's duration minus the durations of the spans whose
    parent it is. Parents are given by index into `spans`.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, List[float]] = {}
    for (name, start, end, _), child in zip(spans, covered):
        acc = out.setdefault(name, [0.0, 0.0, 0])
        acc[0] += end - start
        acc[1] += end - start - child
        acc[2] += 1
    return out


def _arrays_held(fn, seen_fns: set) -> Iterable[np.ndarray]:
    """Arrays a backward closure keeps alive, following nested closures."""
    if id(fn) in seen_fns or not isinstance(fn, FunctionType) or not fn.__closure__:
        return
    seen_fns.add(id(fn))
    for cell in fn.__closure__:
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, Tensor):
            if value._node is not None:
                yield value.data
        elif isinstance(value, FunctionType):
            yield from _arrays_held(value, seen_fns)


def tape_census(root) -> Dict[str, List[int]]:
    """Per op on the graph behind `root`: [nodes, bytes held].

    Bytes are those of distinct arrays the tape keeps alive: node outputs
    and arrays captured by backward rules, excluding leaf tensors (weights,
    inputs), which exist without the tape. An array shared by several nodes
    counts once, for the earliest node.
    """
    nodes = {}
    stack = [root._node] if root._node is not None else []
    while stack:
        node = stack.pop()
        if node.seq in nodes:
            continue
        nodes[node.seq] = node
        stack.extend(t._node for t in node.inputs if t._node is not None)
    leaves = {id(t.data) for n in nodes.values() for t in n.inputs if t._node is None}
    counted = set(leaves)
    out: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for seq in sorted(nodes):
        node = nodes[seq]
        acc = out[node.op]
        acc[0] += 1
        for arr in (node.out.data, *_arrays_held(node.backward_fn, set())):
            if id(arr) not in counted:
                counted.add(id(arr))
                acc[1] += arr.nbytes
    return dict(out)


class _Timed:
    """Proxy that runs a callable component inside a span."""

    def __init__(self, call, target):
        self._call = call
        self._target = target

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: Dict[str, int] = defaultdict(int)
        self.untimed = 0.0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    # -- installing and removing the wrappers ------------------------------------

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap layer functions and ops wherever vlmkit binds them."""
        from vlmkit.numerics import ops

        replace = {}
        for span, (module, attr) in LAYER_FUNCTIONS.items():
            fn = getattr(sys.modules[module], attr)
            replace[fn] = self.wrap(span, fn)
        for fname, op in _OP_FUNCTIONS.items():
            fn = getattr(ops, fname)
            replace[fn] = self.wrap(OP_PREFIX + op, fn)
        modules = [m for n, m in sys.modules.items() if n == "vlmkit" or n.startswith("vlmkit.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and value in replace:
                    self._set(mod, attr, replace[value])

        record = ops.record
        wrap = self.wrap

        def traced_record(op, out_data, inputs, backward_fn):
            return record(op, out_data, inputs,
                          wrap(OP_PREFIX + op + BACKWARD_SUFFIX, backward_fn))

        self._set(ops, "record", traced_record)

    def instrument(self, model):
        """Time the model's vision tower, connector and LLM forward."""
        self._set(model, "vision", _Timed(self.wrap("model.vision.forward", model.vision),
                                          model.vision))
        self._set(model, "connector", _Timed(
            self.wrap("model.connectors.forward", model.connector), model.connector))
        llm_forward = self.wrap("model.llm.forward_embeds", model.llm.forward_embeds)
        counts = self.counts

        def forward_embeds(embeds):
            counts["model.llm.positions"] += embeds.shape[0]
            return llm_forward(embeds)

        self._set(model.llm, "forward_embeds", forward_embeds)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- per-operation bookkeeping -----------------------------------------------

    def census(self, loss):
        """Count the tape behind `loss`; the walk's own time is set aside."""
        t0 = time.perf_counter()
        for op, (nodes, nbytes) in tape_census(loss).items():
            self.counts[f"numerics.tape.{op}.nodes"] += nodes
            self.counts[f"numerics.tape.{op}.bytes"] += nbytes
        self.untimed += time.perf_counter() - t0

    def take_untimed(self) -> float:
        t, self.untimed = self.untimed, 0.0
        return t

    def fold(self):
        """Add the finished operation's spans to the totals and drop them."""
        if self._stack:
            raise RuntimeError(f"fold with {len(self._stack)} spans still open")
        for name, (incl, own, calls) in self_times(self.spans).items():
            acc = self.totals[name]
            acc[0] += incl
            acc[1] += own
            acc[2] += calls
        self.spans.clear()
