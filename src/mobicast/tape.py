"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

A `Tape` records one forward computation as a flat list of nodes, each holding
its parents and, if it needs a gradient, a backward closure; the value lives
in the `Var` handle the op returns.  An intermediate is therefore freed by
refcount as soon as the model code drops its handle, unless a backward closure
captured it, and every closure captures only what its backward reads.  A
forward over constants only (an eval pass) keeps no closure at all.  Calling `backward` on a 1x1
root replays the list in reverse, accumulating gradients for every node on a
path to a parameter, and drops each closure (and the arrays it captured) once
it has run; a tape is replayed once.  Gradients are kept for leaves
(parameters and constants) only: every consumer of a node sits later on the
tape, so an interior node's gradient is complete when the replay reaches it,
and it is dropped once the node's backward closure has consumed it.
Matrices only: scalars travel as 1x1 arrays, vectors as nx1 or 1xn.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, NumericsError, ShapeError


class _Node:
    __slots__ = ("parents", "backward", "requires_grad")

    def __init__(self, parents, backward, requires_grad):
        self.parents = parents
        self.backward = backward
        self.requires_grad = requires_grad


def _spent(g):
    raise ContractError("this backward closure has already run")


class Var:
    """Handle to one node on a tape; it owns the node's value."""

    __slots__ = ("tape", "idx", "value", "requires_grad")

    def __init__(self, tape: "Tape", idx: int, value: np.ndarray, requires_grad: bool):
        self.tape = tape
        self.idx = idx
        self.value = value
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape


def _as_matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"tape values must be 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


class Tape:
    """Record of one forward pass; build ops with the module-level functions."""

    def __init__(self, check_finite: bool = True):
        self.check_finite = check_finite
        self._nodes: list[_Node] = []
        self._grads: Optional[list] = None

    def constant(self, value) -> Var:
        return self._push(_as_matrix(value), (), None, False, "constant")

    def parameter(self, value) -> Var:
        return self._push(_as_matrix(value), (), None, True, "parameter")

    def bind(self, params: dict) -> dict:
        """Register every array in a name->array dict as a parameter."""
        return {name: self.parameter(arr) for name, arr in params.items()}

    def node(self, value, parents: Sequence[Var], backward: Callable, name: str = "node") -> Var:
        """Extension point for composite ops (batchnorm, dropout)."""
        requires = any(p.requires_grad for p in parents)
        if not (type(value) is np.ndarray and value.dtype == np.float64
                and value.ndim == 2 and value.flags.c_contiguous):
            value = _as_matrix(value)
        return self._push(value, tuple(p.idx for p in parents),
                          backward, requires, name)

    def _push(self, value, parent_idx, backward, requires_grad, opname) -> Var:
        if self.check_finite and not np.all(np.isfinite(value)):
            raise NumericsError(f"{opname}: produced non-finite values")
        self._nodes.append(_Node(parent_idx, backward if requires_grad else None,
                                 requires_grad))
        return Var(self, len(self._nodes) - 1, value, requires_grad)

    def backward(self, root: Var) -> None:
        if root.tape is not self:
            raise ContractError("root belongs to a different tape")
        if root.shape != (1, 1):
            raise ShapeError(f"backward root must be 1x1, got {root.shape}")
        if self._grads is not None:
            raise ContractError("backward has already run on this tape")
        grads = [None] * len(self._nodes)
        owned = [False] * len(self._nodes)   # grads[p] is an array backward made
        grads[root.idx] = np.ones((1, 1))
        for i in range(root.idx, -1, -1):
            g = grads[i]
            if g is None:
                continue
            node = self._nodes[i]
            if node.backward is None:
                continue
            grads[i] = None  # spent: only leaf gradients outlive backward
            contribs = node.backward(g)
            node.backward = _spent  # frees what the closure captured
            for p, contrib in zip(node.parents, contribs):
                if contrib is None or not self._nodes[p].requires_grad:
                    continue
                # A first contribution may be a view or shared (add hands
                # the same g to both parents), so it is stored as is and
                # never written; the second makes a new array, which the
                # third and later add into in place.
                acc = grads[p]
                if acc is None:
                    grads[p] = contrib
                elif owned[p]:
                    acc += contrib
                else:
                    grads[p] = acc + contrib
                    owned[p] = True
        self._grads = grads

    def grad(self, var: Var) -> np.ndarray:
        if self._grads is None:
            raise ContractError("backward has not been called on this tape")
        if self._nodes[var.idx].parents:
            raise ContractError("gradients are kept for leaves (parameters, "
                                "constants) only, not for interior nodes")
        g = self._grads[var.idx]
        if g is None:
            return np.zeros_like(var.value)
        return g


def _check_same_tape(*vars_: Var) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise ContractError("operands belong to different tapes")
    return tape


def matmul(a: Var, b: Var) -> Var:
    tape = _check_same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: shapes {av.shape} and {bv.shape} are incompatible")
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(g):
        return (g @ bv.T if need_a else None,
                av.T @ g if need_b else None)

    return tape.node(av @ bv, (a, b), backward, "matmul")


def gate_linear(x: Var, w: Var, h: Optional[Var], u: Optional[Var], b: Var) -> Var:
    """x @ w + h @ u + b for a 1xd row b: one recurrent gate's pre-activation.

    With no prior state, h and u are both None and the gate is x @ w + b.
    A single tape node, so a gate costs two nodes with its activation;
    operands that need no gradient (constant inputs) get none.  A one-column
    x multiplies as the broadcast x * w: the same one product per entry as
    a k=1 GEMM, without the GEMM call.
    """
    if (h is None) != (u is None):
        raise ContractError("gate_linear: h and u must both be given or both be None")
    parents = (x, w, b) if h is None else (x, w, h, u, b)
    tape = _check_same_tape(*parents)
    xv, wv, bv = x.value, w.value, b.value
    hv, uv = (None, None) if h is None else (h.value, u.value)
    (rows, k), (_, d) = xv.shape, wv.shape
    state_ok = h is None or (hv.shape[0], uv.shape) == (rows, (hv.shape[1], d))
    if (wv.shape[0], bv.shape) != (k, (1, d)) or not state_ok:
        state = "" if h is None else f" + h {hv.shape} @ u {uv.shape}"
        raise ShapeError(f"gate_linear: x {xv.shape} @ w {wv.shape}{state} "
                         f"+ b {bv.shape} do not conform")
    out = xv * wv if k == 1 else xv @ wv
    if h is not None:
        out += hv @ uv
    out += bv
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad
    need_h, need_u = (False, False) if h is None else (h.requires_grad, u.requires_grad)

    def backward(g):
        gx = g @ wv.T if need_x else None
        gw = xv.T @ g if need_w else None
        gb = g.sum(axis=0, keepdims=True) if need_b else None
        if hv is None:
            return gx, gw, gb
        return (gx, gw, g @ uv.T if need_h else None,
                hv.T @ g if need_u else None, gb)

    return tape.node(out, parents, backward, "gate_linear")


def block_diag_matmul(blocks: Sequence[np.ndarray], x: Var) -> Var:
    """Multiply a block-diagonal constant matrix (given as blocks) by x.

    Block k maps rows [r_k, r_k + cols_k) of x to rows [s_k, s_k + rows_k) of
    the output.  Used to aggregate a batch of graphs in one call without
    materializing the full block-diagonal matrix.
    """
    if not blocks:
        raise ContractError("block_diag_matmul needs at least one block")
    mats = [np.asarray(b, dtype=np.float64) for b in blocks]
    for m in mats:
        if m.ndim != 2:
            raise ShapeError(f"blocks must be 2-D, got shape {m.shape}")
    xv = x.value
    in_rows = sum(m.shape[1] for m in mats)
    if in_rows != xv.shape[0]:
        raise ShapeError(f"block_diag_matmul: blocks consume {in_rows} rows, x has {xv.shape[0]}")
    out = np.empty((sum(m.shape[0] for m in mats), xv.shape[1]))
    r = s = 0
    spans = []
    for m in mats:
        out[s:s + m.shape[0]] = m @ xv[r:r + m.shape[1]]
        spans.append((r, s))
        r += m.shape[1]
        s += m.shape[0]

    in_shape = xv.shape

    def backward(g):
        dx = np.empty(in_shape)
        for m, (r0, s0) in zip(mats, spans):
            dx[r0:r0 + m.shape[1]] = m.T @ g[s0:s0 + m.shape[0]]
        return (dx,)

    return x.tape.node(out, (x,), backward, "block_diag_matmul")


def _binary_elementwise(a: Var, b: Var, opname: str):
    tape = _check_same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} differ")
    return tape


def add(a: Var, b: Var) -> Var:
    tape = _binary_elementwise(a, b, "add")
    return tape.node(a.value + b.value, (a, b), lambda g: (g, g), "add")


def sub(a: Var, b: Var) -> Var:
    tape = _binary_elementwise(a, b, "sub")
    return tape.node(a.value - b.value, (a, b), lambda g: (g, -g), "sub")


def mul(a: Var, b: Var) -> Var:
    tape = _binary_elementwise(a, b, "mul")
    av, bv = a.value, b.value
    return tape.node(av * bv, (a, b), lambda g: (g * bv, g * av), "mul")


def add_row(a: Var, row: Var) -> Var:
    """Add a 1xd row vector to every row of an nxd matrix."""
    tape = _check_same_tape(a, row)
    if row.shape != (1, a.shape[1]):
        raise ShapeError(f"add_row: row shape {row.shape} does not broadcast over {a.shape}")

    def backward(g):
        return g, g.sum(axis=0, keepdims=True)

    return tape.node(a.value + row.value, (a, row), backward, "add_row")


def relu(a: Var) -> Var:
    # Keep a value's bits where mask holds (AND with all-ones), else +0.0.
    # Equal to np.where(mask, av, 0.0) bit for bit, NaN and -0.0 included,
    # without its per-element branch, which mispredicts on a ReLU mask.
    av = a.value
    mask = av > 0.0
    bits = np.negative(mask, dtype=np.int64)
    bits &= av.view(np.int64)
    return a.tape.node(bits.view(np.float64), (a,), lambda g: (g * mask,), "relu")


def sigmoid(a: Var) -> Var:
    # 0.5 * (1 + tanh(x / 2)): no exp, so no overflow for any finite x
    out = np.multiply(a.value, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5

    def backward(g):
        dx = g * out
        dx *= 1.0 - out
        return (dx,)

    return a.tape.node(out, (a,), backward, "sigmoid")


def tanh(a: Var) -> Var:
    out = np.tanh(a.value)

    def backward(g):
        dx = out * out
        np.subtract(1.0, dx, out=dx)
        dx *= g   # g * (1 - out * out): a product's bits do not depend on operand order
        return (dx,)

    return a.tape.node(out, (a,), backward, "tanh")


def square(a: Var) -> Var:
    av = a.value
    return a.tape.node(av * av, (a,), lambda g: (g * 2.0 * av,), "square")


def hconcat(*vars_: Var) -> Var:
    if not vars_:
        raise ContractError("hconcat needs at least one operand")
    tape = _check_same_tape(*vars_)
    rows = vars_[0].shape[0]
    for v in vars_:
        if v.shape[0] != rows:
            raise ShapeError("hconcat: operands disagree on row count")
    widths = [v.shape[1] for v in vars_]
    offsets = np.cumsum([0] + widths)

    def backward(g):
        return tuple(g[:, offsets[k]:offsets[k + 1]] for k in range(len(widths)))

    return tape.node(np.concatenate([v.value for v in vars_], axis=1), vars_, backward, "hconcat")


def mean_all(a: Var) -> Var:
    av = a.value
    shape, n = av.shape, av.size
    if n == 0:
        raise ContractError("mean_all of an empty matrix")

    def backward(g):
        return (np.full(shape, float(g[0, 0]) / n),)

    return a.tape.node(np.array([[av.mean()]]), (a,), backward, "mean_all")
