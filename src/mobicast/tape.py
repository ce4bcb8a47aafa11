"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

A `Tape` records one forward computation as a flat list of nodes, each holding
its value and a backward closure.  Calling `backward` on a 1x1 root replays the
list in reverse, accumulating gradients for every node on a path to a
parameter.  Gradients are kept for leaves (parameters and constants) only:
every consumer of a node sits later on the tape, so an interior node's
gradient is complete when the replay reaches it, and it is dropped once the
node's backward closure has consumed it.  Matrices only: scalars travel as
1x1 arrays, vectors as nx1 or 1xn.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, NumericsError, ShapeError


class _Node:
    __slots__ = ("value", "parents", "backward", "requires_grad")

    def __init__(self, value, parents, backward, requires_grad):
        self.value = value
        self.parents = parents
        self.backward = backward
        self.requires_grad = requires_grad


class Var:
    """Handle to one node on a tape."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape._nodes[self.idx].value

    @property
    def shape(self):
        return self.value.shape

    @property
    def requires_grad(self) -> bool:
        return self.tape._nodes[self.idx].requires_grad


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
        return self._push(_as_matrix(value), tuple(p.idx for p in parents),
                          backward, requires, name)

    def _push(self, value, parent_idx, backward, requires_grad, opname) -> Var:
        if self.check_finite and not np.all(np.isfinite(value)):
            raise NumericsError(f"{opname}: produced non-finite values")
        self._nodes.append(_Node(value, parent_idx, backward, requires_grad))
        return Var(self, len(self._nodes) - 1)

    def backward(self, root: Var) -> None:
        if root.tape is not self:
            raise ContractError("root belongs to a different tape")
        if root.shape != (1, 1):
            raise ShapeError(f"backward root must be 1x1, got {root.shape}")
        grads = [None] * len(self._nodes)
        grads[root.idx] = np.ones((1, 1))
        for i in range(root.idx, -1, -1):
            g = grads[i]
            if g is None:
                continue
            node = self._nodes[i]
            if node.backward is None or not node.requires_grad:
                continue
            grads[i] = None  # spent: only leaf gradients outlive backward
            contribs = node.backward(g)
            for p, contrib in zip(node.parents, contribs):
                if contrib is None or not self._nodes[p].requires_grad:
                    continue
                # closures never mutate arrays in place, so views may be stored
                if grads[p] is None:
                    grads[p] = contrib
                else:
                    grads[p] = grads[p] + contrib
        self._grads = grads

    def grad(self, var: Var) -> np.ndarray:
        if self._grads is None:
            raise ContractError("backward has not been called on this tape")
        if self._nodes[var.idx].backward is not None:
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


def gate_linear(x: Var, w: Var, h: Var, u: Var, b: Var) -> Var:
    """x @ w + h @ u + b for a 1xd row b: one recurrent gate's pre-activation.

    A single tape node, so a gate costs two nodes with its activation;
    operands that need no gradient (constant inputs, a zero initial state)
    get none.
    """
    tape = _check_same_tape(x, w, h, u, b)
    xv, wv, hv, uv, bv = x.value, w.value, h.value, u.value, b.value
    (rows, k), (_, d) = xv.shape, wv.shape
    if (wv.shape[0], hv.shape[0], uv.shape, bv.shape) != (k, rows, (hv.shape[1], d), (1, d)):
        raise ShapeError(f"gate_linear: x {xv.shape} @ w {wv.shape} + h {hv.shape} "
                         f"@ u {uv.shape} + b {bv.shape} do not conform")
    out = xv @ wv
    out += hv @ uv
    out += bv
    need = [v.requires_grad for v in (x, w, h, u, b)]

    def backward(g):
        return (g @ wv.T if need[0] else None,
                xv.T @ g if need[1] else None,
                g @ uv.T if need[2] else None,
                hv.T @ g if need[3] else None,
                g.sum(axis=0, keepdims=True) if need[4] else None)

    return tape.node(out, (x, w, h, u, b), backward, "gate_linear")


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

    def backward(g):
        dx = np.empty_like(xv)
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


def smul(a: Var, c: float) -> Var:
    c = float(c)
    return a.tape.node(a.value * c, (a,), lambda g: (g * c,), "smul")


def add_row(a: Var, row: Var) -> Var:
    """Add a 1xd row vector to every row of an nxd matrix."""
    tape = _check_same_tape(a, row)
    if row.shape != (1, a.shape[1]):
        raise ShapeError(f"add_row: row shape {row.shape} does not broadcast over {a.shape}")

    def backward(g):
        return g, g.sum(axis=0, keepdims=True)

    return tape.node(a.value + row.value, (a, row), backward, "add_row")


def relu(a: Var) -> Var:
    av = a.value
    mask = av > 0.0
    return a.tape.node(np.where(mask, av, 0.0), (a,), lambda g: (g * mask,), "relu")


def sigmoid(a: Var) -> Var:
    # 0.5 * (1 + tanh(x / 2)): no exp, so no overflow for any finite x
    out = np.tanh(a.value * 0.5)
    out += 1.0
    out *= 0.5
    return a.tape.node(out, (a,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def tanh(a: Var) -> Var:
    out = np.tanh(a.value)
    return a.tape.node(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


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
    n = av.size
    if n == 0:
        raise ContractError("mean_all of an empty matrix")

    def backward(g):
        return (np.full(av.shape, float(g[0, 0]) / n),)

    return a.tape.node(np.array([[av.mean()]]), (a,), backward, "mean_all")
