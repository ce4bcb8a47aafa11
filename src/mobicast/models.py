"""Forward definitions for the MPNN, MPNN+LSTM, and baseline LSTM forecasters.

All models share the same surface: `init_state(rng)` builds a ModelState
(params + batchnorm buffers) and `forward(tape, pvars, buffers, samples, mode,
rng)` returns stacked per-region predictions as a (sum n_i) x 1 tape Var.
Batches mix whole-graph samples; block-diagonal aggregation keeps the graphs
independent while batchnorm statistics span all rows, and a final ReLU keeps
every forecast nonnegative.  Each class declares its checkpoint `kind`, the
`spec_fields` its constructor takes and `seq_len`, the graph days a sample
holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape as tp
from .errors import ContractError, ShapeError
from .layers import batchnorm, dropout, glorot_init
from .params import clone_params
from .rng import Rng


@dataclass
class ModelState:
    params: dict = field(default_factory=dict)
    buffers: dict = field(default_factory=dict)

    def clone(self) -> "ModelState":
        return ModelState(clone_params(self.params), clone_params(self.buffers))


def stack_targets(samples) -> np.ndarray:
    """Targets of a batch as one (sum n_i) x 1 column, sample order preserved."""
    cols = []
    for smp in samples:
        if smp.target is None:
            raise ContractError(f"sample at anchor {smp.anchor} has no target")
        cols.append(np.asarray(smp.target, dtype=np.float64).reshape(-1, 1))
    return np.vstack(cols)


def check_feature_mode(mode: str) -> None:
    if mode not in ("last", "all"):
        raise ContractError(f"feature_mode must be 'last' or 'all', got {mode!r}")


def lstm_cell(x: tp.Var, h_prev: tp.Var, c_prev: tp.Var, pvars: dict, prefix: str):
    """Standard LSTM step; gate tensors looked up as {prefix}.{w,u,b}{i,f,g,o}."""
    def gate(name, act):
        return act(tp.gate_linear(x, pvars[f"{prefix}.w{name}"], h_prev,
                                  pvars[f"{prefix}.u{name}"],
                                  pvars[f"{prefix}.b{name}"]))

    i = gate("i", tp.sigmoid)
    f = gate("f", tp.sigmoid)
    g = gate("g", tp.tanh)
    o = gate("o", tp.sigmoid)
    c = tp.add(tp.mul(f, c_prev), tp.mul(i, g))
    h = tp.mul(o, tp.tanh(c))
    return h, c


def _init_lstm(params: dict, prefix: str, in_dim: int, hidden: int, rng: Rng) -> None:
    for name in "ifgo":
        params[f"{prefix}.w{name}"] = glorot_init(in_dim, hidden, rng)
        params[f"{prefix}.u{name}"] = glorot_init(hidden, hidden, rng)
        params[f"{prefix}.b{name}"] = np.zeros((1, hidden))


def _init_head(params: dict, in_dim: int, hidden: int, rng: Rng) -> None:
    params["head.w1"] = glorot_init(in_dim, hidden, rng)
    params["head.b1"] = np.zeros((1, hidden))
    params["head.w2"] = glorot_init(hidden, 1, rng)
    params["head.b2"] = np.zeros((1, 1))


def _head(pvars: dict, rep: tp.Var) -> tp.Var:
    h = tp.relu(tp.add_row(tp.matmul(rep, pvars["head.w1"]), pvars["head.b1"]))
    return tp.relu(tp.add_row(tp.matmul(h, pvars["head.w2"]), pvars["head.b2"]))


class MPNNModel:
    """Message-passing network over one day's graph and case-window features."""

    kind = "mpnn"
    spec_fields = ("d", "k_layers", "hidden", "dropout")
    seq_len = 1   # graph days per sample

    def __init__(self, d: int = 7, k_layers: int = 2, hidden: int = 64,
                 dropout: float = 0.5):
        if min(d, k_layers, hidden) < 1:
            raise ContractError("d, k_layers and hidden must be >= 1")
        self.d = d
        self.k_layers = k_layers
        self.hidden = hidden
        self.dropout = dropout

    @property
    def rep_width(self) -> int:
        return self.d + self.k_layers * self.hidden

    def init_state(self, rng: Rng) -> ModelState:
        state = ModelState()
        self._init_trunk(state, rng)
        _init_head(state.params, self.rep_width, self.hidden, rng)
        return state

    def _init_trunk(self, state: ModelState, rng: Rng) -> None:
        in_dim = self.d
        for layer in range(1, self.k_layers + 1):
            state.params[f"agg{layer}.w"] = glorot_init(in_dim, self.hidden, rng)
            state.params[f"agg{layer}.bn.gamma"] = np.ones((1, self.hidden))
            state.params[f"agg{layer}.bn.beta"] = np.zeros((1, self.hidden))
            state.buffers[f"agg{layer}.bn.mean"] = np.zeros((1, self.hidden))
            state.buffers[f"agg{layer}.bn.var"] = np.ones((1, self.hidden))
            in_dim = self.hidden

    def _trunk(self, tape, pvars, buffers, blocks, x: np.ndarray, mode, rng) -> tp.Var:
        if x.shape[1] != self.d:
            raise ShapeError(f"features have {x.shape[1]} columns, model expects {self.d}")
        h = tape.constant(x)
        reps = [h]
        for layer in range(1, self.k_layers + 1):
            z = tp.block_diag_matmul(blocks, h)
            z = tp.relu(tp.matmul(z, pvars[f"agg{layer}.w"]))
            z = batchnorm(z, pvars[f"agg{layer}.bn.gamma"], pvars[f"agg{layer}.bn.beta"],
                          buffers[f"agg{layer}.bn.mean"], buffers[f"agg{layer}.bn.var"], mode)
            z = dropout(z, self.dropout, rng, mode)
            reps.append(z)
            h = z
        return tp.hconcat(*reps)  # skip concatenation: raw features + every layer

    def forward(self, tape, pvars, buffers, samples, mode: str, rng: Rng | None) -> tp.Var:
        blocks = [smp.graphs[-1][0] for smp in samples]
        x = np.vstack([smp.graphs[-1][1] for smp in samples])
        rep = self._trunk(tape, pvars, buffers, blocks, x, mode, rng)
        return _head(pvars, rep)


class MPNNLSTMModel(MPNNModel):
    """Shared MPNN trunk per day feeding a two-layer LSTM over the day sequence.

    Each region acts as an independent sequence instance; the last step's
    top-layer hidden state plus the anchor day's raw window row feed the head.
    `feature_mode='all'` concatenates every day's raw row instead (ambiguous
    in the source description; last-day is the default reading).
    """

    kind = "mpnn_lstm"
    spec_fields = MPNNModel.spec_fields + ("seq_len", "feature_mode")

    def __init__(self, d: int = 7, k_layers: int = 2, hidden: int = 64,
                 dropout: float = 0.5, seq_len: int = 7,
                 feature_mode: str = "last"):
        super().__init__(d, k_layers, hidden, dropout)
        if seq_len < 1:
            raise ContractError(f"seq_len must be >= 1, got {seq_len}")
        check_feature_mode(feature_mode)
        self.seq_len = seq_len
        self.feature_mode = feature_mode

    def init_state(self, rng: Rng) -> ModelState:
        state = ModelState()
        self._init_trunk(state, rng)
        _init_lstm(state.params, "lstm1", self.rep_width, self.hidden, rng)
        _init_lstm(state.params, "lstm2", self.hidden, self.hidden, rng)
        raw_width = self.d * (self.seq_len if self.feature_mode == "all" else 1)
        _init_head(state.params, self.hidden + raw_width, self.hidden, rng)
        return state

    def forward(self, tape, pvars, buffers, samples, mode: str, rng: Rng | None) -> tp.Var:
        steps = len(samples[0].graphs)
        if steps != self.seq_len:
            raise ShapeError(f"samples carry {steps} days, model expects {self.seq_len}")
        for smp in samples:
            if len(smp.graphs) != steps:
                raise ShapeError("samples in a batch disagree on sequence length")
        day_x = [np.vstack([smp.graphs[s][1] for smp in samples]) for s in range(steps)]
        rows = day_x[0].shape[0]
        zero = tape.constant(np.zeros((rows, self.hidden)))
        h1 = c1 = h2 = c2 = zero
        for s in range(steps):
            blocks = [smp.graphs[s][0] for smp in samples]
            rep = self._trunk(tape, pvars, buffers, blocks, day_x[s], mode, rng)
            h1, c1 = lstm_cell(rep, h1, c1, pvars, "lstm1")
            h2, c2 = lstm_cell(h1, h2, c2, pvars, "lstm2")
        if self.feature_mode == "last":
            raw = [tape.constant(day_x[-1])]
        else:
            raw = [tape.constant(x) for x in day_x]
        return _head(pvars, tp.hconcat(h2, *raw))


class BaselineLSTMModel:
    """Two-layer LSTM over each region's own case history; no graph input."""

    kind = "lstm"
    spec_fields = ("d", "hidden")
    seq_len = 1

    def __init__(self, d: int = 7, hidden: int = 64):
        if d < 1 or hidden < 1:
            raise ContractError("d and hidden must be >= 1")
        self.d = d
        self.hidden = hidden

    def init_state(self, rng: Rng) -> ModelState:
        state = ModelState()
        _init_lstm(state.params, "lstm1", 1, self.hidden, rng)
        _init_lstm(state.params, "lstm2", self.hidden, self.hidden, rng)
        state.params["head.w"] = glorot_init(self.hidden, 1, rng)
        state.params["head.b"] = np.zeros((1, 1))
        return state

    def forward(self, tape, pvars, buffers, samples, mode: str, rng: Rng | None) -> tp.Var:
        x = np.vstack([smp.graphs[-1][1] for smp in samples])
        if x.shape[1] != self.d:
            raise ShapeError(f"features have {x.shape[1]} columns, model expects {self.d}")
        rows = x.shape[0]
        zero = tape.constant(np.zeros((rows, self.hidden)))
        h1 = c1 = h2 = c2 = zero
        for s in range(self.d):
            step = tape.constant(x[:, s:s + 1])
            h1, c1 = lstm_cell(step, h1, c1, pvars, "lstm1")
            h2, c2 = lstm_cell(h1, h2, c2, pvars, "lstm2")
        out = tp.add_row(tp.matmul(h2, pvars["head.w"]), pvars["head.b"])
        return tp.relu(out)


MODEL_KINDS = {cls.kind: cls for cls in (MPNNModel, MPNNLSTMModel, BaselineLSTMModel)}


def model_spec(model) -> dict:
    """Serializable description of a model's architecture (for checkpoints)."""
    return {"kind": model.kind, **{f: getattr(model, f) for f in model.spec_fields}}


def model_from_spec(spec: dict):
    """The model a spec describes; keys outside its kind's fields are ignored."""
    kind = spec.get("kind")
    cls = MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ContractError(f"unknown model kind {kind!r}")
    return cls(**{f: spec[f] for f in cls.spec_fields})
