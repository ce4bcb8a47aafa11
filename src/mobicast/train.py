"""Supervised training: rolling-origin splits, MSE loss, early stopping.

For a last-observed-day T and horizon j, the split puts the samples whose
target days are {T-1, T-3, T-5, T-7, T-9} (where valid) into validation, every
other target <= T into training, and the anchor-T sample into test.  Training
minimizes the mean squared error over all (region, sample) pairs with Adam and
keeps the parameters with the lowest validation MAE; the patience counter only
runs after a warm-up epoch threshold.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tape as tp
from .dataio import CountryDataset
from .errors import (CheckpointError, ContractError, InsufficientDataError,
                     NumericsError, TrainingDivergedError)
from .graphs import GraphSample, assemble_samples
from .models import ModelState, check_feature_mode, model_spec, stack_targets
from .optim import adam_init, adam_step
from .params import load_params, save_params
from .rng import Rng

PROTOCOL_START_DAY = 14
VALIDATION_OFFSETS = (1, 3, 5, 7, 9)


@dataclass(frozen=True)
class ProtocolGrid:
    """Rolling anchors T and horizons to evaluate; every (T, j) with
    T + j within the data is one cell.  A trainable model trains each cell
    on its own; a baseline scores all cells of an anchor from one history."""
    t_start: int = PROTOCOL_START_DAY
    t_end: Optional[int] = None   # inclusive; capped at T_total - 1
    dt: int = 14
    horizons: Optional[tuple] = None  # explicit horizon set, overrides 1..dt

    def __post_init__(self):
        if self.t_start < PROTOCOL_START_DAY:
            raise ContractError(
                f"t_start must be >= {PROTOCOL_START_DAY}, got {self.t_start}")
        if self.t_end is not None and self.t_end < self.t_start:
            raise ContractError("t_end must be >= t_start")
        if self.dt < 1:
            raise ContractError(f"dt must be >= 1, got {self.dt}")
        if self.horizons is not None:
            if not isinstance(self.horizons, (list, tuple)) or any(
                    isinstance(j, bool) or not isinstance(j, int) for j in self.horizons):
                raise ContractError("horizons must be a list of integers")
            hs = tuple(self.horizons)
            if not hs or any(j < 1 for j in hs) or len(set(hs)) != len(hs):
                raise ContractError("horizons must be distinct and >= 1")
            object.__setattr__(self, "horizons", tuple(sorted(hs)))

    def anchors(self, t_total: int) -> list:
        """(t, horizons) for each anchor t of this grid, with its horizons j
        whose target day t + j fits in t_total; an anchor with none is left out."""
        horizons = self.horizons or tuple(range(1, self.dt + 1))
        t_end = t_total if self.t_end is None else self.t_end
        # horizons are sorted: past t_total - horizons[0], none fits
        return [(t, tuple(j for j in horizons if t + j <= t_total))
                for t in range(self.t_start, min(t_end, t_total - horizons[0]) + 1)]


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 500
    patience: int = 50
    patience_start_epoch: int = 100
    batch_size: int = 8
    lr: float = 1e-3
    hidden: int = 64
    dropout: float = 0.5
    d: int = 7
    k_layers: int = 2
    seq_len: int = 7
    feature_mode: str = "last"

    def __post_init__(self):
        if self.max_epochs < 0 or self.patience < 1 or self.patience_start_epoch < 0:
            raise ContractError("epoch/patience settings out of range")
        if self.batch_size < 1 or not 0 < self.lr < math.inf:   # NaN fails too
            raise ContractError("batch_size must be >= 1 and lr finite and > 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError("dropout must be in [0, 1)")
        if min(self.d, self.k_layers, self.hidden, self.seq_len) < 1:
            raise ContractError("architecture sizes must be >= 1")
        check_feature_mode(self.feature_mode)


@dataclass
class SplitSpec:
    """A country's samples at (t, horizon): training, validation (empty for
    a meta-training task) and the one held-out test sample."""
    country: str
    t: int
    horizon: int
    train: list
    validation: list
    test: GraphSample


@dataclass
class Checkpoint:
    model: object
    state: ModelState
    val_error: float
    epoch: int          # epoch whose parameters are stored (0 = initialization)
    stopped_epoch: int  # epochs the loop actually ran


def make_splits(dataset: CountryDataset, t: int, j: int, d: int,
                seq_len: int = 1) -> SplitSpec:
    """Carve the day-T training universe into train/validation plus the test
    sample; each sample reads `seq_len` days of d-day windows."""
    if t < PROTOCOL_START_DAY:
        raise ContractError(f"protocol requires T >= {PROTOCOL_START_DAY}, got {t}")
    universe = assemble_samples(dataset, d, j, t, seq_len, include_test=True)
    if not universe or universe[-1].anchor != t:
        raise InsufficientDataError(
            f"{dataset.country}: no test anchor at T={t} for d={d}, j={j}")
    test = universe[-1]
    pool = universe[:-1]
    val_days = {t - off for off in VALIDATION_OFFSETS}
    validation = [smp for smp in pool if smp.target_day in val_days]
    train = [smp for smp in pool if smp.target_day not in val_days]
    if not train:
        raise InsufficientDataError(
            f"{dataset.country}: no training samples at T={t}, j={j} (d={d})")
    if not validation:
        raise InsufficientDataError(
            f"{dataset.country}: no validation samples at T={t}, j={j} (d={d})")
    return SplitSpec(country=dataset.country, t=t, horizon=j, train=train,
                     validation=validation, test=test)


def predict(model, state: ModelState, samples) -> np.ndarray:
    """Eval forecasts (no random stream) for a batch, stacked; shape (sum n_i,).

    The parameters enter as constants, so the tape keeps no backward closure.
    """
    tape = tp.Tape()
    pvars = {name: tape.constant(arr) for name, arr in state.params.items()}
    out = model.forward(tape, pvars, state.buffers, samples, None)
    return out.value[:, 0].copy()


@contextlib.contextmanager
def divergence_at(epoch: int):
    """Raise a NumericsError of the block's forecasts as a TrainingDivergedError
    naming the epoch whose parameters made them."""
    try:
        yield
    except NumericsError as exc:
        raise TrainingDivergedError(f"non-finite forecast with the parameters of "
                                    f"epoch {epoch}: {exc}") from exc


def loss_and_grads(model, state: ModelState, batch, rng):
    """Mean squared error of one batch, a training forward with random stream rng,
    and the gradient of every parameter; None when the loss is not finite."""
    tape = tp.Tape(check_finite=False)
    pvars = tape.bind(state.params)
    preds = model.forward(tape, pvars, state.buffers, batch, rng)
    loss = tp.mean_all(tp.square(tp.sub(preds, tape.constant(stack_targets(batch)))))
    value = float(loss.value[0, 0])
    if not math.isfinite(value):
        return value, None
    tape.backward(loss)
    return value, {name: tape.grad(var) for name, var in pvars.items()}


def _validation_mae(model, state: ModelState, samples) -> float:
    preds = predict(model, state, samples)
    targets = stack_targets(samples)[:, 0]
    return float(np.mean(np.abs(preds - targets)))


def _param_norms(params: dict) -> str:
    worst = sorted(params, key=lambda k: -float(np.abs(params[k]).max()))[:3]
    return ", ".join(f"{k}: |max|={np.abs(params[k]).max():.3e}" for k in worst)


def train_model(splits: SplitSpec, model, config: TrainConfig, seed: int,
                init_state: Optional[ModelState] = None,
                log_fn: Optional[Callable[[dict], None]] = None) -> Checkpoint:
    """Adam training with seeded shuffling and early stopping; returns the best state."""
    if not splits.train or not splits.validation:
        raise InsufficientDataError("train_model needs nonempty train and validation sets")
    rng = Rng(seed)
    state = init_state.clone() if init_state is not None else model.init_state(rng.spawn("init"))
    shuffle_rng = rng.spawn("shuffle")
    dropout_rng = rng.spawn("dropout")
    adam = adam_init(state.params)

    with divergence_at(0):
        best = Checkpoint(model, state.clone(),
                          _validation_mae(model, state, splits.validation),
                          epoch=0, stopped_epoch=0)
    stale = epoch = 0
    train = splits.train
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train))
        sq_sum = 0.0
        rows = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train[i] for i in order[start:start + config.batch_size]]
            loss, grads = loss_and_grads(model, state, batch, dropout_rng)
            if grads is None:
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch "
                    f"{start // config.batch_size}; "
                    f"largest parameters: {_param_norms(state.params)}")
            batch_rows = sum(smp.n for smp in batch)
            sq_sum += loss * batch_rows
            rows += batch_rows
            state.params = adam_step(state.params, grads, adam, config.lr)
            del grads   # not held through the next forward or the validation pass
        with divergence_at(epoch):
            val_mae = _validation_mae(model, state, splits.validation)
        if log_fn is not None:
            log_fn({"epoch": epoch, "train_loss": sq_sum / max(rows, 1),
                    "val_mae": val_mae})
        if val_mae < best.val_error:
            best = Checkpoint(model, state.clone(), val_mae, epoch, epoch)
            stale = 0
        elif epoch > config.patience_start_epoch:
            stale += 1
            if stale >= config.patience:
                break
    best.stopped_epoch = epoch
    return best


def save_checkpoint(path: str, checkpoint: Checkpoint | str, cell: dict) -> None:
    """Write a trained Checkpoint, or a skip reason string as a header-only
    record, with `cell`, the cell's record; load_checkpoint returns either."""
    if isinstance(checkpoint, str):
        return save_params(path, {}, {}, {"kind": "mobicast-skip",
                                          "reason": checkpoint, "extra": cell})
    meta = {
        "kind": "mobicast-checkpoint",
        "model": model_spec(checkpoint.model),
        "val_error": checkpoint.val_error,
        "epoch": checkpoint.epoch,
        "stopped_epoch": checkpoint.stopped_epoch,
        "extra": cell,
    }
    save_params(path, checkpoint.state.params, checkpoint.state.buffers, meta)


def load_checkpoint(path: str, model, cell: dict) -> Checkpoint | str:
    """What save_checkpoint took: the trained `model` a checkpoint holds, or
    a skip's reason.  A header recording another cell record than `cell`,
    or another architecture, is a CheckpointError naming the file."""
    params, buffers, meta = load_params(path)
    kind = meta.get("kind")
    if kind not in ("mobicast-skip", "mobicast-checkpoint"):
        raise CheckpointError(f"{path!r} is not a model checkpoint")
    if meta.get("extra") != cell:
        raise CheckpointError(f"{path!r} records cell {meta.get('extra')}, not {cell}")
    try:
        if kind == "mobicast-skip":
            reason = meta["reason"]   # rows.csv writes it on the cell's skip line
            if not isinstance(reason, str) or "".join(reason.splitlines()) != reason:
                raise ValueError(f"reason must be one line of text, got {reason!r}")
            return reason
        stored, expected = meta["model"], model_spec(model)
        if stored.items() != expected.items():   # a non-object fails .items()
            raise CheckpointError(f"{path!r} holds model {stored}, but the run "
                                  f"config builds {expected}")
        return Checkpoint(model, ModelState(params, buffers),
                          float(meta["val_error"]), int(meta["epoch"]),
                          int(meta["stopped_epoch"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path!r}: malformed {kind} header: {exc!r}") from exc
