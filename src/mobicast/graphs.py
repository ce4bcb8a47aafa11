"""Per-day normalized graphs and supervised samples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataio import CountryDataset
from .errors import ContractError, ShapeError


@dataclass(frozen=True)
class GraphSample:
    """One supervised instance: graph/feature inputs at an anchor, target at t+j.

    `graphs` holds one (a_norm, x) pair for static models or S pairs (oldest
    first, ending at the anchor day) for sequence models.  `target` is None
    when the target day lies beyond the dataset (pure-forecast sample).
    """
    anchor: int
    horizon: int
    graphs: tuple
    target: Optional[np.ndarray]

    @property
    def n(self) -> int:
        return self.graphs[-1][1].shape[0]

    @property
    def target_day(self) -> int:
        return self.anchor + self.horizon


def normalize_incoming(m: np.ndarray) -> np.ndarray:
    """Scale each row to sum to 1 (incoming-edge normalization); zero rows stay zero."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"mobility matrix must be square, got {m.shape}")
    if np.any(m < 0):
        raise ContractError("mobility entries must be >= 0")
    sums = m.sum(axis=1, keepdims=True)
    return np.divide(m, sums, out=np.zeros_like(m), where=sums > 0)


def normalized_graphs(dataset: CountryDataset) -> tuple:
    """Every day's normalize_incoming(mobility), oldest day first.

    Computed once per dataset, on first use, and kept in its `graph_cache`:
    the arrays are read-only and shared by every sample built from the
    dataset.  Filling it before forking workers gives them one copy.
    """
    cache = dataset.graph_cache
    if cache is None:
        cache = tuple(normalize_incoming(m) for m in dataset.mobility)
        for graph in cache:
            graph.setflags(write=False)
        dataset.graph_cache = cache
    return cache


def _graph_on(dataset: CountryDataset, day: int) -> np.ndarray:
    dataset.mobility_on(day)  # checks the day; access tracing records the read
    return normalized_graphs(dataset)[day - 1]


def _sample_at(dataset: CountryDataset, t: int, d: int, j: int,
               variant: str, s: int) -> GraphSample:
    if variant == "static":
        days = [t]
    else:
        days = list(range(t - s + 1, t + 1))
    pairs = tuple((_graph_on(dataset, day), dataset.case_window(day, d))
                  for day in days)
    target_day = t + j
    target = dataset.cases_on(target_day).copy() if target_day <= dataset.t_total else None
    return GraphSample(anchor=t, horizon=j, graphs=pairs, target=target)


def assemble_samples(dataset: CountryDataset, d: int, j: int, t_end: int,
                     variant: str = "static", s: int = 7,
                     include_test: bool = False) -> list:
    """Build the training universe for last-observed-day `t_end` at horizon j.

    Returns one sample per anchor t with a full feature window and target
    t+j <= t_end, ordered by target day.  With include_test, the single
    anchor-t_end sample (target beyond t_end, possibly unlabeled) is appended.
    """
    if variant not in ("static", "sequence"):
        raise ContractError(f"variant must be 'static' or 'sequence', got {variant!r}")
    if j < 1:
        raise ContractError(f"horizon must be >= 1, got {j}")
    if not 1 <= t_end <= dataset.t_total:
        raise ContractError(f"t_end {t_end} outside dataset range 1..{dataset.t_total}")
    if variant == "sequence" and s < 1:
        raise ContractError(f"sequence length must be >= 1, got {s}")
    min_anchor = d if variant == "static" else d + s - 1
    out = [_sample_at(dataset, t, d, j, variant, s)
           for t in range(min_anchor, t_end - j + 1)]
    if include_test and t_end >= min_anchor:
        out.append(_sample_at(dataset, t_end, d, j, variant, s))
    return out
