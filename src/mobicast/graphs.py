"""Per-day normalized graphs and supervised samples; a sample reads the
graph and case window of each of the seq_len days ending at its anchor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import CountryDataset, normalize_incoming
from .errors import ContractError


@dataclass(frozen=True)
class GraphSample:
    """One supervised instance: graph/feature inputs at an anchor, target at t+j.

    `graphs` holds one (a_norm, x) pair per day the sample reads, oldest
    first, ending at the anchor day; `target` holds the cases of day
    anchor + horizon.
    """
    anchor: int
    horizon: int
    graphs: tuple
    target: np.ndarray

    @property
    def target_day(self) -> int:
        return self.anchor + self.horizon


def normalized_graphs(dataset: CountryDataset) -> tuple:
    """Every day's normalize_incoming(mobility), oldest day first.

    One normalize_incoming call on the whole (T, n, n) stack, on first use,
    kept in `graph_cache` as read-only views of its days and shared by every
    sample built from the dataset.  Filling it before forking workers gives
    them one copy.
    """
    if dataset.graph_cache is None:
        stack = normalize_incoming(dataset.mobility)
        stack.setflags(write=False)
        dataset.graph_cache = tuple(stack)
    return dataset.graph_cache


def _graph_on(dataset: CountryDataset, day: int) -> np.ndarray:
    dataset.mobility_on(day)  # checks the day; access tracing records the read
    return normalized_graphs(dataset)[day - 1]


def _sample_at(dataset: CountryDataset, t: int, d: int, j: int,
               seq_len: int) -> GraphSample:
    pairs = tuple((_graph_on(dataset, day), dataset.case_window(day, d))
                  for day in range(t - seq_len + 1, t + 1))
    return GraphSample(anchor=t, horizon=j, graphs=pairs,
                       target=dataset.cases_on(t + j).copy())


def assemble_samples(dataset: CountryDataset, d: int, j: int, t_end: int,
                     seq_len: int = 1, include_test: bool = False) -> list:
    """Build the training universe for last-observed-day `t_end` at horizon j.

    Each sample reads days t-seq_len+1..t of its anchor t.  Returns one
    sample per anchor with full feature windows and target t+j <= t_end,
    ordered by target day.  With include_test, the single anchor-t_end
    sample (target beyond t_end) is appended; a target day past the data
    is a DataError.
    """
    if j < 1:
        raise ContractError(f"horizon must be >= 1, got {j}")
    if not 1 <= t_end <= dataset.t_total:
        raise ContractError(f"t_end {t_end} outside dataset range 1..{dataset.t_total}")
    if seq_len < 1:
        raise ContractError(f"sequence length must be >= 1, got {seq_len}")
    min_anchor = d + seq_len - 1
    out = [_sample_at(dataset, t, d, j, seq_len)
           for t in range(min_anchor, t_end - j + 1)]
    if include_test and t_end >= min_anchor:
        out.append(_sample_at(dataset, t_end, d, j, seq_len))
    return out
