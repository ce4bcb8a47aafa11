"""Shared fixtures: tiny datasets, random graph samples, access tracing."""

import json
import os

import numpy as np

from mobicast import evaluation
from mobicast import tape as tp
from mobicast.dataio import CountryDataset, SyntheticConfig, generate_synthetic, save_bundle
from mobicast.errors import TrainingDivergedError
from mobicast.graphs import GraphSample, normalize_incoming
from mobicast.models import ModelState
from mobicast.rng import Rng


def pytest_report_header(config):
    """The numpy build and BLAS threads the bit-exact sha256 pins assume."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the line is informative
        blas = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"numpy {np.__version__}, blas {blas}, OPENBLAS_NUM_THREADS={threads}"


def make_ramp_dataset(n=4, days=30, country="X", seed=0):
    """Deterministic dataset with linearly growing cases and random mobility."""
    rng = Rng(seed)
    regions = [f"r{i}" for i in range(n)]
    dates = [f"2020-04-{d + 1:02d}" if d < 30 else f"2020-05-{d - 29:02d}"
             for d in range(days)]
    cases = np.outer(np.arange(1, n + 1), np.arange(1, days + 1)).astype(float)
    mobility = [rng.uniform(0.0, 10.0, (n, n)) for _ in range(days)]
    return CountryDataset(country, regions, dates, cases, mobility)


def save_regionless_bundle(dataset, path):
    """Save dataset as a bundle, then rewrite it by hand to hold no region:
    n 0, no case rows and a (t_total, 0, 0) mobility array."""
    save_bundle(dataset, path)
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest.update(n=0, regions=[])
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    with open(os.path.join(path, "cases.csv"), "w", encoding="utf-8") as fh:
        fh.write("date,region,new_cases\n")
    np.save(os.path.join(path, "mobility.npy"), np.zeros((dataset.t_total, 0, 0)))


def small_synthetic(seed=0, n=5, days=40, countries=1, jitter=True):
    cfg = SyntheticConfig(n_regions=n, n_days=days, n_countries=countries,
                          noise_seed=seed, jitter=jitter)
    data = generate_synthetic(cfg)
    return data[0] if countries == 1 else data


def random_sample(rng, n=4, d=7, steps=1, horizon=1):
    """Random GraphSample with row-normalized mobility and nonnegative features."""
    pairs = []
    for _ in range(steps):
        a = normalize_incoming(rng.uniform(0.0, 5.0, (n, n)))
        x = rng.uniform(0.0, 20.0, (n, d))
        pairs.append((a, x))
    return GraphSample(anchor=d + steps - 1, horizon=horizon,
                       graphs=tuple(pairs), target=rng.uniform(0.0, 30.0, n))


class FirstFeatureModel:
    """Predicts w times each region's first feature; w starts at 1, so a
    sample's features are its predictions."""

    d = 1

    def init_state(self, rng):
        return ModelState({"w": np.ones((1, 1))}, {})

    def forward(self, tape, pvars, buffers, samples, rng):
        x = np.vstack([s.graphs[-1][1][:, :1] for s in samples])
        return tp.matmul(tape.constant(x), pvars["w"])


def prediction_sample(preds, targets):
    """A one-graph sample that FirstFeatureModel forecasts as `preds`."""
    preds = np.asarray(preds, dtype=np.float64)
    return GraphSample(anchor=1, horizon=1,
                       graphs=((np.eye(preds.size), preds.reshape(-1, 1)),),
                       target=np.asarray(targets, dtype=np.float64))


class TracingDataset:
    """CountryDataset proxy recording which days each accessor touched."""

    def __init__(self, inner: CountryDataset):
        self._inner = inner
        self.case_days_read = set()
        self.mobility_days_read = set()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def n(self):
        return self._inner.n

    @property
    def t_total(self):
        return self._inner.t_total

    def cases_on(self, day):
        self.case_days_read.add(day)
        return self._inner.cases_on(day)

    def case_window(self, day, d):
        self.case_days_read.update(range(day - d + 1, day + 1))
        return self._inner.case_window(day, d)

    def mobility_on(self, day):
        self.mobility_days_read.add(day)
        return self._inner.mobility_on(day)


def diverge_at(t_bad, message):
    """evaluation.train_model stand-in: diverges for anchor t_bad, trains elsewhere."""
    real = evaluation.train_model

    def train_model(splits, model, config, seed, init_state=None):
        if splits.t == t_bad:
            raise TrainingDivergedError(message)
        return real(splits, model, config, seed, init_state=init_state)

    return train_model


def report_rows(cells):
    """(country, model, t, horizon, region, prediction, actual) per scored
    region of the cells, in rows.csv order."""
    return [(c.country, c.model, c.t, c.horizon, region, p, a) for c in cells
            for region, p, a in zip(c.regions, c.prediction.tolist(), c.actual.tolist())]


def skips(cells):
    """(country, model, t, horizon, reason) per skipped cell, in order."""
    return [(*c.key, c.reason) for c in cells if c.reason is not None]


def scored(cells):
    """The scored cells, in order."""
    return [c for c in cells if c.reason is None]


def abs_errors(cells):
    """The cells' absolute errors, concatenated in order."""
    return np.concatenate([c.abs_error for c in cells]) if cells else np.empty(0)
