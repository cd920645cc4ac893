import pathlib

import numpy as np
import pytest

from transbound import hypergeom, validation
from transbound.transduce import Dataset, LabeledSubset

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def two_blob():
    """The committed 100-point two-blob fixture: (dataset, labeled, true labels)."""
    pts = np.loadtxt(DATA_DIR / "two_blob_features.csv", delimiter=",")
    data = Dataset(points=pts, ids=np.arange(len(pts)))
    rows = np.loadtxt(DATA_DIR / "two_blob_labels.csv", delimiter=",", dtype=np.int64)
    labeled = LabeledSubset(indices=rows[:, 0], labels=rows[:, 1])
    truth = np.where(np.arange(len(pts)) % 2 == 0, 1, -1)
    return data, labeled, truth


@pytest.fixture
def envelope_work(monkeypatch):
    """Calls of ``hypergeom``'s pair kernel and per-variant merge, from a cold envelope cache."""
    calls = {"_pairs": 0, "_merge": 0}
    for name in calls:
        def counted(*args, kernel=getattr(hypergeom, name), name=name):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(hypergeom, name, counted)
    hypergeom._envelopes.cache_clear()
    yield calls
    hypergeom._envelopes.cache_clear()


@pytest.fixture(autouse=True)
def fresh_split_masks():
    """Every test draws its own splits: no batch held by ``_split_masks``, nor anything
    derived from one, carries over."""
    validation._held = validation._derived = None
    yield
    validation._held = validation._derived = None
