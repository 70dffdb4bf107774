"""Tuning sweeps: every row equals a fresh `evaluate` at that value, although
the sweep clusters each recording once per likelihood scale and scores each
distinct labelling once."""

from dataclasses import replace

import numpy as np
import pytest

from probdiar.clustering import AhcConfig, cut, merge_trace
from probdiar.extractor import extract_batch, init_extractor
from probdiar.pipeline import evaluate, sweep

SIGMA_GRID = [-20, -5, -1, 0, 1, 5, 20]
SCALE_GRID = [0.1, 0.5, 1.0, 2.0]


@pytest.fixture(scope="module")
def split(small_corpus):
    recs = small_corpus.recordings
    model, plda = init_extractor(small_corpus.full_plda, seed=0, margin=100.0)
    return recs[:3], recs[3:], model, plda


def recorded_gain(rec, model, plda):
    """A merge gain that the by-the-book engine records for this recording."""
    trace = merge_trace(extract_batch(rec.records, model), plda, AhcConfig())
    cut(trace, -np.inf)
    return trace.records[len(trace.records) // 2][2]


@pytest.mark.parametrize("mode", ["by_the_book", "baseline"])
@pytest.mark.parametrize("param", ["sigma", "scale"])
def test_rows_equal_per_value_evaluate(split, mode, param):
    dev, evl, model, plda = split
    base = AhcConfig(mode=mode)
    if param == "sigma":
        field, grid = "sigma", list(SIGMA_GRID)
        if mode == "by_the_book":
            # a sigma equal to a recorded gain must stop before that merge
            grid.append(recorded_gain(dev[0], model, plda))
    else:
        field, grid = "likelihood_scale", SCALE_GRID
    rows, best = sweep(param, grid, dev, evl, model, plda, base)
    assert [r[0] for r in rows] == [float(v) for v in grid]
    for v, dev_der, eval_der in rows:
        cfg = replace(base, **{field: v})
        assert dev_der == pytest.approx(evaluate(dev, model, plda, cfg).der, abs=1e-12)
        assert eval_der == pytest.approx(evaluate(evl, model, plda, cfg).der, abs=1e-12)
    assert best == min(rows, key=lambda r: r[1])[0]


def test_empty_eval_list_gives_nan(split):
    dev, _, model, plda = split
    rows, _ = sweep("sigma", [-1, 1], dev, [], model, plda, AhcConfig())
    assert all(np.isnan(r[2]) for r in rows)
    assert rows[0][1] == pytest.approx(
        evaluate(dev, model, plda, AhcConfig(sigma=-1.0)).der, abs=1e-12)


def test_unknown_parameter_rejected(split):
    dev, evl, model, plda = split
    with pytest.raises(ValueError):
        sweep("collar", [0.0], dev, evl, model, plda, AhcConfig())
