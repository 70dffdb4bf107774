"""Recording-level pipeline glue: extract embeddings, cluster, build
timelines, score DER, and run tuning sweeps over the stopping threshold or
the likelihood scale."""

from __future__ import annotations

from dataclasses import replace

from .clustering import AhcConfig, ahc, cuts, merge_trace
from .evalkit import DerReport, Timeline, Turn, aggregate_der, der, relabel_scorer
from .extractor import ExtractorModel, extract_batch
from .plda import DiagPlda


def _speakers(labels) -> list[str]:
    return [f"spk{lab}" for lab in labels]


def _timeline(rec, labels) -> Timeline:
    turns = [Turn(start, sr.duration, spk)
             for start, sr, spk in zip(rec.starts, rec.records, _speakers(labels))]
    return Timeline(rec.rec_id, tuple(turns))


def reference_timeline(rec) -> Timeline:
    return _timeline(rec, rec.labels)


def diarize_recording(rec, model: ExtractorModel, plda: DiagPlda,
                      cfg: AhcConfig) -> Timeline:
    return _timeline(rec, ahc(extract_batch(rec.records, model), plda, cfg))


def diarize_corpus(recordings, model: ExtractorModel, plda: DiagPlda,
                   cfg: AhcConfig) -> dict[str, Timeline]:
    """Diarize every recording; output is keyed and ordered by recording id."""
    results = [diarize_recording(r, model, plda, cfg) for r in recordings]
    return {tl.rec_id: tl for tl in sorted(results, key=lambda t: t.rec_id)}


def evaluate(recordings, model: ExtractorModel, plda: DiagPlda,
             cfg: AhcConfig) -> DerReport:
    """Diarize and score a set of recordings; returns the aggregate report."""
    hyps = diarize_corpus(recordings, model, plda, cfg)
    reports = [der(reference_timeline(rec), hyps[rec.rec_id]) for rec in recordings]
    return aggregate_der(reports)


def _sweep_ders(recordings, cfgs, model: ExtractorModel, plda: DiagPlda):
    """Aggregate DER of the recordings under each config.  The configs of
    one likelihood scale are cut from one replay of one merge trace; equal
    labels share one report, all labellings of a recording share its
    atoms and reference terms, and configs with the same reports share one
    aggregate."""
    by_scale = {}
    for k, cfg in enumerate(cfgs):
        by_scale.setdefault(cfg.likelihood_scale, []).append(k)
    reports = [[] for _ in cfgs]
    for rec in recordings:
        emb = extract_batch(rec.records, model)
        score = relabel_scorer(reference_timeline(rec))
        scored = {}
        for ks in by_scale.values():
            trace = merge_trace(emb, plda, cfgs[ks[0]])
            for k, labels in zip(ks, cuts(trace, [cfgs[k].sigma for k in ks])):
                if labels not in scored:
                    scored[labels] = score(_speakers(labels))
                reports[k].append(scored[labels])
    keys = [tuple(map(id, reps)) for reps in reports]
    ders = {key: aggregate_der(reps).der for key, reps in dict(zip(keys, reports)).items()}
    return [ders[key] for key in keys]


def sweep(param: str, values, dev_recordings, eval_recordings,
          model: ExtractorModel, plda: DiagPlda, base_cfg: AhcConfig):
    """Grid search one AHC hyperparameter on the dev split; report dev/eval
    DER pairs per value.  Returns (rows, best_value) where rows are
    (value, dev_der, eval_der) and best_value minimizes dev DER.  Rows equal
    `evaluate` per value, but each recording is extracted once, clustered
    once per likelihood scale and scored once per distinct labelling."""
    if param not in ("sigma", "scale"):
        raise ValueError(f"sweep parameter must be 'sigma' or 'scale', got {param!r}")
    values = [float(v) for v in values]
    field = "sigma" if param == "sigma" else "likelihood_scale"
    cfgs = [replace(base_cfg, **{field: v}) for v in values]
    dev = _sweep_ders(dev_recordings, cfgs, model, plda)
    evl = _sweep_ders(eval_recordings, cfgs, model, plda) if eval_recordings \
        else [float("nan")] * len(cfgs)
    rows = list(zip(values, dev, evl))
    best = min(rows, key=lambda r: r[1])[0]
    return rows, best


def sweep_table(param: str, rows) -> str:
    lines = [f"{param:>10} {'dev':>10} {'eval':>10}"]
    for v, dev, evl in rows:
        lines.append(f"{v:>10.4g} {dev:>10.4f} {evl:>10.4f}")
    return "\n".join(lines)
