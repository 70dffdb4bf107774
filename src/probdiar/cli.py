"""Command-line entry point: simulate -> train -> diarize -> score, plus
hyperparameter sweeps and a numerical self-test.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Options may come from a flat key=value config file (--config); command-line
flags override file values.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np
from scipy.special import logsumexp

from . import __version__
from .clustering import AhcConfig
from .errors import DataError, ProbdiarError, TrainingError
from .evalkit import aggregate_der, der, read_rttm, report_rows, report_table, write_rttm
from .extractor import (Corpus, ExtractorModel, SegmentRecord, SyntheticConfig,
                        estimate_full_plda, generate_corpus, init_extractor,
                        split_names)
from .io import (MODEL_FORMAT_VERSION, load_corpus, load_model, save_corpus,
                 save_history, save_model, text_lines)
from .partitions import (CrpParams, bell_number, build_tables, canonicalize,
                         enumerate_rgs)
from .pipeline import (SWEEP_PARAMS, diarize_corpus, reference_timeline, sweep,
                       sweep_table)
from .plda import (DiagPlda, EmbeddingBatch, ProbEmbedding, _pooled_loglik,
                   clustering_log_posterior, segment_stats)
from .training import (OctetTrial, TrainConfig, finite_difference_check,
                       sample_octets, train)

USAGE_ERROR, DATA_ERROR, NUMERIC_ERROR = 1, 2, 3

_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


def _config_flags(path, parser):
    """The flags that a flat key=value config file stands for: `--key=value`,
    the bare flag for a true boolean and nothing for a false one, the last
    line of a key winning.  Keys must be options of `parser` other than
    help and config, and every value must convert as its flag converts it."""
    actions = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    flags = {}
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        action = actions.get(key)
        if action is None:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        flag = action.option_strings[0]
        if isinstance(action, argparse._StoreTrueAction):
            if val.lower() not in _BOOLEANS:
                raise DataError(f"{path}: {key} expects true/false/yes/no/1/0, "
                                f"got {val!r}")
            flags[key] = flag if _BOOLEANS[val.lower()] else None
            continue
        try:
            value = (action.type or str)(val)
        except (TypeError, ValueError):
            raise DataError(f"{path}: {key} expects {action.type.__name__}, "
                            f"got {val!r}") from None
        if action.choices is not None and value not in action.choices:
            raise DataError(f"{path}: {key} expects one of "
                            f"{', '.join(map(str, action.choices))}, got {val!r}")
        flags[key] = f"{flag}={val}"
    return [flag for flag in flags.values() if flag]


def float_list(text):
    """A comma-separated list of floats, as `--values` takes it."""
    return [float(v) for v in text.split(",")]


def cmd_simulate(args):
    cfg = SyntheticConfig(
        dim=args.dim, n_recordings=args.recordings,
        segments_per_recording=args.segments,
        min_speakers=args.min_speakers, max_speakers=args.max_speakers,
        seed=args.seed)
    corpus = generate_corpus(cfg)
    save_corpus(args.out, corpus)
    if args.rttm:
        write_rttm(args.rttm, [reference_timeline(r) for r in corpus.recordings])
    print(f"wrote {len(corpus.recordings)} recordings to {args.out}")
    return 0


def cmd_train(args):
    """Train on the corpus file split by `split_names` as `generate_corpus`
    splits it, the two-covariance model estimated from its training split."""
    recordings = load_corpus(args.corpus)
    splits = split_names(len(recordings), SyntheticConfig.holdout_fraction)
    recordings = [replace(rec, split=split) for rec, split in zip(recordings, splits)]
    train_recs = [rec for rec in recordings if rec.split == "train"]
    cfg = TrainConfig(n=args.n, batch_size=args.batch_size, lr_net=args.lr_net,
                      lr_ratio=args.lr_ratio, epochs=args.epochs, seed=args.seed,
                      train_net=not args.freeze_net)
    result = train(cfg, Corpus(recordings, estimate_full_plda(train_recs)))
    save_model(args.out, result.model, result.plda)
    if args.history:
        save_history(args.history, result.history)
    last = result.history[-1] if result.history else (0, float("nan"), float("nan"))
    print(f"trained {cfg.epochs} epochs; final train CE {last[1]:.4f}, "
          f"held-out CE {last[2]:.4f}; model written to {args.out}")
    return 0


def _load_inputs(model_path, *corpus_paths):
    """The recordings of each corpus file (none for a path of None), then the
    model and PLDA of `model_path`; a corpus whose raw or quality dim is not
    the model's input dim is a DataError."""
    corpora = [load_corpus(path) if path else [] for path in corpus_paths]
    model, plda = load_model(model_path)
    want = (model.raw_dim, model.W1.shape[1])
    for path, recordings in zip(corpus_paths, corpora):
        dims = {(sr.raw.size, sr.quality.size) for rec in recordings for sr in rec.records}
        if dims - {want}:   # one pair per file, as `load_corpus` checks
            raise DataError(f"corpus {path} has (raw, quality) dims {dims.pop()}, but "
                            f"model {model_path} takes {want}")
    return corpora, model, plda


def cmd_diarize(args):
    (recordings,), model, plda = _load_inputs(args.model, args.corpus)
    hyps = diarize_corpus(recordings, model, plda, _ahc_config(args))
    write_rttm(args.out, hyps.values())
    print(f"wrote {len(hyps)} recordings to {args.out}")
    return 0


def cmd_score(args):
    refs = read_rttm(args.ref)
    hyps = read_rttm(args.hyp)
    if not refs:
        raise DataError(f"reference {args.ref} has no SPEAKER turns")
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise DataError(f"hypothesis missing recordings: {', '.join(missing)}")
    reports = [der(refs[r], hyps[r], collar=args.collar) for r in sorted(refs)]
    agg = aggregate_der(reports)
    print(report_table(agg))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("recording\tmiss\tfalarm\tconfusion\tder\n")
            fh.writelines(f"{rec}\t{m:.6f}\t{f:.6f}\t{c:.6f}\t{d:.6f}\n"
                          for rec, m, f, c, d in report_rows(agg))
    return 0


def cmd_sweep(args):
    (dev, evl), model, plda = _load_inputs(args.model, args.corpus, args.eval_corpus)
    rows, best = sweep(args.param, args.values, dev, evl, model, plda, _ahc_config(args))
    print(sweep_table(args.param, rows))
    print(f"best {args.param} on dev: {best:g}")
    return 0


def _check(ok, what):
    """Fail the self-test as a numeric error (exit 3), also under python -O."""
    if not ok:
        raise TrainingError(f"selftest failed: {what}")


def cmd_selftest(args):
    synth = SyntheticConfig(n_recordings=4, segments_per_recording=12, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    print("partition counts...", end=" ")
    for n in range(1, 9):
        _check(len(enumerate_rgs(n)) == bell_number(n), f"partition count of n={n}")
    print("ok")

    print("pooled posterior vs exhaustive per-partition scoring...", end=" ")
    for n in range(2, 6):
        tables = build_tables(n, CrpParams(1.0, 0.1))
        d = 5
        plda = DiagPlda(rng.uniform(0.5, 2.0, d))
        embs = [ProbEmbedding(rng.normal(size=d), rng.uniform(0, 3, d))
                for _ in range(n)]
        post = clustering_log_posterior(embs, plda, tables)
        # each cluster scored on its own from its members' summed rows
        a_bar, b_bar, _ = segment_stats(EmbeddingBatch.stack(embs), plda, 1.0)
        direct = []
        for labels in tables.rgs:
            total = 0.0
            for k in set(labels):
                members = [t for t in range(n) if labels[t] == k]
                total += float(_pooled_loglik(a_bar[members].sum(axis=0),
                                              b_bar[members].sum(axis=0)))
            direct.append(total)
        direct = np.array(direct) + tables.log_prior
        direct -= logsumexp(direct)
        _check(np.max(np.abs(post - direct)) < 1e-10, f"posterior of n={n}")
    print("ok")

    print("analytic gradients vs finite differences...", end=" ")
    d_dim, r_dim, q_dim, h_dim, n = 4, 4, 2, 6, 4
    shapes = {"W1": (h_dim, q_dim), "b1": h_dim, "W2": (d_dim, h_dim), "b2": d_dim,
              "A": (d_dim, r_dim)}   # in the order of their draws
    model = ExtractorModel(**{k: rng.normal(size=size) for k, size in shapes.items()})
    plda = DiagPlda(rng.uniform(0.5, 2.0, d_dim))
    tables = build_tables(n, CrpParams(1.0, 0.1))
    batch = [OctetTrial(
        records=tuple(SegmentRecord(raw=rng.normal(size=r_dim),
                                    quality=rng.normal(size=q_dim), duration=1.0)
                      for _ in range(n)),
        truth=canonicalize(rng.integers(1, n + 1, n)))
        for _ in range(3)]
    err = finite_difference_check(batch, model, plda, tables)
    _check(err < 1e-5, f"gradient rel error {err:.2e}")
    print(f"ok (max rel error {err:.2e})")

    print("gradient-check gate at a saturated initialization...", end=" ")
    corpus = generate_corpus(synth)
    model_i, plda_i = init_extractor(corpus.full_plda, seed=args.seed,
                                     margin=TrainConfig(train_net=False).margin)
    stream = sample_octets(corpus, n, rng)
    batch = [next(stream) for _ in range(3)]
    err = finite_difference_check(batch, model_i, plda_i, tables, gate=True)
    print(f"ok (max rel error {err:.2e})")
    print("selftest passed")
    return 0


def _add_ahc_flags(p):
    """The AHC flags of diarize and sweep, which `_ahc_config` reads."""
    p.add_argument("--mode", choices=sorted(AhcConfig.MODES),
                   default=next(k for k, v in AhcConfig.MODES.items() if v == AhcConfig.mode))
    helps = {"scale": "likelihood scale, book mode only (the baseline takes 1)"}
    for name, field in SWEEP_PARAMS.items():
        p.add_argument(f"--{name}", type=float, default=getattr(AhcConfig, field),
                       help=helps.get(name))


def _ahc_config(args):
    return AhcConfig(mode=AhcConfig.MODES[args.mode],
                     **{field: getattr(args, name) for name, field in SWEEP_PARAMS.items()})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="probdiar",
        description="Probabilistic-embedding diarization toolkit")
    parser.add_argument("--version", action="version",
                        version=f"probdiar {__version__} "
                                f"(model format v{MODEL_FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn, subparser=p)
        p.add_argument("--config", help="flat key=value config file")
        return p

    p = add("simulate", cmd_simulate, help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, default=SyntheticConfig.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--rttm", help="also write the reference RTTM here")
    p.add_argument("--dim", type=int, default=SyntheticConfig.dim)
    p.add_argument("--recordings", type=int, default=SyntheticConfig.n_recordings)
    p.add_argument("--segments", type=int, default=SyntheticConfig.segments_per_recording)
    p.add_argument("--min-speakers", type=int, default=SyntheticConfig.min_speakers)
    p.add_argument("--max-speakers", type=int, default=SyntheticConfig.max_speakers)

    p = add("train", cmd_train, help="train extractor and PLDA on a corpus")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--history", help="loss history table output")
    p.add_argument("--n", type=int, default=TrainConfig.n)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr-net", type=float, default=TrainConfig.lr_net)
    p.add_argument("--lr-ratio", type=float, default=TrainConfig.lr_ratio)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--freeze-net", action="store_true",
                   help="train only PLDA and the mean transform (PLDA-only "
                        "system, from saturated initial precisions)")

    p = add("diarize", cmd_diarize, help="cluster a corpus into RTTM output")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_ahc_flags(p)

    p = add("score", cmd_score, help="DER of a hypothesis RTTM vs reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--collar", type=float, default=0.0)
    p.add_argument("--out", help="machine-readable report file")

    p = add("sweep", cmd_sweep, help="grid-search sigma or scale on a dev split")
    p.add_argument("--corpus", required=True, help="dev corpus")
    p.add_argument("--eval-corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    p.add_argument("--values", type=float_list, required=True,
                   help="comma-separated grid")
    _add_ahc_flags(p)

    p = add("selftest", cmd_selftest, help="gradient check and scoring equivalence")
    p.add_argument("--seed", type=int, default=SyntheticConfig.seed)
    # required options may come from --config, so run checks them once the
    # file is read; the usage is frozen first, so that it still shows them
    # as required
    for p in sub.choices.values():
        p.usage = p.format_usage().removeprefix("usage: ").rstrip().replace("%", "%%")
        required = [a for a in p._actions if a.required]
        for a in required:
            a.required = False
        p.set_defaults(required=required)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go right after the subcommand: argparse keeps
            # the last value it reads, so the command line's own flags win
            at = argv.index(args.command) + 1
            file_flags = _config_flags(args.config, args.subparser)
            args = parser.parse_args(argv[:at] + file_flags + argv[at:])
        missing = [a.option_strings[0] for a in args.required
                   if getattr(args, a.dest) is None]
        if missing:
            args.subparser.error(f"the following arguments are required: "
                                 f"{', '.join(missing)}")
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0) and USAGE_ERROR
    except (DataError, OSError) as exc:
        print(f"probdiar: error: [data] {exc}", file=sys.stderr)
        return DATA_ERROR
    except ProbdiarError as exc:
        print(f"probdiar: error: [numeric] {exc}", file=sys.stderr)
        return NUMERIC_ERROR


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
