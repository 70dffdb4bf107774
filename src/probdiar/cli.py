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

from . import __version__
from .clustering import AhcConfig
from .errors import (CalibrationError, DataError, DecompositionError, DomainError,
                     ScoringError, ShapeError, SizeError, TrainingError)
from .evalkit import aggregate_der, der, read_rttm, report_table, write_rttm
from .extractor import Corpus, SyntheticConfig, estimate_full_plda, generate_corpus
from .io import (MODEL_FORMAT_VERSION, load_corpus, load_model, save_corpus,
                 save_history, save_model)
from .partitions import CrpParams, build_tables, enumerate_rgs
from .pipeline import diarize_corpus, evaluate, reference_timeline, sweep, sweep_table
from .training import (TrainConfig, finite_difference_check, sample_octets,
                       train)

USAGE_ERROR, DATA_ERROR, NUMERIC_ERROR = 1, 2, 3

_MODES = {"baseline": "baseline", "book": "by_the_book"}


def _read_config(path, parser):
    """Flat key=value file; keys must be known option dests."""
    known = {a.dest for a in parser._actions}
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in known:
                raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = val
    return values


_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}
_UNSET = object()


def _explicit_dests(parser, argv):
    """Dests of the options that argv gives, whatever their values."""
    probe = argparse.Namespace(**{a.dest: _UNSET for a in parser._actions})
    parser.parse_args(argv, probe)
    return {a.dest for a in parser._actions if getattr(probe, a.dest) is not _UNSET}


def _config_value(action, val, path):
    """A config-file string converted as its option's flag would convert it."""
    key = action.dest
    if isinstance(action, argparse._StoreTrueAction):
        if val.lower() not in _BOOLEANS:
            raise DataError(f"{path}: {key} expects true/false/yes/no/1/0, got {val!r}")
        return _BOOLEANS[val.lower()]
    try:
        value = (action.type or str)(val)
    except (TypeError, ValueError):
        raise DataError(f"{path}: {key} expects {action.type.__name__}, "
                        f"got {val!r}") from None
    if action.choices is not None and value not in action.choices:
        raise DataError(f"{path}: {key} expects one of "
                        f"{', '.join(map(str, action.choices))}, got {val!r}")
    return value


def _apply_config(args, parser, argv=()):
    """Fill options from the --config file; the flags in `argv` (the
    subcommand's arguments) win over file values, even when they equal the
    option's default.  Every file value is validated, also one a flag
    overrides.  A required option that neither gives is a usage error."""
    if getattr(args, "config", None):
        file_vals = _read_config(args.config, parser)
        explicit = _explicit_dests(parser, argv) if argv else set()
        for key, val in file_vals.items():
            action = next(a for a in parser._actions if a.dest == key)
            value = _config_value(action, val, args.config)
            if key not in explicit:
                setattr(args, key, value)
    missing = [a.option_strings[0] for a in parser._actions
               if a.dest in args.required and getattr(args, a.dest) is None]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    return args


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
    recordings = load_corpus(args.corpus)
    # hold out a fraction of recordings (disjoint speakers: the synthetic
    # generator never shares speakers across recordings)
    n_held = max(1, int(round(0.25 * len(recordings))))
    recordings = [replace(rec, split="heldout" if i < n_held else "train")
                  for i, rec in enumerate(recordings)]
    train_recs = recordings[n_held:]
    if not train_recs:
        raise DataError(f"corpus has {len(recordings)} recording(s), all held out; "
                        f"training needs at least two")

    margin = args.margin if args.margin is not None else \
        (100.0 if args.freeze_net else 10.0)
    cfg = TrainConfig(n=args.n, batch_size=args.batch_size, lr_net=args.lr_net,
                      lr_ratio=args.lr_ratio, epochs=args.epochs, seed=args.seed,
                      train_net=not args.freeze_net, check=args.check,
                      margin=margin)
    result = train(cfg, Corpus(recordings, estimate_full_plda(train_recs)))
    save_model(args.out, result.model, result.plda)
    if args.history:
        save_history(args.history, result.history)
    last = result.history[-1] if result.history else (0, float("nan"), float("nan"))
    print(f"trained {cfg.epochs} epochs; final train CE {last[1]:.4f}, "
          f"held-out CE {last[2]:.4f}; model written to {args.out}")
    return 0


def cmd_diarize(args):
    recordings = load_corpus(args.corpus)
    model, plda = load_model(args.model)
    cfg = AhcConfig(mode=_MODES[args.mode], sigma=args.sigma,
                    likelihood_scale=args.scale)
    hyps = diarize_corpus(recordings, model, plda, cfg)
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
        with open(args.out, "w") as fh:
            fh.write("recording\tmiss\tfalarm\tconfusion\tder\n")
            for rec in sorted(agg.per_recording):
                m, f, c, tot = agg.per_recording[rec]
                fh.write(f"{rec}\t{m / tot:.6f}\t{f / tot:.6f}\t{c / tot:.6f}\t"
                         f"{(m + f + c) / tot:.6f}\n")
            fh.write(f"OVERALL\t{agg.missed / agg.total_ref:.6f}\t"
                     f"{agg.false_alarm / agg.total_ref:.6f}\t"
                     f"{agg.confusion / agg.total_ref:.6f}\t{agg.der:.6f}\n")
    return 0


def cmd_sweep(args):
    dev = load_corpus(args.corpus)
    evl = load_corpus(args.eval_corpus) if args.eval_corpus else []
    model, plda = load_model(args.model)
    base = AhcConfig(mode=_MODES[args.mode], sigma=args.sigma,
                     likelihood_scale=args.scale)
    rows, best = sweep(args.param, args.values, dev, evl, model, plda, base)
    print(sweep_table(args.param, rows))
    print(f"best {args.param} on dev: {best:g}")
    return 0


def _check(ok, what):
    """Fail the self-test as a numeric error (exit 3), also under python -O."""
    if not ok:
        raise TrainingError(f"selftest failed: {what}")


def cmd_selftest(args):
    from .plda import (DiagPlda, EmbeddingBatch, ProbEmbedding, _pooled_loglik,
                       clustering_log_posterior, segment_stats)

    rng = np.random.default_rng(args.seed)
    print("partition counts...", end=" ")
    from .partitions import bell_number
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
        from scipy.special import logsumexp
        direct -= logsumexp(direct)
        _check(np.max(np.abs(post - direct)) < 1e-10, f"posterior of n={n}")
    print("ok")

    print("analytic gradients vs finite differences...", end=" ")
    from .extractor import ExtractorModel, PrecisionNet, SegmentRecord
    from .training import OctetTrial
    from .partitions import canonicalize
    d_dim, r_dim, q_dim, h_dim, n = 4, 4, 2, 6, 4
    net = PrecisionNet(W1=rng.normal(size=(h_dim, q_dim)), b1=rng.normal(size=h_dim),
                       W2=rng.normal(size=(d_dim, h_dim)), b2=rng.normal(size=d_dim))
    model = ExtractorModel(A=rng.normal(size=(d_dim, r_dim)), net=net)
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

    print("training gradient-check gate at initialization...", end=" ")
    corpus = generate_corpus(SyntheticConfig(n_recordings=4, segments_per_recording=12,
                                             seed=args.seed))
    from .extractor import init_extractor
    model_i, plda_i = init_extractor(corpus.full_plda, seed=args.seed, margin=100.0)
    stream = sample_octets(corpus, n, rng)
    batch = [next(stream) for _ in range(3)]
    err = finite_difference_check(batch, model_i, plda_i, tables, scale_floor=True)
    _check(err < 1e-4, f"gradient rel error at init {err:.2e}")
    print(f"ok (max rel error {err:.2e})")
    print("selftest passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="probdiar",
        description="Probabilistic-embedding diarization toolkit")
    parser.add_argument("--version", action="version",
                        version=f"probdiar {__version__} "
                                f"(model format v{MODEL_FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command")

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn, subparser=p)
        p.add_argument("--config", help="flat key=value config file")
        return p

    p = add("simulate", cmd_simulate, help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--rttm", help="also write the reference RTTM here")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--recordings", type=int, default=40)
    p.add_argument("--segments", type=int, default=24)
    p.add_argument("--min-speakers", type=int, default=2)
    p.add_argument("--max-speakers", type=int, default=4)

    p = add("train", cmd_train, help="train extractor and PLDA on a corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--history", help="loss history table output")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--lr-net", type=float, default=10.0)
    p.add_argument("--lr-ratio", type=float, default=1e-4)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--freeze-net", action="store_true",
                   help="train only PLDA and the mean transform")
    p.add_argument("--margin", type=float,
                   help="initial precision saturation margin "
                        "(default 10, or 100 with --freeze-net)")
    p.add_argument("--check", action="store_true",
                   help="run the gradient-check gate before training")

    p = add("diarize", cmd_diarize, help="cluster a corpus into RTTM output")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=sorted(_MODES), default="book")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=1.0)

    p = add("score", cmd_score, help="DER of a hypothesis RTTM vs reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--collar", type=float, default=0.0)
    p.add_argument("--out", help="machine-readable report file")

    p = add("sweep", cmd_sweep, help="grid-search sigma or scale on a dev split")
    p.add_argument("--corpus", required=True, help="dev corpus")
    p.add_argument("--eval-corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--param", choices=("sigma", "scale"), required=True)
    p.add_argument("--values", type=float_list, required=True,
                   help="comma-separated grid")
    p.add_argument("--mode", choices=sorted(_MODES), default="book")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=1.0)

    p = add("selftest", cmd_selftest, help="gradient check and scoring equivalence")
    p.add_argument("--seed", type=int, default=0)
    # required options may come from --config, so _apply_config checks them
    for p in sub.choices.values():
        required = [a for a in p._actions if a.required]
        for a in required:
            a.required = False
        p.set_defaults(required={a.dest for a in required})
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            parser.print_usage(sys.stderr)
            return USAGE_ERROR
        args = _apply_config(args, args.subparser,
                             argv[argv.index(args.command) + 1:])
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0) and USAGE_ERROR
    except (DataError, FileNotFoundError) as exc:
        print(f"probdiar: error: [data] {exc}", file=sys.stderr)
        return DATA_ERROR
    except (TrainingError, DecompositionError, CalibrationError, ScoringError,
            DomainError, ShapeError, SizeError) as exc:
        print(f"probdiar: error: [numeric] {exc}", file=sys.stderr)
        return NUMERIC_ERROR


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
