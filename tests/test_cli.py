"""Command-line interface: subcommands, config files, exit codes."""

from dataclasses import replace

import numpy as np
import pytest

from probdiar.cli import _config_flags, build_parser, run
from probdiar.clustering import AhcConfig
from probdiar.errors import DataError, ProbdiarError
from probdiar.evalkit import write_rttm
from probdiar.extractor import (Corpus, SyntheticConfig, estimate_full_plda,
                                generate_corpus)
from probdiar.io import load_corpus, load_model, save_corpus, save_model
from probdiar.pipeline import SWEEP_PARAMS, diarize_corpus
from probdiar.plda import DiagPlda
from probdiar.training import TrainConfig, train

from . import corpus_loop


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny simulated corpus plus a trained model, shared by CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    corpus = d / "corpus.tsv"
    rttm = d / "ref.rttm"
    model = d / "model.txt"
    assert run(["simulate", "--out", str(corpus), "--rttm", str(rttm),
                "--recordings", "6", "--segments", "10", "--dim", "4",
                "--seed", "1"]) == 0
    assert run(["train", "--corpus", str(corpus), "--out", str(model),
                "--n", "4", "--epochs", "2", "--history",
                str(d / "history.tsv")]) == 0
    return d


class TestSimulate:
    def test_outputs(self, workdir):
        recs = load_corpus(workdir / "corpus.tsv")
        assert len(recs) == 6
        assert all(len(r.records) == 10 for r in recs)
        assert (workdir / "ref.rttm").read_text().startswith("SPEAKER")

    @pytest.mark.parametrize("seed", range(4))
    def test_file_equals_segment_loop_corpus(self, tmp_path, seed):
        assert run(["simulate", "--out", str(tmp_path / "c.tsv"),
                    "--seed", str(seed)]) == 0
        save_corpus(tmp_path / "loop.tsv", corpus_loop.generate_corpus(SyntheticConfig(seed=seed)))
        assert (tmp_path / "c.tsv").read_bytes() == (tmp_path / "loop.tsv").read_bytes()


class TestTrain:
    def test_model_loads(self, workdir):
        model, plda = load_model(workdir / "model.txt")
        assert model.raw_dim == 4
        assert plda.dim == 4

    def test_history_written(self, workdir):
        lines = (workdir / "history.tsv").read_text().splitlines()
        assert lines[0] == "epoch\ttrain_ce\theldout_ce"
        assert len(lines) == 3

    @pytest.mark.parametrize("freeze", [False, True], ids=["joint", "plda_only"])
    def test_model_file_equals_library_train(self, workdir, tmp_path, freeze):
        """The command trains `train` on a Corpus whose first quarter of
        recordings is held out, with the model estimated from the rest;
        `--freeze-net` is `train_net=False`, saturated start included."""
        assert run(["train", "--corpus", str(workdir / "corpus.tsv"),
                    "--out", str(tmp_path / "cli.txt"), "--n", "4", "--epochs", "2",
                    *(["--freeze-net"] if freeze else [])]) == 0
        recs = load_corpus(workdir / "corpus.tsv")
        recs = [replace(r, split="heldout" if i < 2 else "train")
                for i, r in enumerate(recs)]
        result = train(TrainConfig(n=4, epochs=2, train_net=not freeze),
                       Corpus(recs, estimate_full_plda(recs[2:])))
        save_model(tmp_path / "lib.txt", result.model, result.plda)
        assert (tmp_path / "lib.txt").read_bytes() == \
            (tmp_path / "cli.txt").read_bytes()

    @pytest.mark.parametrize("n_recordings", [1, 2, 3, 6])
    def test_split_equals_generated_corpus(self, tmp_path, n_recordings):
        """The command splits a corpus file as `generate_corpus` split the
        corpus written to it: round(0.25 n) recordings held out, so none of
        one or two."""
        cfg = SyntheticConfig(dim=4, n_recordings=n_recordings,
                              segments_per_recording=10, seed=1)
        generated = generate_corpus(cfg)
        save_corpus(tmp_path / "c.tsv", generated)
        assert run(["train", "--corpus", str(tmp_path / "c.tsv"),
                    "--out", str(tmp_path / "cli.txt"), "--n", "4", "--epochs", "2"]) == 0
        recs = [replace(r, split=g.split)
                for r, g in zip(load_corpus(tmp_path / "c.tsv"), generated, strict=True)]
        result = train(TrainConfig(n=4, epochs=2),
                       Corpus(recs, estimate_full_plda(r for r in recs
                                                       if r.split == "train")))
        save_model(tmp_path / "lib.txt", result.model, result.plda)
        assert (tmp_path / "lib.txt").read_bytes() == \
            (tmp_path / "cli.txt").read_bytes()

    def test_one_recording_corpus_trains(self, workdir, tmp_path, capsys):
        """The only recording is trained on, and with none held out the
        held-out cross-entropy is NaN."""
        one = tmp_path / "one.tsv"
        lines = (workdir / "corpus.tsv").read_text().splitlines()
        one.write_text("\n".join(ln for ln in lines
                                 if ln.split("\t")[0] == "rec0000") + "\n")
        assert run(["train", "--corpus", str(one), "--out", str(tmp_path / "m.txt"),
                    "--history", str(tmp_path / "h.tsv"), "--n", "4",
                    "--epochs", "1"]) == 0
        assert (tmp_path / "h.tsv").read_text().splitlines()[1].split("\t")[2] == "nan"
        assert "held-out CE nan" in capsys.readouterr().out

    def test_no_recording_of_n_segments_is_data_error(self, workdir, tmp_path, capsys):
        """Recordings shorter than n are skipped with a warning; with none
        left there is no tuple to train on."""
        short = tmp_path / "short.tsv"
        lines = (workdir / "corpus.tsv").read_text().splitlines()
        short.write_text("\n".join(ln for ln in lines
                                   if int(ln.split("\t")[1][-4:]) < 3) + "\n")
        with pytest.warns(UserWarning, match="fewer than 4 segments"):
            assert run(["train", "--corpus", str(short), "--out", str(tmp_path / "m.txt"),
                        "--n", "4", "--epochs", "1"]) == 2
        assert "[data] no recording has at least 4 segments" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("rec, stage", [("rec0000", "held-out cross-entropy"),
                                            ("rec0005", "PLDA estimate")])
    def test_overflowing_feature_is_numeric_error(self, workdir, tmp_path, capsys,
                                                  rec, stage):
        """A raw value of 1e308 overflows the held-out cross-entropy (rec0000
        is held out) or the PLDA estimate (rec0005 is trained on); either
        names its stage, and a RuntimeWarning on the way fails the test."""
        lines = (workdir / "corpus.tsv").read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(rec + "\t"))
        parts = lines[at].split("\t")
        parts[4] = ",".join(["1e308"] + parts[4].split(",")[1:])
        lines[at] = "\t".join(parts)
        (tmp_path / "c.tsv").write_text("\n".join(lines) + "\n")
        assert run(["train", "--corpus", str(tmp_path / "c.tsv"),
                    "--out", str(tmp_path / "m.txt"), "--n", "4", "--epochs", "2"]) == 3
        captured = capsys.readouterr()
        assert f"[numeric] the {stage} overflows" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "m.txt").exists()


class TestDiarize:
    def test_writes_rttm(self, workdir, capsys):
        out = workdir / "hyp.rttm"
        assert run(["diarize", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"), "--out", str(out),
                    "--mode", "book", "--sigma", "0"]) == 0
        assert out.read_text().startswith("SPEAKER")

    def test_single_segment_recording(self, tmp_path, workdir):
        corpus = tmp_path / "one.tsv"
        corpus.write_text("solo\ts0\t0.0\t1.5\t0.1,0.2,0.3,0.4\t0.5,1.5\t1\n")
        out = tmp_path / "hyp.rttm"
        assert run(["diarize", "--corpus", str(corpus),
                    "--model", str(workdir / "model.txt"), "--out", str(out),
                    "--mode", "book", "--sigma", "0"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 and lines[0].split()[1] == "solo"
        # the baseline too: one segment is one cluster in either mode
        assert run(["diarize", "--corpus", str(corpus),
                    "--model", str(workdir / "model.txt"), "--out", str(out),
                    "--mode", "baseline"]) == 0
        assert out.read_text().splitlines() == lines

    def test_tiny_segment_scores(self, workdir, tmp_path, capsys):
        """A 0.4-ms segment keeps a positive duration in the hypothesis RTTM,
        so `score` reads it back."""
        lines = (workdir / "corpus.tsv").read_text().splitlines()
        parts = lines[0].split("\t")
        parts[3] = "0.0004"
        lines[0] = "\t".join(parts)
        (tmp_path / "c.tsv").write_text("\n".join(lines) + "\n")
        hyp = tmp_path / "hyp.rttm"
        assert run(["diarize", "--corpus", str(tmp_path / "c.tsv"),
                    "--model", str(workdir / "model.txt"), "--out", str(hyp)]) == 0
        assert run(["score", "--ref", str(workdir / "ref.rttm"), "--hyp", str(hyp)]) == 0
        assert "OVERALL" in capsys.readouterr().out
        assert " 0.0004 " in hyp.read_text()

    def test_baseline_mode(self, workdir, tmp_path):
        out = tmp_path / "hyp.rttm"
        assert run(["diarize", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"), "--out", str(out),
                    "--mode", "baseline"]) == 0
        assert out.exists()


    def test_nan_sigma_is_numeric_error(self, workdir, tmp_path, capsys):
        assert run(["diarize", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--out", str(tmp_path / "h.rttm"), "--sigma", "nan"]) == 3
        assert "[numeric] sigma must not be NaN" in capsys.readouterr().err
        assert not (tmp_path / "h.rttm").exists()

    def test_infinite_scale_is_numeric_error(self, workdir, tmp_path, capsys):
        assert run(["diarize", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--out", str(tmp_path / "h.rttm"), "--scale", "inf"]) == 3
        assert "[numeric] likelihood_scale" in capsys.readouterr().err
        assert not (tmp_path / "h.rttm").exists()

    def test_overflowing_scale_is_numeric_error(self, workdir, tmp_path, capsys):
        assert run(["diarize", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--out", str(tmp_path / "h.rttm"), "--scale", "1e300"]) == 3
        captured = capsys.readouterr()
        assert "[numeric] likelihood_scale 1e+300 overflows" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "h.rttm").exists()

    def test_scale_in_baseline_mode_is_numeric_error(self, workdir, tmp_path, capsys):
        """The baseline scores plug-in embeddings, which no scale changes."""
        assert run(["diarize", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"), "--out", str(tmp_path / "h.rttm"),
                    "--mode", "baseline", "--scale", "7"]) == 3
        captured = capsys.readouterr()
        assert "[numeric] likelihood_scale is for by_the_book mode only" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "h.rttm").exists()


    @pytest.mark.parametrize("matrix, stage", [("A", "mean transform"),
                                               ("W1", "precision net")])
    def test_overflowing_extraction_is_numeric_error(self, workdir, tmp_path, capsys,
                                                     matrix, stage):
        """-1e308 in A, or in W1's duration column, overflows the product (in
        W1, softplus would turn the -inf into a silent zero)."""
        model, plda = load_model(workdir / "model.txt")
        a, w1 = model.A.copy(), model.W1.copy()
        if matrix == "A":
            a[0, 0] = -1e308
        else:
            w1[0, 1] = -1e308   # the duration column
        save_model(tmp_path / "bad.txt", replace(model, A=a, W1=w1), plda)
        assert run(["diarize", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(tmp_path / "bad.txt"),
                    "--out", str(tmp_path / "h.rttm")]) == 3
        captured = capsys.readouterr()
        assert f"[numeric] extraction overflows in the {stage}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "h.rttm").exists()

    @pytest.mark.parametrize("mode", ["book", "baseline"])
    def test_overflowing_model_precision_is_numeric_error(self, workdir, tmp_path,
                                                          capsys, mode):
        """A within-speaker precision of 1e308 overflows the cluster
        statistics (in the baseline, already its plug-in precision): diarize
        and sweep name the overflow, not the scale, and warn nothing."""
        model, plda = load_model(workdir / "model.txt")
        save_model(tmp_path / "bad.txt", model, DiagPlda(np.r_[1e308, plda.w[1:]]))
        common = ["--corpus", str(workdir / "corpus.tsv"),
                  "--model", str(tmp_path / "bad.txt"), "--mode", mode]
        for argv in (["diarize", "--out", str(tmp_path / "h.rttm")],
                     ["sweep", "--param", "sigma", "--values=0,1"]):
            assert run(argv + common) == 3
            captured = capsys.readouterr()
            assert "[numeric] the cluster statistics overflow" in captured.err
            assert "likelihood_scale" not in captured.err
            assert captured.out == ""
        assert not (tmp_path / "h.rttm").exists()

    @pytest.mark.parametrize("scale", ["2", "0.5"])
    def test_model_overflow_is_not_blamed_on_the_scale(self, workdir, tmp_path, capsys,
                                                       scale):
        """A within-speaker precision of 1e308 overflows the unscaled
        statistics too, so a scale other than 1 is not named as the cause."""
        model, plda = load_model(workdir / "model.txt")
        save_model(tmp_path / "bad.txt", model, DiagPlda(np.r_[1e308, plda.w[1:]]))
        common = ["--corpus", str(workdir / "corpus.tsv"),
                  "--model", str(tmp_path / "bad.txt"), "--scale", scale]
        for argv in (["diarize", "--out", str(tmp_path / "h.rttm")],
                     ["sweep", "--param", "sigma", "--values=0,1"]):
            assert run(argv + common) == 3
            captured = capsys.readouterr()
            assert "[numeric] the cluster statistics overflow" in captured.err
            assert "likelihood_scale" not in captured.err
            assert captured.out == ""


class TestAhcFlags:
    """The AHC flags of `diarize` and `sweep` build the `AhcConfig` that the
    library takes: --mode from `AhcConfig.MODES`, one flag per name of
    `SWEEP_PARAMS`."""

    CASES = {
        "defaults": ([], AhcConfig()),
        "sigma": (["--sigma=-2"], AhcConfig(sigma=-2.0)),
        "scale": (["--scale", "0.5"], AhcConfig(likelihood_scale=0.5)),
        "book": (["--mode", "book", "--scale", "0.5", "--sigma", "-2"],
                 AhcConfig(likelihood_scale=0.5, sigma=-2.0)),
        "baseline": (["--mode", "baseline", "--sigma", "-2"],
                     AhcConfig(mode="baseline", sigma=-2.0)),
    }

    def test_cases_cover_every_flag(self):
        flags = {a.split("=")[0] for argv, _ in self.CASES.values() for a in argv
                 if a.startswith("--")}
        assert flags == {"--mode", *(f"--{name}" for name in SWEEP_PARAMS)}

    @pytest.mark.parametrize("case", CASES)
    def test_rttm_equals_library(self, workdir, tmp_path, case):
        argv, cfg = self.CASES[case]
        assert run(["diarize", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--out", str(tmp_path / "cli.rttm"), *argv]) == 0
        model, plda = load_model(workdir / "model.txt")
        hyps = diarize_corpus(load_corpus(workdir / "corpus.tsv"), model, plda, cfg)
        write_rttm(tmp_path / "lib.rttm", hyps.values())
        assert (tmp_path / "cli.rttm").read_bytes() == (tmp_path / "lib.rttm").read_bytes()

    @pytest.mark.parametrize("command", ["diarize", "sweep"])
    def test_help_shows_modes_and_book_default(self, capsys, command):
        assert run([command, "--help"]) == 0
        assert "--mode {baseline,book}" in capsys.readouterr().out
        assert build_parser().parse_args([command]).mode == "book"


def test_help_shows_required_options_as_required(capsys):
    """`run` checks the required options only once a config file is read, but
    every subcommand's usage still shows them without brackets."""
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    for command in commands:
        required = [a.option_strings[0] for a in parser.parse_args([command]).required]
        assert run([command, "--help"]) == 0
        usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
        for flag in required:
            assert f" {flag} " in usage and f"[{flag} " not in usage, (command, flag)


class TestScore:
    def test_perfect_score(self, workdir, capsys):
        assert run(["score", "--ref", str(workdir / "ref.rttm"),
                    "--hyp", str(workdir / "ref.rttm")]) == 0
        out = capsys.readouterr().out
        assert "OVERALL" in out
        assert "0.0000" in out

    def test_missing_recording_is_data_error(self, workdir, tmp_path, capsys):
        hyp = tmp_path / "partial.rttm"
        lines = (workdir / "ref.rttm").read_text().splitlines()
        hyp.write_text("\n".join(ln for ln in lines
                                 if ln.split()[1] != "rec0000") + "\n")
        assert run(["score", "--ref", str(workdir / "ref.rttm"),
                    "--hyp", str(hyp)]) == 2
        assert "[data]" in capsys.readouterr().err

    def test_report_file(self, workdir, tmp_path):
        out = tmp_path / "report.tsv"
        assert run(["score", "--ref", str(workdir / "ref.rttm"),
                    "--hyp", str(workdir / "ref.rttm"), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1].startswith("OVERALL")


    @pytest.mark.parametrize("collar", ["-1", "nan", "inf"])
    def test_bad_collar_is_numeric_error(self, workdir, capsys, collar):
        assert run(["score", "--ref", str(workdir / "ref.rttm"),
                    "--hyp", str(workdir / "ref.rttm"), f"--collar={collar}"]) == 3
        assert "[numeric] collar" in capsys.readouterr().err

    def test_empty_reference_is_data_error(self, workdir, tmp_path, capsys):
        ref = tmp_path / "empty.rttm"
        ref.write_text("")
        assert run(["score", "--ref", str(ref), "--hyp", str(workdir / "ref.rttm")]) == 2
        err = capsys.readouterr().err
        assert "[data]" in err and "empty.rttm" in err

    def test_zero_duration_turn_is_parse_error(self, workdir, tmp_path, capsys):
        lines = (workdir / "ref.rttm").read_text().splitlines()
        parts = lines[1].split()
        parts[4] = "0.000"
        lines[1] = " ".join(parts)
        hyp = tmp_path / "hyp.rttm"
        hyp.write_text("\n".join(lines) + "\n")
        assert run(["score", "--ref", str(workdir / "ref.rttm"),
                    "--hyp", str(hyp)]) == 2
        assert "line 2: " in capsys.readouterr().err

    @pytest.mark.parametrize("start, duration, code, message", [
        ("0", "1e308", 3, "[numeric] cannot build the 0.01-s frame grid over 0.0..1e+308"),
        ("1e308", "1e308", 2, "[data] line 2: malformed numeric field: turn start")])
    def test_huge_turn_fails_with_its_code(self, workdir, tmp_path, capsys,
                                           start, duration, code, message):
        """A turn whose frame grid cannot be built is a numeric error; one
        whose end overflows is a parse error."""
        lines = (workdir / "ref.rttm").read_text().splitlines()
        parts = lines[1].split()
        parts[3:5] = start, duration
        lines[1] = " ".join(parts)
        ref = tmp_path / "ref.rttm"
        ref.write_text("\n".join(lines) + "\n")
        assert run(["score", "--ref", str(ref), "--hyp", str(workdir / "ref.rttm")]) \
            == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestSweep:
    def test_table_columns(self, workdir, capsys):
        assert run(["sweep", "--corpus", str(workdir / "corpus.tsv"),
                    "--eval-corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--param", "sigma", "--values=-2,0,2"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split()
        assert header == ["sigma", "dev", "eval"]
        assert len(out.splitlines()) == 5  # header + 3 rows + best line
        assert out.splitlines()[-1].startswith("best sigma")


    def test_nan_value_is_numeric_error(self, workdir, capsys):
        assert run(["sweep", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--param", "sigma", "--values=nan,0"]) == 3
        captured = capsys.readouterr()
        assert "[numeric] sigma must not be NaN" in captured.err
        assert captured.out == ""

    def test_infinite_scale_value_is_numeric_error(self, workdir, capsys):
        assert run(["sweep", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--param", "scale", "--values=1,inf"]) == 3
        captured = capsys.readouterr()
        assert "[numeric] likelihood_scale" in captured.err
        assert captured.out == ""

    def test_overflowing_scale_value_is_numeric_error(self, workdir, capsys):
        assert run(["sweep", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--param", "scale", "--values=1,1e300"]) == 3
        captured = capsys.readouterr()
        assert "[numeric] likelihood_scale 1e+300 overflows" in captured.err
        assert captured.out == ""

    def test_scale_in_baseline_mode_is_numeric_error(self, workdir, capsys):
        """A baseline scale sweep would print equal rows for every value."""
        assert run(["sweep", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"), "--mode", "baseline",
                    "--param", "scale", "--values=0.5,1,2"]) == 3
        captured = capsys.readouterr()
        assert "[numeric] likelihood_scale is for by_the_book mode only" in captured.err
        assert captured.out == ""

    def test_huge_segment_is_numeric_error(self, workdir, tmp_path, capsys):
        """A segment too long for the 10 ms scoring grid names the span."""
        lines = (workdir / "corpus.tsv").read_text().splitlines()
        parts = lines[2].split("\t")
        parts[3] = "1e308"
        lines[2] = "\t".join(parts)
        corpus = tmp_path / "huge.tsv"
        corpus.write_text("\n".join(lines) + "\n")
        assert run(["sweep", "--corpus", str(corpus),
                    "--model", str(workdir / "model.txt"),
                    "--param", "sigma", "--values=0"]) == 3
        captured = capsys.readouterr()
        assert "[numeric] cannot build the 0.01-s frame grid over 0.0..1e+308 s" \
            in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("values", ["1,abc", "1,,2"])
    def test_bad_values_flag_is_usage_error(self, workdir, capsys, values):
        assert run(["sweep", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--param", "sigma", f"--values={values}"]) == 1
        assert "--values" in capsys.readouterr().err


class TestConfigFile:
    def test_values_applied(self, workdir, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("# comment\nsigma = 1.5\nmode = book\n")
        out = tmp_path / "hyp.rttm"
        assert run(["diarize", "--config", str(cfg),
                    "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--out", str(out)]) == 0

    def test_unknown_key_rejected(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert run(["diarize", "--config", str(cfg),
                    "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--out", str(tmp_path / "h.rttm")]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["diarize", "score", "sweep"])
    def test_seed_only_where_it_is_read(self, workdir, tmp_path, capsys, command):
        """`diarize`, `score` and `sweep` draw no random numbers: `--seed` is
        an unknown flag there, and a seed line an unknown config key."""
        required = {"diarize": ["--corpus", str(workdir / "corpus.tsv"),
                                "--model", str(workdir / "model.txt"),
                                "--out", str(tmp_path / "h.rttm")],
                    "score": ["--ref", str(workdir / "ref.rttm"),
                              "--hyp", str(workdir / "ref.rttm")],
                    "sweep": ["--corpus", str(workdir / "corpus.tsv"),
                              "--model", str(workdir / "model.txt"),
                              "--param", "sigma", "--values=0"]}[command]
        assert run([command, "--seed", "1"] + required) == 1
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("seed = 1\n")
        assert run([command, "--config", str(cfg)] + required) == 2
        assert "unknown config key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "h.rttm").exists()

    def test_explicit_flag_wins(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("values = 0\n")
        assert run(["sweep", "--config", str(cfg),
                    "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--param", "sigma", "--values=-1,1"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 4  # two grid rows, not one

    def test_flag_before_config_wins(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("values = 0\n")
        assert run(["sweep", "--values=-1,1", "--config", str(cfg),
                    "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"), "--param", "sigma"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4  # two grid rows

    def test_abbreviated_config_flag(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("param = sigma\nvalues = -1,1\n")
        assert run(["sweep", "--conf", str(cfg),
                    "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt")]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    @pytest.mark.parametrize("key", ["config", "help"])
    def test_config_and_help_are_not_keys(self, workdir, tmp_path, capsys, key):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"{key} = {cfg}\n")
        assert run(["diarize", "--config", str(cfg),
                    "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--out", str(tmp_path / "h.rttm")]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "h.rttm").exists()

    def test_explicit_flag_equal_to_default_wins(self, workdir, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("sigma = 5\n")
        rttm = {}
        for name, extra in (("flag", ["--config", str(cfg), "--sigma", "0"]),
                            ("default", []), ("file", ["--config", str(cfg)])):
            out = tmp_path / f"{name}.rttm"
            assert run(["diarize", *extra, "--corpus", str(workdir / "corpus.tsv"),
                        "--model", str(workdir / "model.txt"), "--out", str(out)]) == 0
            rttm[name] = out.read_text()
        assert rttm["file"] != rttm["default"]  # the file value alone matters
        assert rttm["flag"] == rttm["default"]

    @pytest.mark.parametrize("command, line, key", [
        ("train", "epochs = abc", "epochs"),
        ("train", "lr_net = fast", "lr_net"),
        ("diarize", "mode = upgma", "mode")])
    def test_mistyped_value_is_data_error(self, workdir, tmp_path, capsys,
                                          command, line, key):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(line + "\n")
        extra = ["--model", str(workdir / "model.txt")] if command == "diarize" else []
        assert run([command, "--config", str(cfg),
                    "--corpus", str(workdir / "corpus.tsv"), *extra,
                    "--out", str(tmp_path / "out.txt")]) == 2
        assert key in capsys.readouterr().err

    def test_bad_values_line_is_data_error(self, tmp_path):
        # the line is checked when the file is turned into flags, before any
        # command-line flag can override it
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("values = 1,abc\n")
        args = build_parser().parse_args(["sweep", "--config", str(cfg),
                                          "--corpus", "c.tsv", "--model", "m.txt",
                                          "--param", "sigma", "--values", "0"])
        with pytest.raises(DataError, match="values"):
            _config_flags(args.config, args.subparser)

    @pytest.mark.parametrize("text, want", [
        ("false", False), ("FALSE", False), ("no", False), ("0", False),
        ("true", True), ("Yes", True), ("1", True)])
    def test_boolean_values(self, tmp_path, text, want):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"freeze_net = {text}\n")
        parser = build_parser()
        argv = ["--corpus", "c.tsv", "--out", "m.txt"]
        flags = _config_flags(cfg, parser.parse_args(["train", *argv]).subparser)
        assert parser.parse_args(["train", *flags, *argv]).freeze_net is want

    def test_required_options_from_file(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"out = {tmp_path / 'm.txt'}\nn = 4\nepochs = 1\n")
        assert run(["train", "--config", str(cfg),
                    "--corpus", str(workdir / "corpus.tsv")]) == 0
        assert load_model(tmp_path / "m.txt")[1].dim == 4
        capsys.readouterr()
        cfg.write_text("param = sigma\nvalues = -1,1\n")
        assert run(["sweep", "--config", str(cfg),
                    "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt")]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    @pytest.mark.parametrize("with_config", [False, True])
    def test_missing_required_option_is_usage_error(self, workdir, tmp_path, capsys,
                                                    with_config):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("epochs = 1\n")
        extra = ["--config", str(cfg)] if with_config else []
        assert run(["train", *extra, "--corpus", str(workdir / "corpus.tsv")]) == 1
        assert "required: --out" in capsys.readouterr().err

    def test_overridden_line_is_validated(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("values = 1,abc\n")
        assert run(["sweep", "--config", str(cfg),
                    "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--param", "sigma", "--values=0"]) == 2
        assert "values" in capsys.readouterr().err

    def test_invalid_boolean_is_data_error(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("freeze_net = maybe\n")
        assert run(["train", "--config", str(cfg),
                    "--corpus", str(workdir / "corpus.tsv"),
                    "--out", str(tmp_path / "m.txt")]) == 2
        assert "freeze_net" in capsys.readouterr().err


class TestErrorsAndUsage:
    def test_no_subcommand(self, capsys):
        assert run([]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run(["diarize", "--nope"]) == 1
        capsys.readouterr()

    def test_missing_corpus_file(self, tmp_path, workdir, capsys):
        assert run(["diarize", "--corpus", str(tmp_path / "absent.tsv"),
                    "--model", str(workdir / "model.txt"),
                    "--out", str(tmp_path / "h.rttm")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("field, value", [(2, "nan"), (2, "-5"), (2, "-1e-9"),
                                              (3, "0"), (4, "nan,0.2,0.3,0.4"),
                                              (3, "inf"), (0, "rec 0000"), (0, "")])
    def test_bad_corpus_value_is_parse_error(self, workdir, tmp_path, capsys,
                                             field, value):
        """A NaN or negative start, a zero duration, a NaN raw value, an end
        that overflows, and a recording id that is empty or holds whitespace
        (RTTM fields split on it) name their line (exit 2)."""
        lines = (workdir / "corpus.tsv").read_text().splitlines()
        parts = lines[2].split("\t")
        parts[field] = value
        lines[2] = "\t".join(parts)
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["diarize", "--corpus", str(bad),
                    "--model", str(workdir / "model.txt"),
                    "--out", str(tmp_path / "h.rttm")]) == 2
        assert "line 3: " in capsys.readouterr().err

    def test_corrupt_model_file(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("format_version 1\nnot a model\n")
        assert run(["diarize", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(bad),
                    "--out", str(tmp_path / "h.rttm")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("line, text, message", [
        (0, "format_version 99", "unsupported model format version 99"),
        (5, "v 1 2 3", "line 6: expected w vector")])
    def test_model_file_errors_keep_their_messages(self, workdir, tmp_path, capsys,
                                                  line, text, message):
        lines = (workdir / "model.txt").read_text().splitlines()
        lines[line] = text
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["diarize", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(bad),
                    "--out", str(tmp_path / "h.rttm")]) == 2
        err = capsys.readouterr().err
        assert f"[data] {message}" in err and "malformed" not in err

    def test_model_header_mismatch_is_data_error(self, workdir, tmp_path, capsys):
        lines = (workdir / "model.txt").read_text().splitlines()
        lines[1] = "dim 99"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["diarize", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(bad),
                    "--out", str(tmp_path / "h.rttm")]) == 2
        err = capsys.readouterr().err
        assert "[data]" in err and "header dim 99" in err

    @pytest.mark.parametrize("line, text, message", [
        (5, "w nan 1 1 1", "every value must be finite"),
        (5, "w -1 1 1 1", "w must be finite and strictly positive"),
        (7, "nan 0 0 0", "every value must be finite")])
    def test_bad_model_value_is_parse_error(self, workdir, tmp_path, capsys,
                                            line, text, message):
        """A NaN or negative PLDA precision or a NaN in A is a data error that
        names the file, found when the model loads."""
        lines = (workdir / "model.txt").read_text().splitlines()
        lines[line] = text
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["diarize", "--corpus", str(workdir / "corpus.tsv"),
                    "--model", str(bad),
                    "--out", str(tmp_path / "h.rttm")]) == 2
        err = capsys.readouterr().err
        assert "[data]" in err and str(bad) in err and message in err

    @pytest.mark.parametrize("argv", [
        "score --ref {tmp} --hyp {ref}",
        "diarize --corpus {corpus} --model {model} --out {tmp}",
        "selftest --config {tmp}",
        "diarize --corpus {bad} --model {model} --out {tmp}/h.rttm",
        "score --ref {bad} --hyp {ref}"])
    def test_unusable_path_is_data_error(self, workdir, tmp_path, capsys, argv):
        """A directory given as an input, an output or a config file, and a
        corpus or RTTM file that is not UTF-8, are data errors."""
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00rec\n")
        paths = {"tmp": tmp_path, "bad": bad, "corpus": workdir / "corpus.tsv",
                 "model": workdir / "model.txt", "ref": workdir / "ref.rttm"}
        assert run(argv.format(**paths).split()) == 2
        assert "[data]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "diarize --corpus {dim3} --model {model} --out {tmp}/h.rttm",
        "sweep --corpus {dim3} --model {model} --param sigma --values=0",
        "sweep --corpus {corpus} --eval-corpus {dim3} --model {model} --param sigma "
        "--values=0"], ids=["diarize", "sweep", "sweep_eval"])
    def test_corpus_dims_differ_from_model_is_data_error(self, workdir, tmp_path, capsys,
                                                          argv):
        """A dim-3 corpus with a dim-4 model is inconsistent input files."""
        dim3 = tmp_path / "dim3.tsv"
        assert run(["simulate", "--out", str(dim3), "--dim", "3",
                    "--recordings", "3", "--segments", "5"]) == 0
        capsys.readouterr()
        paths = {"tmp": tmp_path, "dim3": dim3, "corpus": workdir / "corpus.tsv",
                 "model": workdir / "model.txt"}
        assert run(argv.format(**paths).split()) == 2
        captured = capsys.readouterr()
        assert f"[data] corpus {dim3} has (raw, quality) dims (3, 2), but model " \
            f"{workdir / 'model.txt'} takes (4, 2)" in captured.err
        assert captured.out == "" and not (tmp_path / "h.rttm").exists()

    @pytest.mark.parametrize("argv", [
        "diarize --corpus {bad} --model {model} --out {tmp}/h.rttm",
        "diarize --corpus {corpus} --model {bad} --out {tmp}/h.rttm",
        "score --ref {bad} --hyp {ref}",
        "selftest --config {bad}"])
    def test_non_utf8_file_is_named(self, workdir, tmp_path, capsys, argv):
        """Each text input that does not decode names its file."""
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00rec\n")
        paths = {"tmp": tmp_path, "bad": bad, "corpus": workdir / "corpus.tsv",
                 "model": workdir / "model.txt", "ref": workdir / "ref.rttm"}
        assert run(argv.format(**paths).split()) == 2
        assert f"[data] {bad} is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "simulate --out {tmp}/out --seed -1",
    "train --corpus {corpus} --out {tmp}/out --n 4 --epochs 1 --seed -1",
    "selftest --seed -1"], ids=["simulate", "train", "selftest"])
def test_negative_seed_is_numeric_error(workdir, tmp_path, capsys, argv):
    """Its config class rejects a negative seed before any draw."""
    argv = argv.format(tmp=tmp_path, corpus=workdir / "corpus.tsv").split()
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert "[numeric] seed must be nonnegative, got -1" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def _error_classes(cls=ProbdiarError):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_exit_code_follows_error_class(monkeypatch, capsys, cls):
    """Every toolkit error maps to an exit code by its class alone: a
    DataError (subclasses included) is a data error, any other a numeric
    one."""
    def fail(args):
        raise cls("boom")
    monkeypatch.setattr("probdiar.cli.cmd_selftest", fail)
    data = issubclass(cls, DataError)
    assert run(["selftest"]) == (2 if data else 3)
    label = "[data]" if data else "[numeric]"
    assert f"probdiar: error: {label} boom" in capsys.readouterr().err


class TestSelftest:
    def test_passes(self, capsys):
        """The sections print in order, with the errors of seed 0."""
        assert run(["selftest"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "partition counts... ok",
            "pooled posterior vs exhaustive per-partition scoring... ok",
            "analytic gradients vs finite differences... ok (max rel error 5.77e-10)",
            "gradient-check gate at a saturated initialization... "
            "ok (max rel error 1.21e-08)",
            "selftest passed"]

    def test_failing_check_is_numeric_error(self, monkeypatch, capsys):
        monkeypatch.setattr("probdiar.cli.enumerate_rgs", lambda n: [])
        assert run(["selftest"]) == 3
        assert "[numeric] selftest failed" in capsys.readouterr().err

    @pytest.mark.parametrize("section, message", [
        ("check", "selftest failed: gradient rel error"),
        ("gate", "gradient check failed: rel error")])
    def test_wrong_gradients_are_numeric_error(self, monkeypatch, capsys,
                                               skewed_gradients, section, message):
        """Gradients 1% off fail the plain gradient check; with its result
        ignored they fail the gate at initialization instead."""
        if section == "gate":
            monkeypatch.setattr("probdiar.cli._check", lambda ok, what: None)
        assert run(["selftest"]) == 3
        captured = capsys.readouterr()
        assert f"[numeric] {message}" in captured.err
        assert "selftest passed" not in captured.out
