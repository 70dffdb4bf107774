"""Command-line interface: subcommands, config files, exit codes."""

from dataclasses import replace

import numpy as np
import pytest

from probdiar.cli import _apply_config, build_parser, run
from probdiar.errors import DataError
from probdiar.extractor import Corpus, ExtractorModel, PrecisionNet, estimate_full_plda
from probdiar.io import load_corpus, load_model, save_model
from probdiar.plda import DiagPlda
from probdiar.training import TrainConfig, train


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


class TestTrain:
    def test_model_loads(self, workdir):
        model, plda = load_model(workdir / "model.txt")
        assert model.raw_dim == 4
        assert plda.dim == 4

    def test_history_written(self, workdir):
        lines = (workdir / "history.tsv").read_text().splitlines()
        assert lines[0] == "epoch\ttrain_ce\theldout_ce"
        assert len(lines) == 3

    def test_model_file_equals_library_train(self, workdir, tmp_path):
        """The command trains `train` on a Corpus whose first quarter of
        recordings is held out, with the model estimated from the rest."""
        recs = load_corpus(workdir / "corpus.tsv")
        recs = [replace(r, split="heldout" if i < 2 else "train")
                for i, r in enumerate(recs)]
        result = train(TrainConfig(n=4, epochs=2),
                       Corpus(recs, estimate_full_plda(recs[2:])))
        save_model(tmp_path / "lib.txt", result.model, result.plda)
        assert (tmp_path / "lib.txt").read_bytes() == \
            (workdir / "model.txt").read_bytes()

    def test_one_recording_corpus_is_data_error(self, workdir, tmp_path, capsys):
        """The only recording is held out, which leaves nothing to train on."""
        one = tmp_path / "one.tsv"
        lines = (workdir / "corpus.tsv").read_text().splitlines()
        one.write_text("\n".join(ln for ln in lines
                                 if ln.split("\t")[0] == "rec0000") + "\n")
        assert run(["train", "--corpus", str(one), "--out", str(tmp_path / "m.txt"),
                    "--n", "4", "--epochs", "1"]) == 2
        assert "[data]" in capsys.readouterr().err


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
        # with no argv, no flag counts as given and the file line applies
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("values = 1,abc\n")
        args = build_parser().parse_args(["sweep", "--config", str(cfg),
                                          "--corpus", "c.tsv", "--model", "m.txt",
                                          "--param", "sigma", "--values", "0"])
        with pytest.raises(DataError, match="values"):
            _apply_config(args, args.subparser)

    @pytest.mark.parametrize("text, want", [
        ("false", False), ("FALSE", False), ("no", False), ("0", False),
        ("true", True), ("Yes", True), ("1", True)])
    def test_boolean_values(self, tmp_path, text, want):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"freeze_net = {text}\n")
        args = build_parser().parse_args(["train", "--config", str(cfg),
                                          "--corpus", "c.tsv", "--out", "m.txt"])
        assert _apply_config(args, args.subparser).freeze_net is want

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
                                              (3, "0"), (4, "nan,0.2,0.3,0.4")])
    def test_bad_corpus_value_is_parse_error(self, workdir, tmp_path, capsys,
                                             field, value):
        """A NaN or negative start, a zero duration or a NaN raw value names
        its line (exit 2)."""
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


class TestSelftest:
    def test_passes(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out

    def test_failing_check_is_numeric_error(self, monkeypatch, capsys):
        monkeypatch.setattr("probdiar.cli.enumerate_rgs", lambda n: [])
        assert run(["selftest"]) == 3
        assert "[numeric] selftest failed" in capsys.readouterr().err
