"""End-to-end CLI tests: pipeline, exit codes, and reproducibility."""

import json
import math

import pytest

from bimem import config
from bimem.adapt import AdaptConfig
from bimem.cli import main, trace_identity

TINY_CONFIG = {
    "n_categories": 3,
    "dim": 2,
    "n_per_class": 20,
    "class_separation": 4.0,
    "target_shift": [1.0, 0.0],
    "target_rotation_deg": 20.0,
    "noise_sigma": 1.0,
    "hidden_dim": 8,
    "source_epochs": 15,
    "iterations": 40,
    "batch_size": 8,
    "top_n": 4,
    "queue_capacity": 16,
    "warmup_iterations": 5,
    "eval_interval": 10,
    "seed": 0,
}


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    return tmp_path, str(cfg)


def run_cli(*argv):
    return main(list(argv))


def prepared_run(tmp, cfg):
    """Generate data, train the source model and export predictions under ``tmp/run``."""
    out = tmp / "run"
    run_cli("gen-data", "--config", cfg, "--out-dir", str(out))
    run_cli("train-source", str(out / "source.csv"), "--config", cfg,
            "--out", str(out / "model.json"))
    run_cli("predict", str(out / "model.json"), str(out / "target.csv"),
            "--config", cfg, "--out", str(out / "preds.csv"))
    return out


class TestPipeline:
    def test_full_pipeline(self, workdir, capsys):
        tmp, cfg = workdir
        out = tmp / "run"
        assert run_cli("gen-data", "--config", cfg, "--out-dir", str(out)) == 0
        assert (out / "source.csv").exists() and (out / "target.csv").exists()
        rows = (out / "source.csv").read_text().splitlines()
        assert len(rows) == 1 + 60  # header + 3 classes x 20

        assert run_cli(
            "train-source", str(out / "source.csv"), "--config", cfg,
            "--out", str(out / "model.json"),
        ) == 0
        assert run_cli(
            "predict", str(out / "model.json"), str(out / "target.csv"),
            "--config", cfg, "--out", str(out / "preds.csv"),
        ) == 0
        preds_rows = (out / "preds.csv").read_text().splitlines()
        assert preds_rows[0] == "id,yhat,p0,p1,p2"
        assert len(preds_rows) == 1 + 60

        assert run_cli(
            "adapt", str(out / "target.csv"), str(out / "preds.csv"),
            "--config", cfg, "--method", "bimem",
            "--out", str(out / "bimem_seed0.csv"),
        ) == 0
        trace = (out / "bimem_seed0.csv").read_text().splitlines()
        assert trace[0] == "iter,acc_all,acc_init_correct,acc_init_incorrect,pl_acc_denoised,pl_acc_blackbox"

        assert run_cli(
            "report", str(out / "bimem_seed0.csv"), "--out", str(out / "summary.csv"),
        ) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "method,seed,final_acc,peak_acc,drop_incorrect_subset"
        assert summary[1].startswith("bimem,0,")
        capsys.readouterr()

    def test_report_on_perfect_black_box_leaves_drop_empty(self, tmp_path, capsys):
        # Every target sample starts correct, so acc_init_incorrect is never defined.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"class_separation": 20.0, "target_rotation_deg": 0.0,
                                   "iterations": 100, "source_epochs": 10}))
        out = prepared_run(tmp_path, str(cfg))
        trace = out / "bimem_seed0.csv"
        assert run_cli("adapt", str(out / "target.csv"), str(out / "preds.csv"),
                       "--config", str(cfg), "--out", str(trace)) == 0
        assert all(line.split(",")[3] == "" for line in trace.read_text().splitlines()[1:])
        assert run_cli("report", str(trace), "--out", str(out / "summary.csv")) == 0
        assert (out / "summary.csv").read_text().splitlines()[1].endswith(",")
        capsys.readouterr()

    def test_resolved_config_printed_before_running(self, workdir, capsys):
        tmp, cfg = workdir
        run_cli("gen-data", "--config", cfg, "--out-dir", str(tmp / "d"))
        out = capsys.readouterr().out
        assert out.startswith("resolved config:")
        resolved = json.loads(out.split("resolved config:\n", 1)[1].split("wrote")[0])
        assert resolved["n_categories"] == 3
        assert resolved["top_n"] == 4

    def test_predict_and_report_print_what_they_read(self, workdir, capsys):
        # Neither reads the config: predict takes its layout from the checkpoint,
        # so it prints that instead of a config it would not use.
        tmp, cfg = workdir
        out = prepared_run(tmp, cfg)
        capsys.readouterr()
        assert run_cli("predict", str(out / "model.json"), str(out / "target.csv"),
                       "--out", str(out / "p.csv")) == 0
        printed = capsys.readouterr().out
        assert "resolved config:" not in printed
        assert printed.startswith("checkpoint layout: ")
        layout = json.loads(printed.split("checkpoint layout: ", 1)[1].split("\n")[0])
        assert layout == {"input_dim": 2, "hidden_dim": 8, "n_categories": 3}
        assert run_cli("adapt", str(out / "target.csv"), str(out / "preds.csv"),
                       "--config", cfg, "--out", str(out / "bimem_seed0.csv")) == 0
        capsys.readouterr()
        assert run_cli("report", str(out / "bimem_seed0.csv"), "--config", cfg,
                       "--out", str(out / "summary.csv")) == 0
        assert "resolved config:" not in capsys.readouterr().out

    def test_missing_out_dir_created(self, workdir):
        tmp, cfg = workdir
        nested = tmp / "a" / "b" / "c"
        assert run_cli("gen-data", "--config", cfg, "--out-dir", str(nested)) == 0
        assert (nested / "target.csv").exists()

    def test_hard_only_predict(self, workdir):
        tmp, cfg = workdir
        out = tmp / "run"
        run_cli("gen-data", "--config", cfg, "--out-dir", str(out))
        run_cli("train-source", str(out / "source.csv"), "--config", cfg,
                "--out", str(out / "model.json"))
        assert run_cli(
            "predict", str(out / "model.json"), str(out / "target.csv"),
            "--config", cfg, "--out", str(out / "hard.csv"), "--hard-only",
        ) == 0
        line = (out / "hard.csv").read_text().splitlines()[1]
        probs = sorted(float(v) for v in line.split(",")[2:])
        assert probs[0] == pytest.approx(0.1 / 3, abs=1e-9)
        assert probs[-1] == pytest.approx(0.9 + 0.1 / 3, abs=1e-9)

    def test_checkpoint_round_trip_and_repeat_run_bit_identical(self, workdir):
        tmp, cfg = workdir
        out = tmp / "run"
        run_cli("gen-data", "--config", cfg, "--out-dir", str(out))
        run_cli("train-source", str(out / "source.csv"), "--config", cfg,
                "--out", str(out / "m1.json"))
        run_cli("train-source", str(out / "source.csv"), "--config", cfg,
                "--out", str(out / "m2.json"))
        assert (out / "m1.json").read_bytes() == (out / "m2.json").read_bytes()


class TestAblateCommand:
    def test_ablate_emits_seven_rows(self, workdir):
        tmp, cfg = workdir
        out = prepared_run(tmp, cfg)
        assert run_cli(
            "ablate", str(out / "target.csv"), str(out / "preds.csv"),
            "--config", cfg, "--seeds", "0", "--out", str(out / "table.csv"),
        ) == 0
        lines = (out / "table.csv").read_text().splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("row,flows,")
        assert "SM->ST,SM<-ST" in lines[2]

    def test_bad_seeds_exit_1(self, workdir):
        tmp, cfg = workdir
        assert run_cli(
            "ablate", "t.csv", "p.csv", "--config", cfg,
            "--seeds", "a,b", "--out", str(tmp / "x.csv"),
        ) == 1

    @pytest.mark.parametrize("seeds", ["1_0", "\u0663", " 2", "0,,1", "0,", ""])
    def test_seeds_take_the_csv_integer_syntax(self, workdir, capsys, seeds):
        tmp, cfg = workdir
        assert run_cli(
            "ablate", "t.csv", "p.csv", "--config", cfg,
            "--seeds", seeds, "--out", str(tmp / "x.csv"),
        ) == 1
        assert "--seeds" in capsys.readouterr().err

    def test_ablate_runs_and_prints_bimem_whatever_the_config_method(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "method": "vanilla_st"}))
        out = prepared_run(tmp_path, str(cfg))
        capsys.readouterr()
        assert run_cli(
            "ablate", str(out / "target.csv"), str(out / "preds.csv"),
            "--config", str(cfg), "--seeds", "0", "--out", str(out / "table.csv"),
        ) == 0
        printed = capsys.readouterr().out
        resolved = json.loads(printed.split("resolved config:\n", 1)[1].split("row 1")[0])
        assert resolved["method"] == "bimem"


class TestExitCodes:
    def test_unknown_config_key_exit_1_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"batch_sizes": 16}))
        assert run_cli("gen-data", "--config", str(cfg), "--out-dir", str(tmp_path)) == 1
        assert "batch_sizes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("text", "named"),
        [
            ('{"iterations": 2000.0}', "iterations"),
            ('{"top_n": true}', "top_n"),
            ('{"flow_sm_to_st": 1}', "flow_sm_to_st"),
            ('{"lr": "0.1"}', "lr"),
            ('{"lr": NaN}', "lr"),
            ('{"target_shift": [1, 2]}', "target_shift"),
            ('{"target_shift": [NaN, 0, 0, 0, 0, 0, 0, 0]}', "target_shift"),
            ('{"target_shift": [Infinity, 0, 0, 0, 0, 0, 0, 0]}', "target_shift"),
            ("[1]", "JSON object"),
            ('{"lr": ', "not valid JSON"),
            # Every key rejects a value of the wrong type, typed from its default.
            *(pytest.param(json.dumps({key: "x"}), repr(key), id=f"{key}-str")
              for key in config.DEFAULTS),
        ],
    )
    def test_rejected_config_exit_1_names_key(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert run_cli("gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "d")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not (tmp_path / "d").exists()

    def test_default_config_is_adapt_config_defaults(self):
        assert config.adapt_config(config.resolve()) == AdaptConfig()

    def test_unknown_method_exit_1(self, workdir, capsys):
        tmp, cfg = workdir
        bad = tmp / "bad.json"
        bad.write_text(json.dumps({**TINY_CONFIG, "method": "magic"}))
        assert run_cli(
            "adapt", "t.csv", "p.csv", "--config", str(bad), "--out", str(tmp / "x.csv")
        ) == 1
        assert "magic" in capsys.readouterr().err

    def test_usage_error_exit_1(self, capsys):
        assert run_cli("adapt") == 1
        capsys.readouterr()

    def test_missing_data_file_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        assert run_cli(
            "adapt", str(tmp / "absent.csv"), str(tmp / "absent2.csv"),
            "--config", cfg, "--out", str(tmp / "x.csv"),
        ) == 2
        capsys.readouterr()

    def test_malformed_dataset_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        bad = tmp / "bad.csv"
        bad.write_text("id,f0,f1,label\n0,1.0,2.0\n")
        assert run_cli(
            "adapt", str(bad), str(bad), "--config", cfg, "--out", str(tmp / "x.csv")
        ) == 2
        capsys.readouterr()

    def test_prediction_category_count_mismatch_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        out = prepared_run(tmp, cfg)
        five_class = tmp / "five.json"
        five_class.write_text(json.dumps({**TINY_CONFIG, "n_categories": 5}))
        # The 3-class predictions padded with two zero-probability columns.
        lines = (out / "preds.csv").read_text().splitlines()
        padded = [lines[0] + ",p3,p4"] + [line + ",0,0" for line in lines[1:]]
        (out / "preds5.csv").write_text("\n".join(padded) + "\n")
        capsys.readouterr()
        for command, config, preds in (
            ("adapt", str(five_class), "preds.csv"),
            ("adapt", cfg, "preds5.csv"),
            ("ablate", str(five_class), "preds.csv"),
            ("ablate", cfg, "preds5.csv"),
        ):
            assert run_cli(
                command, str(out / "target.csv"), str(out / preds),
                "--config", config, "--out", str(tmp / "x.csv"),
            ) == 2
            assert "n_categories" in capsys.readouterr().err
        assert not (tmp / "x.csv").exists()

    @pytest.mark.parametrize("command", ["adapt", "ablate", "train-source", "predict"])
    def test_header_only_dataset_exit_2_names_file(self, workdir, capsys, command):
        tmp, cfg = workdir
        out = prepared_run(tmp, cfg)
        empty = tmp / "empty.csv"
        empty.write_text("id,f0,f1,label\n")
        written = tmp / "x.out"
        argv = {
            "adapt": ["adapt", str(empty), str(out / "preds.csv")],
            "ablate": ["ablate", str(empty), str(out / "preds.csv")],
            "train-source": ["train-source", str(empty)],
            "predict": ["predict", str(out / "model.json"), str(empty)],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv, "--config", cfg, "--out", str(written)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{empty} has no data rows" in err
        assert not written.exists()

    @pytest.mark.parametrize(("fault", "named"), [
        ("empty", "no key 'layout'"),
        ("not-json", "malformed model checkpoint"),
        ("string-weight", "out_b"),
        ("wrong-shape", "out_w"),
        ("nan-weight", "non-finite"),
    ])
    def test_malformed_checkpoint_predict_exit_2(self, workdir, capsys, fault, named):
        tmp, cfg = workdir
        out = tmp / "run"
        run_cli("gen-data", "--config", cfg, "--out-dir", str(out))
        checkpoint = tmp / "model.json"
        layout = {"input_dim": 2, "hidden_dim": 0, "n_categories": 3}
        weights = {"out_w": [[0.1, 0.2]] * 3, "out_b": [0.0, 0.0, 0.0]}
        checkpoint.write_text({
            "empty": "{}",
            "not-json": '{"layout": ',
            "string-weight": json.dumps({"layout": layout, **weights, "out_b": ["x", 0, 0]}),
            "wrong-shape": json.dumps({"layout": layout, **weights, "out_w": [[0.1, 0.2]] * 2}),
            "nan-weight": json.dumps({"layout": layout, **weights, "out_b": [math.nan, 0, 0]}),
        }[fault])
        written = tmp / "preds.csv"
        capsys.readouterr()
        assert run_cli("predict", str(checkpoint), str(out / "target.csv"), "--config", cfg,
                       "--out", str(written)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(checkpoint) in err and named in err
        assert not written.exists()

    def test_negative_seed_gen_data_exit_1(self, workdir, capsys):
        tmp, _ = workdir
        bad = tmp / "bad.json"
        bad.write_text(json.dumps({**TINY_CONFIG, "seed": -1}))
        assert run_cli("gen-data", "--config", str(bad), "--out-dir", str(tmp / "d")) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp / "d" / "target.csv").exists()

    def test_negative_seed_adapt_exit_1(self, workdir, capsys):
        tmp, cfg = workdir
        out = prepared_run(tmp, cfg)
        bad = tmp / "bad.json"
        bad.write_text(json.dumps({**TINY_CONFIG, "seed": -1}))
        capsys.readouterr()
        assert run_cli(
            "adapt", str(out / "target.csv"), str(out / "preds.csv"),
            "--config", str(bad), "--out", str(tmp / "x.csv"),
        ) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp / "x.csv").exists()

    def test_negative_seed_ablate_exit_1(self, workdir, capsys):
        tmp, cfg = workdir
        out = prepared_run(tmp, cfg)
        capsys.readouterr()
        assert run_cli(
            "ablate", str(out / "target.csv"), str(out / "preds.csv"),
            "--config", cfg, "--seeds=-1", "--out", str(tmp / "x.csv"),
        ) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp / "x.csv").exists()

    def test_duplicate_seed_ablate_exit_1(self, workdir, capsys):
        tmp, cfg = workdir
        out = prepared_run(tmp, cfg)
        capsys.readouterr()
        assert run_cli(
            "ablate", str(out / "target.csv"), str(out / "preds.csv"),
            "--config", cfg, "--seeds", "0,1,0", "--out", str(tmp / "x.csv"),
        ) == 1
        assert "repeat a seed" in capsys.readouterr().err
        assert not (tmp / "x.csv").exists()

    def test_report_empty_input_exit_1(self, capsys):
        assert run_cli("report", "--out", "s.csv") == 1
        capsys.readouterr()

    def test_report_header_only_trace_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "bimem_seed0.csv"
        trace.write_text(
            "iter,acc_all,acc_init_correct,acc_init_incorrect,pl_acc_denoised,pl_acc_blackbox\n"
        )
        assert run_cli("report", str(trace), "--out", str(tmp_path / "s.csv")) == 2
        assert "no data rows" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("rows, message", [
        (["0,nan,0.5,0.5,0.5,0.5"], "acc_all nan"),
        (["0,0.5,0.5,0.5,7.0,0.5"], "pl_acc_denoised 7.0"),
        (["0,0.5,0.5,0.5,0.5,0.5", "10,1.5,,,0.5,0.5"], "acc_all 1.5"),
        (["10,0.5,0.5,0.5,0.5,0.5", "5,0.5,0.5,0.5,0.5,0.5"], "iteration 5 does not follow 10"),
    ])
    def test_report_malformed_trace_exit_2(self, tmp_path, capsys, rows, message):
        trace = tmp_path / "bimem_seed0.csv"
        trace.write_text(
            "iter,acc_all,acc_init_correct,acc_init_incorrect,pl_acc_denoised,pl_acc_blackbox\n"
            + "".join(row + "\n" for row in rows)
        )
        assert run_cli("report", str(trace), "--out", str(tmp_path / "s.csv")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_report_partition_violation_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "bimem_seed0.csv"
        trace.write_text(
            "iter,acc_all,acc_init_correct,acc_init_incorrect,pl_acc_denoised,pl_acc_blackbox\n"
            "0,0.9,0.5,0.5,0.5,0.5\n"
        )
        assert run_cli("report", str(trace), "--out", str(tmp_path / "s.csv")) == 2
        capsys.readouterr()


class TestTraceIdentity:
    def test_method_seed_parsed_from_name(self):
        assert trace_identity("out/vanilla_st_seed3.csv") == ("vanilla_st", 3)
        assert trace_identity("bimem_seed12_trace.csv") == ("bimem", 12)

    def test_fallback_to_stem(self):
        assert trace_identity("mystery.csv") == ("mystery", "")
