"""Tests for the adaptation loops, baselines, traces, and the ablation grid."""

import hashlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from bimem import adapt, blackbox, model
from bimem.adapt import (
    ABLATION_ROWS,
    TRACE_HEADER,
    AdaptConfig,
    RunTrace,
    TraceRow,
    _select_top_fraction,
    denoise_labels,
    run,
    run_ablation_suite,
    run_bimem,
    run_confidence_st,
    run_vanilla_st,
)
from bimem.data import gen_shifted_gaussians
from bimem.errors import DataError, InvalidArgumentError
from bimem.memory import FlowConfig
from bimem.model import EpochSampler

GOLDEN_DIR = Path(__file__).parent / "data"


def tiny_instance(seed=0, n_per_class=20, c=3, d=2, separation=4.0, rotation_deg=20.0,
                  source_epochs=20, source_hidden=8):
    source, target = gen_shifted_gaussians(
        c, d, n_per_class, separation, np.array([1.0] + [0.0] * (d - 1)), rotation_deg, 1.0, seed
    )
    params = blackbox.train_source(source, epochs=source_epochs, lr=0.05, seed=seed,
                                   hidden_dim=source_hidden)
    return target, blackbox.predict(params, target)


def tiny_cfg(**kw):
    base = dict(
        method="bimem",
        iterations=40,
        batch_size=8,
        top_n=4,
        queue_capacity=16,
        eval_interval=10,
        warmup_iterations=5,
        hidden_dim=8,
        seed=0,
    )
    base.update(kw)
    return AdaptConfig(**base)


class TestAdaptConfigValidation:
    def test_defaults_valid(self):
        AdaptConfig().validate()

    def test_unknown_method(self):
        with pytest.raises(InvalidArgumentError):
            AdaptConfig(method="nope").validate()

    def test_size_ordering(self):
        with pytest.raises(InvalidArgumentError):
            AdaptConfig(top_n=64, batch_size=32).validate()
        with pytest.raises(InvalidArgumentError):
            AdaptConfig(batch_size=512, queue_capacity=256).validate()
        with pytest.raises(InvalidArgumentError):
            AdaptConfig(top_n=0).validate()

    def test_top_n_defaults_to_batch_size(self):
        AdaptConfig(batch_size=16).validate()
        target, preds = tiny_instance()
        queued = []
        run_bimem(
            target, preds, tiny_cfg(batch_size=16, top_n=None, iterations=1),
            step_hook=lambda t, state, *rest: queued.append(len(state.short_term.queue)),
        )
        assert queued == [16]

    def test_rate_ranges(self):
        for bad in (dict(lr=0.0), dict(gamma=1.0), dict(gamma_prime=-0.1),
                    dict(confidence_quantile=1.5), dict(eval_interval=0),
                    dict(refresh_interval=0), dict(iterations=-1),
                    dict(warmup_iterations=-1), dict(seed=-1)):
            with pytest.raises(InvalidArgumentError):
                AdaptConfig(**bad).validate()

    def test_runner_rejects_mismatched_method(self):
        target, preds = tiny_instance()
        with pytest.raises(InvalidArgumentError):
            run_bimem(target, preds, tiny_cfg(method="vanilla_st"))

    def test_validation_happens_before_any_iteration(self):
        target, preds = tiny_instance()
        with pytest.raises(InvalidArgumentError):
            run_vanilla_st(target, preds, tiny_cfg(method="vanilla_st", eval_interval=0))


class TestEpochSampler:
    def test_every_sample_once_per_epoch(self):
        rng = np.random.default_rng(0)
        sampler = EpochSampler(25, 8, rng)
        for _ in range(5):
            seen = []
            for _ in range(4):  # ceil(25/8) batches per epoch
                seen.extend(sampler.next_batch().tolist())
            assert sorted(seen) == list(range(25))

    def test_batch_size_clamped_to_population(self):
        sampler = EpochSampler(3, 10, np.random.default_rng(0))
        assert sampler.next_batch().shape[0] == 3


class TestDenoiseLabels:
    def test_pass_through_when_not_calibrated(self):
        yhat = np.array([2, 0, 1])
        out = denoise_labels(np.zeros((3, 3)), False, yhat, np.eye(3)[yhat])
        np.testing.assert_array_equal(out, yhat)

    def test_product_argmax_when_calibrated(self):
        cal = np.array([[0.9, 0.1], [0.2, 0.8]])
        phat = np.array([[0.3, 0.7], [0.5, 0.5]])
        out = denoise_labels(cal, True, np.array([1, 0]), phat)
        np.testing.assert_array_equal(out, (cal * phat).argmax(axis=1))

    def test_invariant_to_positive_per_sample_rescaling(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n, c = 16, 4
            cal = rng.random((n, c)) + 1e-6
            phat = rng.random((n, c)) + 1e-6
            scales = rng.uniform(0.01, 100.0, size=(n, 1))
            base = denoise_labels(cal, True, np.zeros(n, dtype=int), phat)
            scaled = denoise_labels(cal, True, np.zeros(n, dtype=int), phat * scales)
            np.testing.assert_array_equal(base, scaled)


class TestRunBimem:
    @pytest.mark.parametrize("method", adapt.METHODS)
    def test_zero_iterations_single_eval_point(self, method):
        target, preds = tiny_instance()
        params, trace = run(target, preds, tiny_cfg(method=method, iterations=0))
        assert len(trace.rows) == 1
        assert trace.rows[0].iteration == 0
        expected = model.init_params(
            model.Layout(2, 8, 3), np.random.default_rng([0, 0])
        )
        for a, b in zip(params.arrays(), expected.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_same_seed_identical_traces(self):
        target, preds = tiny_instance()
        _, t1 = run_bimem(target, preds, tiny_cfg())
        _, t2 = run_bimem(target, preds, tiny_cfg())
        assert t1 == t2

    @pytest.mark.parametrize("method", adapt.METHODS)
    def test_iterations_strictly_increasing_with_final_point(self, method):
        target, preds = tiny_instance()
        _, trace = run(target, preds, tiny_cfg(method=method, iterations=25, eval_interval=10))
        assert trace.column("iter") == [0, 10, 20, 25]

    def test_flows_off_equals_vanilla_on_fixed_labels(self):
        target, preds = tiny_instance()
        cfg_b = tiny_cfg(flows=FlowConfig.none())
        _, trace_b = run_bimem(target, preds, cfg_b)
        cfg_v = tiny_cfg(method="vanilla_st", refresh_interval=10_000)
        _, trace_v = run_vanilla_st(target, preds, cfg_v)
        assert trace_b == trace_v

    def test_blackbox_column_constant(self):
        target, preds = tiny_instance()
        _, trace = run_bimem(target, preds, tiny_cfg())
        col = trace.column("pl_acc_blackbox")
        assert len(set(col)) == 1

    def test_partition_identity_in_memory(self):
        from bimem.metrics import validate_partition_identity

        target, preds = tiny_instance()
        _, trace = run_bimem(target, preds, tiny_cfg())
        validate_partition_identity(trace, tol=1e-9)

    def test_run_dispatches_on_method(self):
        target, preds = tiny_instance()
        _, via_dispatch = run(target, preds, tiny_cfg())
        _, direct = run_bimem(target, preds, tiny_cfg())
        assert via_dispatch == direct

    def test_run_rejects_unknown_method(self):
        target, preds = tiny_instance()
        with pytest.raises(InvalidArgumentError, match="unknown method 'nope'") as err:
            run(target, preds, tiny_cfg(method="nope"))
        assert str(adapt.METHODS) in str(err.value)

    @pytest.mark.parametrize("method", adapt.METHODS)
    def test_run_aligns_the_predictions_once(self, monkeypatch, method):
        calls = []
        aligned_to = blackbox.PredictionSet.aligned_to

        def counted(preds, ids):
            calls.append(len(ids))
            return aligned_to(preds, ids)

        target, preds = tiny_instance()
        monkeypatch.setattr(blackbox.PredictionSet, "aligned_to", counted)
        run(target, preds, tiny_cfg(method=method, iterations=15))
        assert calls == [target.n_samples]

    def test_training_path_sees_no_labels(self):
        from bimem.adapt import _UnlabeledInputs

        assert "labels" not in {f.name for f in fields(_UnlabeledInputs)}

    def test_missing_prediction_coverage_is_data_error(self):
        target, preds = tiny_instance()
        partial = blackbox.PredictionSet(
            ids=preds.ids[:-1], yhat=preds.yhat[:-1], probs=preds.probs[:-1]
        )
        with pytest.raises(DataError):
            run_bimem(target, partial, tiny_cfg())

    @pytest.mark.parametrize(
        "golden, instance, overrides, params_sha256",
        [
            pytest.param("golden_bimem_trace.csv", dict(n_per_class=100, c=3), {},
                         "277f2b78c1478e547d115a1cfee1805acdce780084abba437569d7badec42468",
                         id="3c"),
            pytest.param("golden_bimem_trace_8c.csv", dict(n_per_class=40, c=8), {},
                         "cfb586aa6cd119137008ee404a2beb3fbd95c4cf41f0a222143400acdb2f420a",
                         id="8c"),
            pytest.param(
                "golden_bimem_trace_20c.csv",
                dict(n_per_class=20, c=20, d=8, separation=16.0, rotation_deg=6.25,
                     source_epochs=50, source_hidden=32),
                dict(batch_size=16, top_n=8, queue_capacity=128, hidden_dim=20, lr=0.2),
                "29e338c416d18dcb5274783f687be77b069e4325043ebfb8caf6e67aa78fb3e3",
                id="20c",
            ),
            pytest.param("golden_bimem_trace_linear.csv", dict(n_per_class=40, c=8),
                         dict(hidden_dim=0),
                         "d5dd993df74c28753c2470dda9bdaccfd469575d2c3f1d2350c79df7188c9f6d",
                         id="linear"),
            pytest.param("golden_vanilla_st_trace.csv", dict(n_per_class=40, c=8),
                         dict(method="vanilla_st"),
                         "2141274108b6b6d07e612a2d2d0a6a66912c8a0bf3026c6debcf4c72315e14b3",
                         id="vanilla_st"),
            pytest.param("golden_confidence_st_trace.csv", dict(n_per_class=40, c=8),
                         dict(method="confidence_st"),
                         "83bae07b2ef9f22b27bfb570e5139053e16aa643c2d398868550a34a7b67a39a",
                         id="confidence_st"),
        ],
    )
    def test_trace_matches_golden_bytes(self, tmp_path, monkeypatch, golden, instance,
                                        overrides, params_sha256):
        """The committed traces pin the bytes across commits, not just reruns.

        The 3- and 8-class runs fill the 16-slot queue after 4 steps, evict
        from then on and calibrate most steps after the 8-step warm-up (191
        of 200 at 3 classes, 157 at 8). Seed 3 gives traces whose accuracies
        still move late in the run. At 8 classes numpy sums each calibration
        softmax row pairwise, a path the 3-class run never takes; the bytes
        are accuracies, so a last-bit change that flips no label is not seen.
        The 20-class run keeps a 128-row queue, eight batches, so every
        queue calibration measures L1 distances over 128 x 20 x 20 feature
        differences (the feature width 20 is not a multiple of 8); calibration
        first engages at step 58 and runs on 143 of the 200 steps. The linear
        8-class run feeds the raw inputs to the memories. The two 8-class
        self-training runs refresh their labels from the momentum model every
        40-step epoch and part ways at the first refresh. The digest over the
        final student's and momentum model's ``arrays()`` bytes catches the
        last-bit moves that the accuracies miss.
        """
        models = []
        init_models = adapt._init_models

        def keep_models(*args):
            models.append(init_models(*args))
            return models[-1]

        monkeypatch.setattr(adapt, "_init_models", keep_models)
        target, preds = tiny_instance(seed=3, **instance)
        cfg = tiny_cfg(iterations=200, warmup_iterations=8, seed=3, **overrides)
        student, trace = run(target, preds, cfg)
        trace.to_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (GOLDEN_DIR / golden).read_bytes()
        [(kept, mm, _)] = models
        assert kept is student
        final = b"".join(a.tobytes() for a in [*student.arrays(), *mm.params.arrays()])
        assert hashlib.sha256(final).hexdigest() == params_sha256


class TestRun:
    @pytest.mark.parametrize("method", ["vanilla_st", "confidence_st"])
    def test_step_hook_needs_the_memory_method(self, method):
        target, preds = tiny_instance()
        with pytest.raises(InvalidArgumentError, match=f"needs method 'bimem', got '{method}'"):
            adapt.Run(target, preds, tiny_cfg(method=method), step_hook=lambda *args: None)

    @pytest.mark.parametrize("method", adapt.METHODS)
    def test_stepping_by_hand_equals_run(self, tmp_path, monkeypatch, method):
        """A ``Run`` stepped to ``cfg.iterations`` is the run: the same trace
        CSV bytes and the same final student and momentum parameter bytes."""
        models = []
        init_models = adapt._init_models

        def keep_models(*args):
            models.append(init_models(*args))
            return models[-1]

        monkeypatch.setattr(adapt, "_init_models", keep_models)
        target, preds = tiny_instance()
        # Refreshes, calibration and a last eval point off the interval all happen.
        cfg = tiny_cfg(method=method, iterations=45)
        student, trace = run(target, preds, cfg)
        by_hand = adapt.Run(target, preds, cfg)
        for _ in range(cfg.iterations):
            by_hand.step()
        assert by_hand.t == cfg.iterations
        trace.to_csv(tmp_path / "run.csv")
        RunTrace(by_hand.rows).to_csv(tmp_path / "by_hand.csv")
        assert (tmp_path / "by_hand.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()
        (kept, mm, _), _ = models
        assert kept is student
        for a, b in zip([*student.arrays(), *mm.params.arrays()],
                        [*by_hand.student.arrays(), *by_hand.mm.params.arrays()], strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestVanilla:
    def test_refresh_beyond_iterations_trains_on_fixed_labels(self):
        target, preds = tiny_instance()
        cfg = tiny_cfg(method="vanilla_st", refresh_interval=10_000)
        _, trace = run_vanilla_st(target, preds, cfg)
        for row in trace.rows:
            assert row.pl_acc_denoised == row.pl_acc_blackbox

    def test_same_seed_identical_traces(self):
        target, preds = tiny_instance()
        cfg = tiny_cfg(method="vanilla_st")
        _, t1 = run_vanilla_st(target, preds, cfg)
        _, t2 = run_vanilla_st(target, preds, cfg)
        assert t1 == t2

    def test_labels_refresh_after_warmup(self):
        target, preds = tiny_instance()
        cfg = tiny_cfg(method="vanilla_st", iterations=30, refresh_interval=8,
                       warmup_iterations=0, eval_interval=1)
        _, trace = run_vanilla_st(target, preds, cfg)
        denoised = trace.column("pl_acc_denoised")
        assert denoised[0] == trace.rows[0].pl_acc_blackbox
        assert len(set(denoised)) > 1


class TestConfidence:
    def test_quantile_one_identical_to_vanilla(self):
        target, preds = tiny_instance()
        cfg_c = tiny_cfg(method="confidence_st", confidence_quantile=1.0)
        _, tc = run_confidence_st(target, preds, cfg_c)
        cfg_v = tiny_cfg(method="vanilla_st")
        _, tv = run_vanilla_st(target, preds, cfg_v)
        assert tc == tv

    def test_quantile_zero_freezes_after_first_refresh(self):
        target, preds = tiny_instance()
        cfg = tiny_cfg(
            method="confidence_st",
            confidence_quantile=0.0,
            refresh_interval=1,
            warmup_iterations=0,
        )
        params, _ = run_confidence_st(target, preds, cfg)
        init = model.init_params(model.Layout(2, 8, 3), np.random.default_rng([0, 0]))
        for a, b in zip(params.arrays(), init.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_selection_counts_per_predicted_class(self):
        rng = np.random.default_rng(2)
        labels = np.repeat(np.arange(3), [10, 7, 3])
        probs = rng.random((20, 3)) + 1e-6
        mask = _select_top_fraction(probs, labels, 0.5)
        for c, n_c in enumerate([10, 7, 3]):
            selected = mask[labels == c].sum()
            assert selected == int(np.ceil(0.5 * n_c))

    def test_selected_are_most_confident(self):
        labels = np.zeros(4, dtype=int)
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
        mask = _select_top_fraction(probs, labels, 0.5)
        np.testing.assert_array_equal(mask, [True, False, True, False])


class TestTraceCsv:
    def test_header_bit_exact(self, tmp_path):
        target, preds = tiny_instance()
        _, trace = run_bimem(target, preds, tiny_cfg(iterations=5, eval_interval=5))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        first = path.read_text().splitlines()[0]
        assert first == "iter,acc_all,acc_init_correct,acc_init_incorrect,pl_acc_denoised,pl_acc_blackbox"

    def test_round_trip_preserves_rows(self, tmp_path):
        target, preds = tiny_instance()
        _, trace = run_bimem(target, preds, tiny_cfg())
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert RunTrace.from_csv(path) == trace

    def test_none_serialized_as_empty_field(self, tmp_path):
        trace = RunTrace([TraceRow(0, 0.5, None, 0.5, 0.5, 1.0)])
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert "0,0.5,,0.5,0.5,1.0" in path.read_text()
        loaded = RunTrace.from_csv(path)
        assert loaded.rows[0].acc_init_correct is None

    def test_unknown_column_rejected(self):
        trace = RunTrace([TraceRow(0, 0.5, 0.5, 0.5, 0.5, 1.0)])
        with pytest.raises(InvalidArgumentError):
            trace.column("mIoU")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.5", "-0.25"])
    @pytest.mark.parametrize("column", range(1, 6))
    def test_non_accuracy_rejected(self, tmp_path, column, value):
        fields = ["0", "0.5", "0.5", "0.5", "0.5", "1.0"]
        fields[column] = value
        path = tmp_path / "trace.csv"
        path.write_text(TRACE_HEADER + "\n" + ",".join(fields) + "\n")
        with pytest.raises(DataError, match="line 2: .* is not an accuracy"):
            RunTrace.from_csv(path)

    @pytest.mark.parametrize("iterations", [(0, 0), (10, 5)])
    def test_non_increasing_iterations_rejected(self, tmp_path, iterations):
        path = tmp_path / "trace.csv"
        path.write_text(TRACE_HEADER + "\n" + "".join(
            f"{i},0.5,0.5,0.5,0.5,1.0\n" for i in iterations))
        with pytest.raises(DataError, match="line 3: iteration"):
            RunTrace.from_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iter,acc\n0,0.5\n")
        with pytest.raises(DataError, match="line 1"):
            RunTrace.from_csv(path)


class TestAblation:
    def test_seven_rows_with_flow_labels(self):
        assert len(ABLATION_ROWS) == 7
        assert ABLATION_ROWS[0][1] == "none"
        assert ABLATION_ROWS[6][2] == FlowConfig.all_enabled()
        target, preds = tiny_instance()
        rows = run_ablation_suite(target, preds, tiny_cfg(iterations=10), [0])
        assert [r["row"] for r in rows] == [1, 2, 3, 4, 5, 6, 7]
        assert rows[1]["flows"] == "SM->ST,SM<-ST"
        assert rows[6]["sm_to_st"] and rows[6]["st_from_lt"]

    def test_row1_reproduces_no_memory_baseline(self):
        target, preds = tiny_instance()
        cfg = tiny_cfg(iterations=20)
        rows = run_ablation_suite(target, preds, cfg, [0])
        _, base_trace = run_bimem(target, preds, replace(cfg, flows=FlowConfig.none(), seed=0))
        assert rows[0]["mean_final_acc"] == base_trace.column("acc_all")[-1]

    def test_row7_equals_full_run(self):
        target, preds = tiny_instance()
        cfg = tiny_cfg(iterations=20)
        rows = run_ablation_suite(target, preds, cfg, [0])
        _, full_trace = run_bimem(
            target, preds, replace(cfg, flows=FlowConfig.all_enabled(), seed=0)
        )
        assert rows[6]["mean_final_acc"] == full_trace.column("acc_all")[-1]

    def test_runs_go_through_the_module_runner(self, monkeypatch):
        """Tools that replace ``adapt.run_bimem`` must see every ablation run."""
        calls = []
        runner = adapt.run_bimem

        def counting(*args, **kwargs):
            calls.append(args[2].flows)
            return runner(*args, **kwargs)

        monkeypatch.setattr(adapt, "run_bimem", counting)
        target, preds = tiny_instance()
        run_ablation_suite(target, preds, tiny_cfg(iterations=5), [0, 1])
        assert len(calls) == 14
        assert calls[::2] == calls[1::2] == [flows for _, _, flows in ABLATION_ROWS]

    def test_empty_seeds_rejected(self):
        target, preds = tiny_instance()
        with pytest.raises(InvalidArgumentError):
            run_ablation_suite(target, preds, tiny_cfg(), [])

    def test_repeated_seed_rejected(self):
        target, preds = tiny_instance()
        with pytest.raises(InvalidArgumentError, match="repeat a seed"):
            run_ablation_suite(target, preds, tiny_cfg(iterations=20), [0, 0])
