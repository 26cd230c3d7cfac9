"""Tests for the adaptation loops, baselines, traces, and the ablation grid."""

import gc
import hashlib
import math
import pickle
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bimem import adapt, blackbox, memory, model
from bimem.adapt import (
    ABLATION_ROWS,
    TRACE_HEADER,
    AdaptConfig,
    RunTrace,
    TraceRow,
    WarmupRecord,
    _select_top_fraction,
    denoise_labels,
    run,
    run_ablation_suite,
    run_bimem,
    run_confidence_st,
    run_vanilla_st,
)
from bimem.data import LabeledDataset
from bimem.errors import DataError, InvalidArgumentError
from bimem.memory import FlowConfig
from bimem.model import EpochSampler
from test_tooling import _load_bench

GOLDEN_DIR = Path(__file__).parent / "data"


def tiny_instance(seed=0, n_per_class=20, c=3, d=2, separation=4.0, rotation_deg=20.0,
                  source_epochs=20, source_hidden=8):
    scenario = blackbox.Scenario(
        n_categories=c, dim=d, n_per_class=n_per_class, class_separation=separation,
        target_shift=(1.0,) + (0.0,) * (d - 1), target_rotation_deg=rotation_deg,
        source_epochs=source_epochs, source_hidden_dim=source_hidden, seed=seed)
    source, target = scenario.generate()
    return target, blackbox.predict(scenario.train(source), target)


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
    """A config is checked when it is built, so none that breaks a rule exists."""

    def test_defaults_valid(self):
        AdaptConfig()

    def test_unknown_method(self):
        with pytest.raises(InvalidArgumentError, match="'method'"):
            AdaptConfig(method="nope")

    def test_size_ordering(self):
        with pytest.raises(InvalidArgumentError):
            AdaptConfig(top_n=64, batch_size=32)
        with pytest.raises(InvalidArgumentError):
            AdaptConfig(batch_size=512, queue_capacity=256)
        with pytest.raises(InvalidArgumentError):
            AdaptConfig(top_n=0)

    def test_top_n_defaults_to_batch_size(self):
        AdaptConfig(batch_size=16)
        target, preds = tiny_instance()
        queued = []
        run_bimem(
            target, preds, tiny_cfg(batch_size=16, top_n=None, iterations=1),
            step_hook=lambda t, state, *rest: queued.append(len(state.short_term.queue)),
        )
        assert queued == [16]

    def test_rate_ranges(self):
        for bad in (dict(lr=0.0), dict(lr=math.inf), dict(gamma=1.0), dict(gamma_prime=-0.1),
                    dict(confidence_quantile=1.5), dict(eval_interval=0),
                    dict(refresh_interval=0), dict(iterations=-1),
                    dict(warmup_iterations=-1), dict(hidden_dim=-1), dict(seed=-1)):
            with pytest.raises(InvalidArgumentError):
                AdaptConfig(**bad)

    # A valid value of every integer field; None picks the default of the last three.
    INTEGERS = dict(iterations=5, batch_size=16, queue_capacity=64, eval_interval=5, seed=7,
                    hidden_dim=4, top_n=8, refresh_interval=3, warmup_iterations=2)

    @pytest.mark.parametrize("name, value", [
        # Each built before integer fields were checked.
        ("seed", 0.5), ("iterations", 2.5), ("seed", True), ("batch_size", 8.0),
        ("eval_interval", 1.5),
        *((name, value) for name in INTEGERS for value in (1.0, False, "1")),
        *((name, None) for name in list(INTEGERS)[:6]),
    ])
    def test_integer_fields_refuse_other_types(self, name, value):
        """A bool is an Integral, and a float passes every range check."""
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer, got "):
            AdaptConfig(**{name: value})

    def test_integer_fields_take_numpy_integers_and_none(self):
        cfg = AdaptConfig(**{name: np.int64(v) for name, v in self.INTEGERS.items()})
        assert cfg == AdaptConfig(**self.INTEGERS)
        AdaptConfig(top_n=None, refresh_interval=None, warmup_iterations=None)

    # A valid value of every float field.
    FLOATS = dict(lr=0.1, gamma=0.5, gamma_prime=0.9, confidence_quantile=0.25)

    @pytest.mark.parametrize("name, value", [
        *((name, value) for name in FLOATS for value in (True, False, "0.1", None)),
        pytest.param("lr", 10**400, id="lr-past-float"),
    ])
    def test_float_fields_refuse_other_types(self, name, value):
        """A bool passes the range checks, a string used to raise a bare
        ``TypeError``, and an integer past the largest float a bare ``OverflowError``."""
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be a number, got "):
            AdaptConfig(**{name: value})

    def test_float_fields_take_integers_and_numpy_floats(self):
        assert AdaptConfig(lr=1, gamma=0, gamma_prime=0, confidence_quantile=1) == AdaptConfig(
            lr=1.0, gamma=0.0, gamma_prime=0.0, confidence_quantile=1.0)
        cfg = AdaptConfig(**{name: np.float64(v) for name, v in self.FLOATS.items()})
        assert cfg == AdaptConfig(**self.FLOATS)

    def test_a_built_config_stays_valid(self):
        """``replace`` builds a new config, so it is checked too; a field, or a
        flow of a config or of a shared ablation row, cannot be assigned after
        the check, so equal configs hash equal."""
        cfg = AdaptConfig()
        with pytest.raises(InvalidArgumentError, match="seed must be >= 0"):
            replace(cfg, seed=-1)
        with pytest.raises(FrozenInstanceError):
            cfg.seed = -1
        for flows in (cfg.flows, ABLATION_ROWS[6][2]):
            with pytest.raises(FrozenInstanceError):
                flows.sm_to_st = False
        assert cfg == AdaptConfig() and ABLATION_ROWS[6][2] == FlowConfig.all_enabled()
        assert hash(cfg) == hash(AdaptConfig())
        assert hash(replace(cfg, flows=FlowConfig.none())) == hash(
            AdaptConfig(flows=FlowConfig.none()))

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

    def test_empty_population_rejected(self):
        with pytest.raises(InvalidArgumentError, match="at least one sample"):
            EpochSampler(0, 8, np.random.default_rng(0))


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

    @pytest.mark.parametrize("data_seed, skipped", [
        # The queue covers every class one step before the long-term memory does.
        pytest.param(2, (5, 4), id="queue-first"),
        # Neither memory ever holds class 2: no step past the warm-up calibrates.
        pytest.param(3, (112, 112), id="never"),
    ])
    def test_readiness_gate_on_a_cut_class(self, data_seed, skipped):
        """With class 2 of the target cut to one row, a memory can lack a class
        past the warm-up. A step calibrates exactly when it is past the warm-up
        and a source covers every class, and each counter counts the post-warm-up
        steps on which its source lacks one."""
        full, preds = tiny_instance(seed=data_seed)
        keep = full.labels != 2
        keep[np.flatnonzero(full.labels == 2)[0]] = True
        target = LabeledDataset(full.ids[keep], full.features[keep], full.labels[keep])
        steps, states = [], []

        def hook(t, state, calibrated_probs, applied, *rest):
            queued = np.unique(state.short_term.rows.probs.argmax(axis=1)).size
            steps.append((t, applied, state.long_term.initialized.all(), queued == 3))
            states.append(state)

        run_bimem(target, preds, tiny_cfg(iterations=120, warmup_iterations=8, seed=data_seed),
                  step_hook=hook)
        assert [applied for _, applied, _, _ in steps] == [
            t > 8 and (lt_full or queue_full) for t, _, lt_full, queue_full in steps]
        post = [(lt_full, queue_full) for t, _, lt_full, queue_full in steps if t > 8]
        warnings = states[-1].warnings
        counted = (warnings.get("short_term_calibration_skipped", 0),
                   warnings.get("sensory_calibration_skipped", 0))
        assert counted == (sum(not lt for lt, _ in post),
                           sum(not (lt or queue) for lt, queue in post)) == skipped

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

    def test_labels_pass_through_without_a_forward_pass_until_calibrated(self, monkeypatch):
        """While the memories give no source, every sample's label is the
        black box's, and the momentum model does not run over the whole set."""
        target, preds = tiny_instance()
        by_hand = adapt.Run(target, preds, tiny_cfg())
        for _ in range(by_hand.warmup):
            by_hand.step()
        assert not by_hand.labeller.state.sources

        def no_forward_pass(*args):
            raise AssertionError("a forward pass")

        monkeypatch.setattr(model, "forward_batch", no_forward_pass)
        labels = by_hand.labeller.all_labels()
        assert labels is not by_hand.inputs.pred_yhat
        assert labels.tolist() == by_hand.inputs.pred_yhat.tolist()


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

    @given(c=st.integers(1, 6), n=st.integers(0, 40),
           q=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           levels=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(c=5, n=500, q=0.5, levels=1000, seed=0)
    def test_mask_matches_a_per_class_stable_sort(self, c, n, q, levels, seed):
        """Few probability levels give ties, and few rows leave classes empty."""
        rng = np.random.default_rng(seed)
        probs = rng.integers(0, levels, size=(n, c)) / levels
        labels = rng.integers(0, c, size=n)
        expected = reference_select_top_fraction(probs, labels, q)
        assert np.array_equal(_select_top_fraction(probs, labels, q), expected)


def reference_select_top_fraction(probs, labels, quantile):
    """One flatnonzero, gather and stable argsort per class, as the mask was once built."""
    mask = np.zeros(labels.shape[0], dtype=bool)
    for c in range(probs.shape[1]):
        members = np.flatnonzero(labels == c)
        k = math.ceil(quantile * members.size)
        if k == 0:
            continue
        order = members[np.argsort(-probs[members, c], kind="stable")]
        mask[order[:k]] = True
    return mask


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

    def test_numpy_scalars_round_trip(self, tmp_path):
        """An accuracy is written as the repr of a Python float, not of a numpy scalar."""
        row = TraceRow(np.int64(0), np.float64(0.5), None, np.float64(0.25), 0.5, 1.0)
        trace = RunTrace([row])
        trace.to_csv(tmp_path / "trace.csv")
        assert RunTrace.from_csv(tmp_path / "trace.csv") == trace

    def test_unknown_column_rejected(self):
        trace = RunTrace([TraceRow(0, 0.5, 0.5, 0.5, 0.5, 1.0)])
        with pytest.raises(InvalidArgumentError):
            trace.column("mIoU")

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: RunTrace([]), "trace has no data rows", id="no-row"),
        *(pytest.param(lambda value=value: TraceRow(0, 0.5, 0.5, 0.5, value, 1.0),
                       f"pl_acc_denoised {value!r} is not an accuracy", id=f"accuracy-{value}")
          for value in (math.nan, math.inf, -math.inf, 1.5, -0.25)),
        # Only a subset's accuracy is None, when the subset is empty.
        pytest.param(lambda: TraceRow(0, None, 0.5, 0.5, 0.5, 1.0), "acc_all None",
                     id="accuracy-None"),
        # ``to_csv`` would write these as 0.5 and True, which ``from_csv`` refuses.
        *(pytest.param(lambda value=value: RunTrace([TraceRow(value, 0.5, 0.5, 0.5, 0.5, 1.0)]),
                       f"iteration {value!r} is not an integer", id=f"iteration-{value}")
          for value in (0.5, 1.0, True)),
        *(pytest.param(lambda its=its: RunTrace([TraceRow(i, 0.5, 0.5, 0.5, 0.5, 1.0)
                                                 for i in its]),
                       f"iteration {its[-1]} does not follow {its[-2]}",
                       id="iterations-" + "-".join(map(str, its)))
          for its in ((0, 10, 10), (0, 10, 5))),
    ])
    def test_rules_hold_when_built(self, tmp_path, build, message):
        """A trace or row that breaks a rule its reader checks is refused when
        built, so ``to_csv`` never writes a file ``from_csv`` refuses."""
        with pytest.raises(InvalidArgumentError, match=f"^{message}"):
            build().to_csv(tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

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
        assert calls[:7] == calls[7:] == [flows for _, _, flows in ABLATION_ROWS]

    def test_empty_seeds_rejected(self):
        target, preds = tiny_instance()
        with pytest.raises(InvalidArgumentError):
            run_ablation_suite(target, preds, tiny_cfg(), [])

    def test_repeated_seed_rejected(self):
        target, preds = tiny_instance()
        with pytest.raises(InvalidArgumentError, match="repeat a seed"):
            run_ablation_suite(target, preds, tiny_cfg(iterations=20), [0, 0])

    @pytest.mark.parametrize("seeds", [
        pytest.param([0, 0.5], id="fraction"),
        pytest.param([0, -1], id="negative"),
        pytest.param([True], id="bool"),
        pytest.param([0, np.int64(0)], id="numpy-repeat"),
        pytest.param(np.arange(0), id="empty-array"),
    ])
    def test_bad_seeds_rejected_before_any_run(self, monkeypatch, seeds):
        calls = []
        monkeypatch.setattr(adapt, "run_bimem", lambda *args, **kwargs: calls.append(args))
        target, preds = tiny_instance()
        with pytest.raises(InvalidArgumentError):
            run_ablation_suite(target, preds, tiny_cfg(iterations=5), seeds)
        assert calls == []

    def test_numpy_seed_array_runs(self):
        target, preds = tiny_instance()
        cfg = tiny_cfg(iterations=10)
        rows = run_ablation_suite(target, preds, cfg, np.arange(2))
        assert rows == run_ablation_suite(target, preds, cfg, [0, 1])
        assert all(row["n_seeds"] == 2 for row in rows)

    @pytest.mark.parametrize("iterations", [40, 0])
    def test_runs_evaluate_at_their_last_iteration_only(self, monkeypatch, iterations):
        """The table reads each run's last evaluation, so every run the suite
        makes evaluates at 0 and at its last iteration only, and the rows do
        not depend on the base ``eval_interval``."""
        target, preds = tiny_instance()
        tables = []
        for eval_interval in (1, 7, 50):
            cfg = tiny_cfg(iterations=iterations, eval_interval=eval_interval)
            runs = _suite_runs(monkeypatch, target, preds, cfg)
            assert [[r.iteration for r in rows] for *_, rows, _ in runs] == (
                [sorted({0, iterations})] * 14)
            tables.append(run_ablation_suite(target, preds, cfg, [0, 1]))
        assert tables[0] == tables[1] == tables[2]


def _memory_bytes(state: memory.BiMemState) -> tuple:
    """What a step leaves in the memories: sensory and live queue rows,
    long-term centroids and coverage, the step count and the warnings."""
    rows = (*state.sensory.rows.columns, *state.short_term.rows.columns,
            state.long_term.centroids, state.long_term.initialized)
    return tuple(a.tobytes() for a in rows) + (state.steps, dict(state.warnings))


def _recording_hook(steps: list, memory_at=()):
    """A step hook that keeps every argument a test compares, as raw bytes or
    None, and the memories at the steps ``memory_at``."""
    def hook(t, state, calibrated_probs, applied, labels, student, mm):
        steps.append((t, applied, None if labels is None else labels.tobytes(),
                      None if calibrated_probs is None else calibrated_probs.tobytes(),
                      student.flat.tobytes(), mm.params.flat.tobytes(),
                      _memory_bytes(state) if t in memory_at else None))
    return hook


def _suite_runs(monkeypatch, target, preds, cfg, seeds=(0, 1), memory_at=(), hooked=True):
    """The suite's runs, each through a wrapper that injects a step hook as the
    bench's run log does, unless not ``hooked``: (cfg, warm-up record, student
    bytes, trace rows, hook steps or None)."""
    runner = adapt.run_bimem
    runs = []

    def captured(target, preds, cfg, **kwargs):
        steps = [] if hooked else None
        hook = _recording_hook(steps, memory_at) if hooked else None
        student, trace = runner(target, preds, cfg, step_hook=hook, **kwargs)
        runs.append((cfg, kwargs.get("warmup_record"), student.flat.tobytes(), trace.rows, steps))
        return student, trace

    with monkeypatch.context() as patch:
        patch.setattr(adapt, "run_bimem", captured)
        run_ablation_suite(target, preds, cfg, list(seeds))
    return runs


def _assert_runs_independent(target, preds, runs, memory_at=()):
    """Every suite run equals, byte for byte, a run of its config on its own,
    but for what its hook sees on the w warm-up steps a record replays: each
    is its ``t`` and ``applied``, no probabilities or labels, and the models
    and memories of the run at step w, where it resumes."""
    for cfg, record, student_bytes, rows, steps in runs:
        # Key (False, True), ST->LT without SM->LT, is the one row a record never resumes.
        resumed = record is not None and adapt._long_term_key(cfg.flows) != (False, True)
        w = record.run.t if resumed else 0
        alone = []
        hook = None if steps is None else _recording_hook(alone, (*memory_at, w))
        student, trace = run_bimem(target, preds, cfg, step_hook=hook)
        assert student.flat.tobytes() == student_bytes
        assert trace.rows == rows
        if steps is None:
            continue
        *models, memories = alone[w - 1][4:] if w else (None, None, None)
        replayed = [(t, applied, None, None, *models, memories if t in memory_at else None)
                    for t, applied, *_ in alone[:w]]
        assert steps == replayed + alone[w:]


class TestWarmupReplay:
    """Every row of one seed resumes from a copy of the record's warm-up run
    at its end; what each run computes is that of an independent run, and so
    is what a step hook sees, but on a replayed warm-up step: its
    ``calibrated_probs`` and ``labels`` are None, and its ``state``,
    ``student`` and ``mm`` are the resumed run's, which equal the independent
    run's at the last warm-up step."""

    def test_rows_equal_independent_runs(self, monkeypatch):
        target, preds = tiny_instance()
        runs = _suite_runs(monkeypatch, target, preds, tiny_cfg())
        assert len(runs) == 14
        _assert_runs_independent(target, preds, runs)

    def test_rows_without_a_hook_equal_independent_runs(self, monkeypatch):
        """The CLI's ``ablate`` and criterion 5 give the suite no step hook."""
        target, preds = tiny_instance()
        runs = _suite_runs(monkeypatch, target, preds, tiny_cfg(**self.FILLING), hooked=False)
        assert len(runs) == 14 and all(steps is None for *_, steps in runs)
        assert all(record.run.t == 12 for _, record, *_ in runs)
        _assert_runs_independent(target, preds, runs)

    def test_records_are_freed_with_the_suite(self, monkeypatch):
        """No reference cycle keeps a record and its run alive once the suite
        returns; the next suite call would otherwise hold them until a full
        collection."""
        target, preds = tiny_instance()
        runner, records = adapt.run_bimem, []

        def captured(target, preds, cfg, **kwargs):
            records.append(weakref.ref(kwargs["warmup_record"]))
            return runner(target, preds, cfg, **kwargs)

        monkeypatch.setattr(adapt, "run_bimem", captured)
        gc.disable()
        try:
            run_ablation_suite(target, preds, tiny_cfg(), [0, 1])
            freed = [record() is None for record in records]
        finally:
            gc.enable()
        assert freed == [True] * 14

    def test_one_record_is_alive_at_a_time(self, monkeypatch):
        """Seeds are the outer loop: a seed's record and its run are freed
        before the next seed's first row runs, with no collection."""
        target, preds = tiny_instance()
        runner, records, alive = adapt.run_bimem, [], []

        def captured(target, preds, cfg, **kwargs):
            records.append(weakref.ref(kwargs["warmup_record"]))
            alive.append(len({id(record()) for record in records if record() is not None}))
            return runner(target, preds, cfg, **kwargs)

        monkeypatch.setattr(adapt, "run_bimem", captured)
        gc.disable()
        try:
            run_ablation_suite(target, preds, tiny_cfg(), [0, 1, 2])
        finally:
            gc.enable()
        assert alive == [1] * 21

    def test_later_rows_replay_the_warmup(self, monkeypatch):
        """Seven rows of two seeds skip five warm-up steps each, SGD and EMA
        alike, which each record's run takes once, and a record holds the
        warm-up only."""
        target, preds = tiny_instance()
        calls = {"sgd_step": 0, "momentum_update": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(model, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(model, name, counted)
        runs = _suite_runs(monkeypatch, target, preds, tiny_cfg())
        assert calls == {"sgd_step": 14 * 40 - 6 * 2 * 5, "momentum_update": 14 * 40 - 6 * 2 * 5}
        records = {id(record): record for _, record, *_ in runs}
        assert len(records) == 2
        assert [record.run.t for record in records.values()] == [5, 5]

    def test_no_warmup_shares_nothing(self, monkeypatch):
        target, preds = tiny_instance()
        runs = _suite_runs(monkeypatch, target, preds, tiny_cfg(warmup_iterations=0))
        assert all(record.run.t == 0 for _, record, *_ in runs)
        _assert_runs_independent(target, preds, runs)

    def test_iterations_below_the_warmup(self, monkeypatch):
        target, preds = tiny_instance()
        runs = _suite_runs(monkeypatch, target, preds, tiny_cfg(iterations=3, eval_interval=2))
        # The record's run stops at the last iteration, and every row resumes there.
        assert all(record.run.t == 3 for _, record, *_ in runs)
        _assert_runs_independent(target, preds, runs)

    def test_a_record_for_other_runs_is_refused(self):
        target, preds = tiny_instance()
        other_target, other_preds = tiny_instance(seed=1)
        cfg = tiny_cfg(iterations=5)
        record = WarmupRecord(target, preds, cfg)
        for bad in (replace(cfg, seed=1), replace(cfg, lr=0.1), replace(cfg, iterations=6)):
            with pytest.raises(InvalidArgumentError, match="other inputs or config"):
                run_bimem(target, preds, bad, warmup_record=record)
        with pytest.raises(InvalidArgumentError, match="other inputs or config"):
            run_bimem(other_target, other_preds, cfg, warmup_record=record)
        with pytest.raises(InvalidArgumentError,
                           match="a warm-up record needs method 'bimem', got 'vanilla_st'"):
            WarmupRecord(target, preds, tiny_cfg(method="vanilla_st", iterations=5))
        assert record.run.t == 5

    # Twelve warm-up steps push 48 rows into the 16-row queue: it evicts from
    # the fifth push on and moves back to the start of its 32-row window at
    # the ninth, so every memory is full when the record restores it.
    FILLING = dict(iterations=20, warmup_iterations=12, eval_interval=5)

    @pytest.mark.parametrize("kw, warmup_steps", [
        (FILLING, 12),
        (dict(iterations=3, eval_interval=2), 3),
    ])
    def test_a_record_is_built_warm(self, monkeypatch, kw, warmup_steps):
        """Building a record takes every SGD step of its warm-up, up to the
        last iteration, and resuming a row from it takes none."""
        target, preds = tiny_instance()
        cfg, sgd_steps, real = tiny_cfg(**kw), [], model.sgd_step
        monkeypatch.setattr(model, "sgd_step", lambda *args: sgd_steps.append(1) or real(*args))
        record = WarmupRecord(target, preds, cfg)
        assert len(sgd_steps) == warmup_steps and record.run.t == warmup_steps
        for _, _, flows in ABLATION_ROWS:
            record.start(target, preds, replace(cfg, flows=flows), None)
        assert len(sgd_steps) == warmup_steps and record.run.t == warmup_steps

    def test_the_record_flows_have_no_backward_flow(self):
        """The record's run and its side memory only memorize, so no step of
        theirs can calibrate, whatever the warm-up."""
        for flows in (WarmupRecord.FORWARD, WarmupRecord.SM_TO_LT):
            assert not (flows.sm_from_st or flows.sm_from_lt or flows.st_from_lt)

    @pytest.mark.parametrize("kw, warmup_steps", [
        (FILLING, 12),
        (dict(warmup_iterations=0), 0),
        (dict(iterations=3, eval_interval=2), 3),
    ])
    def test_no_step_of_the_record_calibrates(self, monkeypatch, kw, warmup_steps):
        """Every memory step taken while the record is built, one of its run's
        and one of its SM->LT memory per warm-up step, has no source and
        applies nothing."""
        target, preds = tiny_instance()
        seen, real = [], memory.bimem_step

        def wrapped(state, *args):
            calibrated, applied = real(state, *args)
            seen.append((applied, len(state.sources)))
            return calibrated, applied

        monkeypatch.setattr(memory, "bimem_step", wrapped)
        record = WarmupRecord(target, preds, tiny_cfg(**kw))
        assert seen == [(False, 0)] * (2 * warmup_steps) and record.sm_to_lt.steps == warmup_steps

    def test_restored_memories_equal_independent_runs(self, monkeypatch):
        """Each row's memories at the warm-up's last step, the restored ones,
        and at the step after equal those of the row run on its own."""
        target, preds = tiny_instance()
        at = (12, 13)
        runs = _suite_runs(monkeypatch, target, preds, tiny_cfg(**self.FILLING), memory_at=at)
        assert [cfg.flows for cfg, *_ in runs] == [f for _ in (0, 1) for _, _, f in ABLATION_ROWS]
        _assert_runs_independent(target, preds, runs, memory_at=at)
        for cfg, *_, steps in runs:
            # The queue is full, and every row that writes the long-term memory has written it.
            _, _, _, queue_ids, _, _, _, initialized, count, warnings = steps[11][-1]
            assert len(queue_ids) == (16 * 8 if cfg.flows.sm_to_st else 0)
            assert np.frombuffer(initialized, bool).any() == cfg.flows.sm_to_lt
            assert (count, warnings) == (12, {})

    def test_a_maker_with_flows_leaves_later_rows_their_own_memories(self):
        """Rows may come in any order, the first one with every flow on: each
        resumes with the memories of its own flows only."""
        target, preds = tiny_instance()
        cfg, at = tiny_cfg(**self.FILLING), (12, 13)
        record, runs = WarmupRecord(target, preds, cfg), []
        for _, _, flows in reversed(ABLATION_ROWS):
            steps, row_cfg = [], replace(cfg, flows=flows)
            student, trace = run_bimem(target, preds, row_cfg, step_hook=_recording_hook(steps, at),
                                       warmup_record=record)
            runs.append((row_cfg, record, student.flat.tobytes(), trace.rows, steps))
        assert record.run.t == 12
        _assert_runs_independent(target, preds, runs, memory_at=at)

    def test_later_rows_restore_their_memories(self, monkeypatch):
        """Seven rows of two seeds skip their labeller on twelve warm-up steps
        and the evaluation at 0, which each record's run takes once, stepping
        the memories of SM->LT alone beside its labeller. The runs on their own
        take the configs the suite passes, which evaluate at 0 and 20 only."""
        target, preds = tiny_instance()
        cfg = tiny_cfg(**self.FILLING)
        suite_cfg = replace(cfg, eval_interval=cfg.iterations)
        calls = {"bimem_step": 0, "forward_batch": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def call(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, call)

        counted(memory, "bimem_step")
        counted(model, "forward_batch")
        for _, _, flows in ABLATION_ROWS:
            for seed in (0, 1):
                run_bimem(target, preds, replace(suite_cfg, flows=flows, seed=seed))
        alone, calls = calls, {"bimem_step": 0, "forward_batch": 0}
        runs = _suite_runs(monkeypatch, target, preds, cfg)
        assert [row_cfg for row_cfg, *_ in runs] == [
            replace(suite_cfg, flows=flows, seed=seed) for seed in (0, 1)
            for _, _, flows in ABLATION_ROWS]
        assert calls == {"bimem_step": alone["bimem_step"] - 7 * 2 * 12 + 2 * 2 * 12,
                         "forward_batch": alone["forward_batch"] - 6 * 2 * (12 + 1)}
        assert alone["bimem_step"] == 14 * 20
        records = {id(record): record for _, record, *_ in runs}.values()
        assert [(record.run.t, record.run.cfg.flows, record.sm_to_lt.steps) for record in records
                ] == [(12, WarmupRecord.FORWARD, 12)] * 2

    def test_the_record_keeps_no_steps(self):
        """A record holds its inputs, its config, its warm-up run, which takes
        no step hook, and the SM->LT memories, and nothing per warm-up step."""
        target, preds = tiny_instance()
        record = WarmupRecord(target, preds, tiny_cfg(**self.FILLING))
        assert set(vars(record)) == {"target", "preds", "cfg", "run", "sm_to_lt"}
        assert record.run.step_hook is None and record.run.t == 12

    def test_every_row_passes_the_bench_warmup_check(self, monkeypatch):
        """The benchmark's ``check_warmup`` holds of every row of the suite: its
        hook sees t = 1..iterations in order, none calibrated up to the warm-up."""
        checks = _load_bench(monkeypatch, "checks")
        target, preds = tiny_instance()
        cfg = tiny_cfg(**self.FILLING)
        runs, result = _suite_runs(monkeypatch, target, preds, cfg), checks.Checks()
        for row_cfg, *_, steps in runs:
            assert [t for t, *_ in steps] == list(range(1, cfg.iterations + 1))
            assert not any(applied for _, applied, *_ in steps[:cfg.warmup_iterations])
            checks.check_warmup(result, f"{row_cfg.flows}", [step[:2] for step in steps],
                                cfg.iterations, cfg.warmup_iterations)
        assert len(runs) == 14 and result.failures == [] and result.passed == 2 * 14

    def test_every_row_passes_the_bench_run_check(self, monkeypatch):
        """The benchmark's ``check_run`` holds of every row of the suite, on
        its trace of two rows: the student's own forward pass gives the final
        accuracy, the black-box column is recomputed, and the partition
        identity holds."""
        checks = _load_bench(monkeypatch, "checks")
        target, preds = tiny_instance()
        runner, result, traces = adapt.run_bimem, checks.Checks(), []

        def checked(target, preds, cfg, **kwargs):
            student, trace = runner(target, preds, cfg, **kwargs)
            checks.check_run(result, f"seed {cfg.seed} {cfg.flows}", target, preds, student, trace)
            traces.append(trace)
            return student, trace

        monkeypatch.setattr(adapt, "run_bimem", checked)
        run_ablation_suite(target, preds, tiny_cfg(**self.FILLING), [0, 1])
        assert [len(trace.rows) for trace in traces] == [2] * 14
        assert result.failures == [] and result.passed == 3 * 14

    def test_a_row_no_memory_holds_runs_on_its_own(self, monkeypatch):
        """ST->LT without SM->LT writes a long-term memory that the record does
        not keep: that row takes every step itself."""
        target, preds = tiny_instance()
        cfg, at = tiny_cfg(**self.FILLING), (12, 13)
        record = WarmupRecord(target, preds, cfg)
        sgd_steps, real = [], model.sgd_step
        monkeypatch.setattr(model, "sgd_step", lambda *args: sgd_steps.append(1) or real(*args))
        steps, row_cfg = [], replace(cfg, flows=FlowConfig(True, False, True, True, True, True))
        student, trace = run_bimem(target, preds, row_cfg, step_hook=_recording_hook(steps, at),
                                   warmup_record=record)
        assert len(sgd_steps) == 20 and record.run.t == 12
        _assert_runs_independent(target, preds, [(row_cfg, record, student.flat.tobytes(),
                                                  trace.rows, steps)], memory_at=at)

    def test_a_pickled_record_resumes_every_row(self):
        """A record sent by pickle as it is built resumes each row as the
        record itself would."""
        target, preds = tiny_instance()
        cfg, at = tiny_cfg(**self.FILLING), (12, 13)
        record = WarmupRecord(target, preds, cfg)
        sent_target, sent_preds, sent = pickle.loads(pickle.dumps((target, preds, record)))
        runs = []
        for _, _, flows in ABLATION_ROWS:
            steps, row_cfg = [], replace(cfg, flows=flows)
            student, trace = run_bimem(sent_target, sent_preds, row_cfg,
                                       step_hook=_recording_hook(steps, at), warmup_record=sent)
            runs.append((row_cfg, sent, student.flat.tobytes(), trace.rows, steps))
        assert sent.run.t == 12
        _assert_runs_independent(target, preds, runs, memory_at=at)
