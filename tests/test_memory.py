"""Unit, example, and property tests for the three memories and their flows."""

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from bimem import numerics
from bimem.errors import InvalidArgumentError
from bimem.memory import (
    BiMemState,
    FlowConfig,
    LongTermCentroids,
    Rows,
    SensoryMemory,
    ShortTermMemory,
    bimem_step,
    calibrate_short_term,
    centroid_weights,
    compute_centroids,
    long_term_consolidate,
    select_hard,
    sensory_calibration_probs,
    short_term_summary,
)


def rows(spec):
    """Rows from ``(sample_id, feature, prob)`` triples."""
    ids, features, probs = zip(*spec)
    return Rows(np.array(ids), np.array(features, dtype=float), np.array(probs, dtype=float))


def random_rows(rng, n, c=3, d=2, start_id=0):
    spec = []
    for i in range(n):
        raw = rng.random(c) + 1e-3
        spec.append((start_id + i, rng.normal(size=d), raw / raw.sum()))
    return rows(spec)


def refresh(mem, batch):
    return mem.refresh(batch.ids, batch.features, batch.probs)


def run_step(state, batch, flows):
    return bimem_step(state, batch.ids, batch.features, batch.probs, flows)


class TestSensoryRefresh:
    def test_first_iteration_evicts_nothing(self):
        mem = SensoryMemory(feature_dim=2, n_categories=2)
        batch = rows([(i, [float(i), 0.0], [0.5, 0.5]) for i in range(4)])
        assert len(refresh(mem, batch)) == 0
        assert len(mem.slots) == 4

    def test_swap_semantics(self):
        mem = SensoryMemory(feature_dim=1, n_categories=2)
        a = rows([(0, [1.0], [1.0, 0.0])])
        b = rows([(1, [2.0], [0.0, 1.0])])
        refresh(mem, a)
        evicted = refresh(mem, b)
        assert evicted.ids.tolist() == [0] and evicted.probs.tolist() == [[1.0, 0.0]]
        assert [(s.sample_id, s.prob.tolist()) for s in mem.slots] == [(1, [0.0, 1.0])]

    def test_empty_batch_rejected(self):
        mem = SensoryMemory(feature_dim=1, n_categories=2)
        with pytest.raises(InvalidArgumentError):
            mem.refresh(np.zeros(0, dtype=int), np.zeros((0, 1)), np.zeros((0, 2)))

    def test_dimension_mismatch_rejected(self):
        """Wrong shapes and rows off the simplex are both rejected at the batch boundary."""
        mem = SensoryMemory(feature_dim=2, n_categories=2)
        feature = [[1.0, 0.0]]
        for ids, features, probs in [
            ([0], [[1.0]], [[0.5, 0.5]]),  # feature dimension
            ([0, 1], feature, [[0.5, 0.5]]),  # ids longer than the rows
            ([0], feature, [[0.6, 0.6]]),  # off the simplex
            ([0], feature, [[1.5, -0.5]]),  # negative probability
            ([0], feature, [[np.nan, 1.0]]),  # NaN probability
        ]:
            with pytest.raises(InvalidArgumentError):
                mem.refresh(np.array(ids), np.array(features), np.array(probs))
        assert len(mem.slots) == 0


class TestSelectHard:
    def test_uniform_maximizes_entropy(self):
        mem = SensoryMemory(1, 2)
        refresh(mem, rows([(0, [0.0], [0.9, 0.1]), (1, [0.0], [0.5, 0.5]), (2, [0.0], [0.7, 0.3])]))
        picked = select_hard(mem, 1)
        assert picked.ids.tolist() == [1]

    def test_all_slots_entropy_sorted(self):
        mem = SensoryMemory(1, 2)
        refresh(mem, rows([(0, [0.0], [0.9, 0.1]), (1, [0.0], [0.5, 0.5]), (2, [0.0], [0.7, 0.3])]))
        picked = select_hard(mem, 3)
        assert picked.ids.tolist() == [1, 2, 0]

    def test_tie_breaks_to_lower_sample_id(self):
        mem = SensoryMemory(1, 2)
        refresh(mem, rows([(5, [0.0], [0.6, 0.4]), (2, [1.0], [0.6, 0.4])]))
        assert select_hard(mem, 1).ids.tolist() == [2]

    def test_out_of_range_rejected(self):
        mem = SensoryMemory(1, 2)
        refresh(mem, rows([(0, [0.0], [0.5, 0.5])]))
        with pytest.raises(InvalidArgumentError):
            select_hard(mem, 0)
        with pytest.raises(InvalidArgumentError):
            select_hard(mem, 2)


class TestShortTermQueue:
    def test_fifo_eviction(self):
        st = ShortTermMemory(capacity=3, feature_dim=1, n_categories=2)
        st.push(rows([(i, [float(i)], [0.5, 0.5]) for i in range(3)]))
        evicted = st.push(rows([(3, [3.0], [0.5, 0.5])]))
        assert evicted.ids.tolist() == [0]
        assert [s.sample_id for s in st.queue] == [1, 2, 3]

    def test_warmup_no_eviction_until_full(self):
        st = ShortTermMemory(capacity=3, feature_dim=1, n_categories=2)
        st.push(rows([(0, [0.0], [0.5, 0.5])]))
        evicted = st.push(rows([(1, [1.0], [0.5, 0.5]), (2, [2.0], [0.5, 0.5])]))
        assert len(evicted) == 0
        assert len(st.queue) == 3

    def test_multi_eviction_order(self):
        st = ShortTermMemory(capacity=3, feature_dim=1, n_categories=2)
        st.push(rows([(i, [float(i)], [0.5, 0.5]) for i in range(3)]))
        evicted = st.push(rows([(3, [3.0], [0.5, 0.5]), (4, [4.0], [0.5, 0.5])]))
        assert evicted.ids.tolist() == [0, 1]

    def test_oversized_push_rejected(self):
        st = ShortTermMemory(capacity=1, feature_dim=1, n_categories=2)
        with pytest.raises(InvalidArgumentError):
            st.push(rows([(0, [0.0], [0.5, 0.5]), (1, [1.0], [0.5, 0.5])]))

    @pytest.mark.parametrize("capacity", range(1, 9))
    def test_window_matches_list_fifo(self, capacity):
        """Kept and evicted rows equal a list FIFO's over many window compactions."""
        rng = np.random.default_rng(capacity)
        for top_n in range(1, capacity + 1):
            st = ShortTermMemory(capacity, feature_dim=2, n_categories=3)
            fifo, next_id = [], 0
            # Full pushes, then pushes of any size up to top_n, empty ones included.
            sizes = [top_n] * (4 * capacity + 2) + rng.integers(0, top_n + 1, 3 * capacity).tolist()
            for size in sizes:
                batch = random_rows(rng, size, start_id=next_id) if size else Rows.empty(2, 3)
                next_id += size
                evicted = st.push(batch)
                fifo.extend(zip(batch.ids, batch.features, batch.probs))
                expected_evicted = fifo[:max(len(fifo) - capacity, 0)]
                del fifo[:len(expected_evicted)]
                for got, want in ((evicted, expected_evicted), (st.rows, fifo)):
                    ids, features, probs = zip(*want) if want else ((), (), ())
                    assert got.ids.tolist() == list(ids)
                    assert np.array_equal(got.features, np.reshape(features, (-1, 2)))
                    assert np.array_equal(got.probs, np.reshape(probs, (-1, 3)))
                assert st.rows.features.flags.c_contiguous

    def test_evicted_rows_are_not_changed_by_later_pushes_or_calibration(self):
        rng = np.random.default_rng(5)
        st = ShortTermMemory(capacity=4, feature_dim=2, n_categories=3)
        st.push(random_rows(rng, 4))
        evicted = st.push(random_rows(rng, 3, start_id=4))
        kept = [column.copy() for column in evicted.columns]
        for step in range(12):
            st.push(random_rows(rng, 3, start_id=7 + 3 * step))
            calibrate_short_term(st, rng.normal(size=(3, 2)), {})
        assert all(np.array_equal(a, b) for a, b in zip(evicted.columns, kept))

    @pytest.mark.parametrize("duplicate", [
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(lambda st: pickle.loads(pickle.dumps(st)), id="pickle"),
    ])
    def test_a_copy_calibrates_and_pushes_as_the_original(self, duplicate):
        """A copy's ``rows`` view its own window, so a calibration before the
        next push reaches the rows that push keeps; the original stays as it was."""
        rng = np.random.default_rng(8)
        st = ShortTermMemory(capacity=4, feature_dim=2, n_categories=3)
        for start in range(0, 12, 3):  # front 3 of a window of 8, past one compaction
            st.push(random_rows(rng, 3, start_id=start))
        centroids, incoming = rng.normal(size=(3, 2)), random_rows(rng, 3, start_id=12)

        def calibrated_push(queue):
            calibrate_short_term(queue, centroids, {})
            evicted = queue.push(incoming)
            return [column.tobytes() for rows in (evicted, queue.rows) for column in rows.columns]

        before = [column.copy() for column in st.rows.columns]
        twin = duplicate(st)
        assert (twin._front, len(twin.rows)) == (st._front, len(st.rows)) == (3, 4)
        assert np.shares_memory(twin.rows.probs, twin._window.probs)
        assert not np.shares_memory(twin._window.probs, st._window.probs)
        got = calibrated_push(twin)
        assert all(np.array_equal(a, b) for a, b in zip(st.rows.columns, before))
        assert got == calibrated_push(st)

    def test_push_into_full_large_queue_allocates_its_rows_only(self):
        """One push into a full queue of 1024 rows allocates O(top_n) bytes, not O(capacity),
        on every push of a whole compaction cycle."""
        capacity, top_n, dim, n_categories = 1024, 32, 32, 20
        rng = np.random.default_rng(6)
        st = ShortTermMemory(capacity, dim, n_categories)
        batches = [random_rows(rng, top_n, c=n_categories, d=dim, start_id=top_n * i)
                   for i in range(3 * capacity // top_n)]
        for batch in batches[:capacity // top_n + 1]:
            st.push(batch)
        row_bytes = 8 * (1 + dim + n_categories)
        peaks = []
        for batch in batches[capacity // top_n + 1:]:
            tracemalloc.start()
            try:
                st.push(batch)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert len(st.rows) == capacity
        assert max(peaks) < 2 * top_n * row_bytes < capacity * row_bytes / 8

    def test_enqueued_minus_evicted_equals_queue_length(self):
        rng = np.random.default_rng(0)
        st = ShortTermMemory(capacity=7, feature_dim=2, n_categories=3)
        pushed = evicted_total = 0
        sid = 0
        for _ in range(50):
            n = int(rng.integers(1, 5))
            batch = random_rows(rng, n, start_id=sid)
            sid += n
            evicted = st.push(batch)
            pushed += n
            evicted_total += len(evicted)
            assert len(st.queue) <= st.capacity
            assert pushed - evicted_total == len(st.queue)


class TestComputeCentroids:
    def test_arithmetic_mean(self):
        batch = rows([
            (0, [1.0, 0.0], [0.9, 0.1]),
            (1, [3.0, 0.0], [0.8, 0.2]),
            (2, [0.0, 2.0], [0.1, 0.9]),
        ])
        centroids, counts = compute_centroids(batch.features, batch.probs, 2)
        np.testing.assert_allclose(centroids[0], [2.0, 0.0])
        np.testing.assert_allclose(centroids[1], [0.0, 2.0])
        assert counts.tolist() == [2, 1]

    def test_single_slot(self):
        centroids, counts = compute_centroids(np.array([[1.5]]), np.array([[0.2, 0.8]]), 2)
        np.testing.assert_allclose(centroids[1], [1.5])
        assert counts.tolist() == [0, 1]

    def test_empty_class_flagged_absent(self):
        centroids, counts = compute_centroids(np.array([[1.0]]), np.array([[0.9, 0.1, 0.0]]), 3)
        assert counts[2] == 0
        np.testing.assert_array_equal(centroids[2], [0.0])

    def test_empty_slots_rejected(self):
        with pytest.raises(InvalidArgumentError):
            compute_centroids(np.zeros((0, 1)), np.zeros((0, 2)), 2)

    def test_permutation_invariance_and_convex_hull(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            batch = random_rows(rng, 12, c=3, d=4)
            features = batch.features
            c1, n1 = compute_centroids(features, batch.probs, 3)
            perm = rng.permutation(12)
            c2, n2 = compute_centroids(features[perm], batch.probs[perm], 3)
            np.testing.assert_allclose(c1, c2, atol=1e-12)
            assert n1.tolist() == n2.tolist()
            labels = batch.probs.argmax(axis=1)
            for c in range(3):
                if n1[c] == 0:
                    continue
                group = features[labels == c]
                assert np.all(c1[c] >= group.min(axis=0) - 1e-12)
                assert np.all(c1[c] <= group.max(axis=0) + 1e-12)


class TestLongTermConsolidate:
    def test_midpoint(self):
        lt = LongTermCentroids(1, 2, momentum=0.5)
        lt.centroids[0] = [1.0, 1.0]
        lt.initialized[0] = True
        lt.consolidate(np.array([[3.0, 3.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(lt.centroids[0], [2.0, 2.0])

    def test_first_write_sets_flag(self):
        lt = LongTermCentroids(2, 1, momentum=0.5)
        lt.consolidate(np.array([[5.0]]), np.array([[1.0, 0.0]]))
        assert lt.initialized[0]
        assert not lt.initialized[1]
        np.testing.assert_allclose(lt.centroids[0], [5.0])

    @pytest.mark.parametrize("momentum", [-0.1, 1.0])
    def test_momentum_out_of_range_rejected(self, momentum):
        with pytest.raises(InvalidArgumentError, match="momentum must be in"):
            LongTermCentroids(1, 1, momentum=momentum)

    def test_momentum_weights_old_value(self):
        # 0.1 * 10 + 0.9 * 0 = 1.0
        lt = LongTermCentroids(1, 1, momentum=0.9)
        lt.centroids[0] = [0.0]
        lt.initialized[0] = True
        lt.consolidate(np.array([[10.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(lt.centroids[0], [1.0], atol=1e-12)

    def test_flow_gating(self):
        lt = LongTermCentroids(2, 1, momentum=0.5)
        sens = rows([(0, [1.0], [1.0, 0.0])])
        short = rows([(1, [2.0], [0.0, 1.0])])
        long_term_consolidate(lt, sens, short, FlowConfig(sm_to_lt=True, st_to_lt=False))
        assert lt.initialized[0] and not lt.initialized[1]
        long_term_consolidate(lt, sens, short, FlowConfig(sm_to_lt=False, st_to_lt=True))
        assert lt.initialized[1]

    def test_empty_contributors_noop(self):
        lt = LongTermCentroids(2, 1, momentum=0.5)
        long_term_consolidate(lt, Rows.empty(1, 2), Rows.empty(1, 2), FlowConfig.all_enabled())
        assert not lt.initialized.any()

    def test_update_is_componentwise_convex_combination(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            momentum = float(rng.uniform(0, 0.999))
            lt = LongTermCentroids(2, 3, momentum=momentum)
            lt.centroids[:] = rng.normal(size=(2, 3))
            lt.initialized[:] = True
            old = lt.centroids.copy()
            contributors = random_rows(rng, 6, c=2, d=3)
            fresh, counts = compute_centroids(contributors.features, contributors.probs, 2)
            lt.consolidate(contributors.features, contributors.probs)
            for c in range(2):
                if counts[c] == 0:
                    np.testing.assert_array_equal(lt.centroids[c], old[c])
                    continue
                lo = np.minimum(old[c], fresh[c]) - 1e-12
                hi = np.maximum(old[c], fresh[c]) + 1e-12
                assert np.all(lt.centroids[c] >= lo) and np.all(lt.centroids[c] <= hi)


class TestCalibrateShortTerm:
    def test_uniform_prob_passes_weights_through(self):
        # softmax(-1, -2) by independent computation
        st = ShortTermMemory(capacity=4, feature_dim=1, n_categories=2)
        st.push(rows([(0, [1.0], [0.5, 0.5])]))
        calibrate_short_term(st, np.array([[0.0], [3.0]]), {})
        np.testing.assert_allclose(
            st.queue[0].prob, [0.7310585786300049, 0.2689414213699951], atol=1e-12
        )

    def test_on_centroid_weight_dominates_with_gap(self):
        weights = centroid_weights(np.array([[0.0]]), np.array([[0.0], [3.0]]))
        assert weights[0, 0] >= 0.9525741268224334 - 1e-12

    def test_equidistant_prob_unchanged(self):
        st = ShortTermMemory(capacity=4, feature_dim=1, n_categories=2)
        st.push(rows([(0, [1.5], [0.3, 0.7])]))
        calibrate_short_term(st, np.array([[0.0], [3.0]]), {})
        np.testing.assert_allclose(st.queue[0].prob, [0.3, 0.7], atol=1e-12)

    def test_no_initialized_centroid_skips_with_warning(self):
        state = make_state(capacity=4)
        state.short_term.push(rows([(0, [1.0], [0.4, 0.6])]))
        state.steps = 1
        flows = FlowConfig.all_enabled()
        assert state.backward_sources(flows) == []
        np.testing.assert_array_equal(state.short_term.queue[0].prob, [0.4, 0.6])
        assert state.warnings["short_term_calibration_skipped"] == 1
        # One category short of full coverage still skips.
        state.long_term.initialized[0] = True
        assert state.backward_sources(flows) == []
        np.testing.assert_array_equal(state.short_term.queue[0].prob, [0.4, 0.6])
        assert state.warnings["short_term_calibration_skipped"] == 2

    def test_degenerate_product_falls_back_to_uniform(self):
        st = ShortTermMemory(capacity=4, feature_dim=1, n_categories=2)
        st.push(rows([(0, [0.0], [0.0, 1.0])]))
        # exp(-800) underflows: weight 0 where the prob mass is.
        warnings = {}
        calibrate_short_term(st, np.array([[0.0], [800.0]]), warnings)
        np.testing.assert_allclose(st.queue[0].prob, [0.5, 0.5])
        assert warnings["degenerate_reweight"] == 1

    def test_weight_rows_sum_to_one_over_initialized(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            c, d = rng.integers(1, 7), 3
            features = rng.normal(size=(8, d))
            weights = centroid_weights(features, rng.normal(size=(c, d)))
            assert weights.shape == (8, c) and np.all(weights >= 0.0)
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)


class TestCalibrateSensory:
    def _lt(self, centroids):
        lt = LongTermCentroids(len(centroids), len(centroids[0]), momentum=0.5)
        lt.centroids[:] = centroids
        lt.initialized[:] = True
        return lt

    def test_summed_distance_scores(self):
        # scores (0, -4) -> softmax by independent computation
        centroids = np.array([[0.0], [2.0]])
        probs, applied = sensory_calibration_probs(
            np.array([[0.0]]), np.array([[0.5, 0.5]]), [centroids, centroids.copy()]
        )
        assert applied
        np.testing.assert_allclose(
            probs[0], [0.9820137900379085, 0.017986209962091555], atol=1e-12
        )

    def test_equidistant_gives_uniform(self):
        centroids = np.array([[-1.0], [1.0]])
        probs, applied = sensory_calibration_probs(
            np.array([[0.0]]), np.array([[0.9, 0.1]]), [centroids, centroids.copy()]
        )
        assert applied
        np.testing.assert_allclose(probs[0], [0.5, 0.5], atol=1e-12)

    def test_disabled_backward_flows_identity(self):
        state = make_state()
        state.long_term = self._lt([[0.0], [2.0]])
        state.steps = 1
        original = np.array([[0.3, 0.7]])
        flows = FlowConfig(sm_from_lt=False, sm_from_st=False)
        sources = state.backward_sources(flows)
        probs, applied = sensory_calibration_probs(np.array([[0.0]]), original, sources)
        assert not applied
        np.testing.assert_array_equal(probs, original)
        assert state.warnings == {}

    def test_no_present_centroid_warns_and_passes_through(self):
        # Past a zero warm-up, the first step has no long-term centroid and a
        # one-category queue.
        state = make_state()
        original = np.array([[0.3, 0.7]])
        probs, applied = run_step(state, rows([(0, [0.0], [0.3, 0.7])]), FlowConfig.all_enabled())
        assert not applied and state.sources == []
        np.testing.assert_array_equal(probs, original)
        assert state.warnings["sensory_calibration_skipped"] == 1
        # An evaluation calibrates from the step's sources but counts nothing.
        probs, applied = sensory_calibration_probs(np.array([[0.0]]), original, state.sources)
        assert not applied
        np.testing.assert_array_equal(probs, original)
        assert state.warnings["sensory_calibration_skipped"] == 1

    def test_buffer_op_writes_calibrated_probs_back(self):
        # scores (0, -2) -> softmax by independent computation
        state = make_state()
        state.long_term = self._lt([[0.0], [2.0]])
        flows = FlowConfig(False, False, False, False, True, False)  # SM<-LT only
        probs, applied = run_step(state, rows([(0, [0.0], [0.5, 0.5]), (1, [2.0], [0.9, 0.1])]), flows)
        assert applied
        np.testing.assert_allclose(
            probs[0], [0.8807970779778823, 0.11920292202211755], atol=1e-12
        )
        for s, row in zip(state.sensory.slots, probs):
            np.testing.assert_array_equal(s.prob, row)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            c, d, n = 4, 3, 6
            features = rng.normal(size=(n, d))
            raw = rng.random((n, c)) + 1e-3
            probs = raw / raw.sum(axis=1, keepdims=True)
            lt_centroids = rng.normal(size=(c, d))
            st_centroids = rng.normal(size=(c, d))
            shift = rng.normal(size=d) * 5
            base, _ = sensory_calibration_probs(features, probs, [lt_centroids, st_centroids])
            moved, _ = sensory_calibration_probs(
                features + shift, probs, [lt_centroids + shift, st_centroids + shift]
            )
            np.testing.assert_allclose(base, moved, atol=1e-9)


def make_state(c=2, d=1, capacity=3, top_n=2, momentum=0.5, warmup=0):
    return BiMemState.create(
        n_categories=c,
        feature_dim=d,
        queue_capacity=capacity,
        top_n=top_n,
        centroid_momentum=momentum,
        warmup=warmup,
    )


BATCH_ONE = [
    (0, 0.0, (0.9, 0.1)),
    (1, 1.0, (0.5, 0.5)),
    (2, 2.0, (0.3, 0.7)),
    (3, 3.0, (0.6, 0.4)),
]
BATCH_TWO = [
    (4, 0.5, (0.8, 0.2)),
    (5, 2.5, (0.2, 0.8)),
    (6, 1.5, (0.45, 0.55)),
    (7, 3.5, (0.7, 0.3)),
]


def as_rows(spec_rows):
    return rows([(sid, [f], list(p)) for sid, f, p in spec_rows])


class TestBimemStep:
    @pytest.mark.parametrize("sizes, message", [
        (dict(top_n=0), "top_n must be >= 1"),
        (dict(capacity=3, top_n=4), "queue capacity 3 smaller than top_n 4"),
        (dict(warmup=-1), "warmup must be >= 0"),
    ])
    def test_create_rejects_bad_sizes(self, sizes, message):
        with pytest.raises(InvalidArgumentError, match=message):
            make_state(**sizes)

    def test_all_flows_off_is_identity_on_memories_and_probs(self):
        state = make_state()
        batch = as_rows(BATCH_ONE)
        probs, applied = run_step(state, batch, FlowConfig.none())
        assert not applied
        np.testing.assert_array_equal(probs, np.array([p for _, _, p in BATCH_ONE]))
        assert state.short_term.queue == []
        assert not state.long_term.initialized.any()
        assert [s.sample_id for s in state.sensory.slots] == [0, 1, 2, 3]

    def test_first_iteration_warmup_trace(self):
        state = make_state(capacity=8, top_n=2)
        run_step(state, as_rows(BATCH_ONE), FlowConfig.all_enabled())
        # Top-2 entropies: id 1 (uniform), then id 3.
        assert [s.sample_id for s in state.short_term.queue] == [1, 3]
        # Nothing evicted yet, so long-term is still empty.
        assert not state.long_term.initialized.any()
        run_step(state, as_rows(BATCH_TWO), FlowConfig.all_enabled())
        # Second step consolidates the evicted sensory batch only (queue has
        # not reached capacity).
        assert state.long_term.initialized.all()
        batch_one = as_rows(BATCH_ONE)
        expected, _ = compute_centroids(batch_one.features, batch_one.probs, 2)
        np.testing.assert_allclose(state.long_term.centroids, expected, atol=1e-12)

    def test_two_scripted_iterations_match_straight_line_reference(self):
        state = make_state(capacity=3, top_n=2, momentum=0.5, warmup=0)
        flows = FlowConfig.all_enabled()
        run_step(state, as_rows(BATCH_ONE), flows)
        probs, applied = run_step(state, as_rows(BATCH_TWO), flows)
        assert applied

        ref = _straight_line_two_steps()
        assert [s.sample_id for s in state.short_term.queue] == ref["queue_ids"]
        for got, want in zip(state.short_term.queue, ref["queue_probs"]):
            np.testing.assert_allclose(got.prob, want, atol=1e-10)
        np.testing.assert_allclose(state.long_term.centroids, ref["lt_centroids"], atol=1e-10)
        assert state.long_term.initialized.all()
        np.testing.assert_allclose(probs, ref["sensory_probs"], atol=1e-10)

    def test_determinism_bit_identical_states(self, memory_state_bytes):
        def run():
            state = make_state(c=3, d=2, capacity=5, top_n=2)
            rng = np.random.default_rng(42)
            for step in range(6):
                batch = random_rows(rng, 4, c=3, d=2, start_id=step * 4)
                run_step(state, batch, FlowConfig.all_enabled())
            return memory_state_bytes(state)

        assert run() == run()

    def test_evaluation_reads_the_steps_sources(self, memory_state_bytes):
        """Calibrating the step's batch from ``state.sources`` reproduces the
        step's output bit for bit and changes no memory."""
        rng = np.random.default_rng(7)
        state = make_state(c=3, d=2, capacity=8, top_n=4, warmup=2)
        for step in range(12):
            batch = random_rows(rng, 6, c=3, d=2, start_id=6 * step)
            probs, applied = run_step(state, batch, FlowConfig.all_enabled())
        assert applied and len(state.sources) == 2
        before = memory_state_bytes(state)
        again, applied = sensory_calibration_probs(batch.features, batch.probs, state.sources)
        assert applied and again.tobytes() == probs.tobytes()
        assert state.sources[-1].tobytes() == short_term_summary(state.short_term, 3).tobytes()
        assert memory_state_bytes(state) == before

    def test_prob_validity_preserved_after_every_flow(self):
        rng = np.random.default_rng(5)
        state = make_state(c=3, d=2, capacity=6, top_n=2)
        for step in range(30):
            batch = random_rows(rng, 4, c=3, d=2, start_id=step * 4)
            probs, _ = run_step(state, batch, FlowConfig.all_enabled())
            for row in probs:
                numerics.check_prob_vector(row)
            for s in state.sensory.slots + state.short_term.queue:
                numerics.check_prob_vector(s.prob)

    def test_warmup_defers_backward_calibration(self):
        state = make_state(capacity=8, top_n=2, warmup=3)
        flows = FlowConfig.all_enabled()
        for i, batch in enumerate([BATCH_ONE, BATCH_TWO, BATCH_ONE]):
            shifted = [(sid + 10 * i, f, p) for sid, f, p in batch]
            probs, applied = run_step(state, as_rows(shifted), flows)
            assert not applied
            np.testing.assert_array_equal(probs, [p for _, _, p in shifted])
        assert state.long_term.initialized.all()
        _, applied = run_step(state, as_rows(BATCH_TWO), flows)
        assert applied

    def test_warmup_steps_are_not_counted_as_skips(self):
        flows = FlowConfig.all_enabled()
        state = make_state(capacity=8, top_n=2, warmup=3)
        for i, batch in enumerate([BATCH_ONE, BATCH_TWO, BATCH_ONE]):
            run_step(state, as_rows([(sid + 10 * i, f, p) for sid, f, p in batch]), flows)
        assert state.warnings == {}
        # Without a warm-up the first step has no long-term source yet: a skip.
        state = make_state(capacity=8, top_n=2, warmup=0)
        _, applied = run_step(state, as_rows(BATCH_ONE), flows)
        assert not applied
        assert state.warnings == {"short_term_calibration_skipped": 1, "sensory_calibration_skipped": 1}


def _softmax2(a, b):
    m = max(a, b)
    ea, eb = math.exp(a - m), math.exp(b - m)
    return ea / (ea + eb), eb / (ea + eb)


def _straight_line_two_steps():
    """Plain-float replay of the two scripted steps, independent of the module."""
    # Step 1: queue takes the two highest-entropy slots of batch one (ids 1, 3);
    # nothing has been evicted, so long-term memory stays empty and the batch
    # probabilities pass through.
    queue = [(1, 1.0, (0.5, 0.5)), (3, 3.0, (0.6, 0.4))]

    # Step 2: sensory eviction of batch one; queue takes ids 6, 7 (entropies
    # 0.688, 0.611) and evicts id 1; consolidation pools the four evicted
    # sensory slots and the evicted queue slot.
    queue = queue + [(6, 1.5, (0.45, 0.55)), (7, 3.5, (0.7, 0.3))]
    evicted_queue = queue[0]
    queue = queue[1:]
    contributors = [
        (0.0, (0.9, 0.1)),
        (1.0, (0.5, 0.5)),
        (2.0, (0.3, 0.7)),
        (3.0, (0.6, 0.4)),
        (evicted_queue[1], evicted_queue[2]),
    ]
    class0 = [f for f, p in contributors if p[0] >= p[1]]
    class1 = [f for f, p in contributors if p[0] < p[1]]
    lt = [sum(class0) / len(class0), sum(class1) / len(class1)]

    # Queue calibration by long-term distances (momentum untouched: first write).
    new_queue_probs = []
    for _, f, p in queue:
        w = _softmax2(-abs(f - lt[0]), -abs(f - lt[1]))
        raw = (p[0] * w[0], p[1] * w[1])
        total = raw[0] + raw[1]
        new_queue_probs.append((raw[0] / total, raw[1] / total))

    # Queue centroids from the calibrated labels.
    st0 = [f for (_, f, _), p in zip(queue, new_queue_probs) if p[0] >= p[1]]
    st1 = [f for (_, f, _), p in zip(queue, new_queue_probs) if p[0] < p[1]]
    st = [
        sum(st0) / len(st0) if st0 else 0.0,
        sum(st1) / len(st1) if st1 else 0.0,
    ]
    st_present = [bool(st0), bool(st1)]

    # Sensory calibration: both sources cover both categories in this script.
    assert all(st_present)
    sensory = []
    for _, f, _ in BATCH_TWO:
        s0 = -abs(f - lt[0]) - abs(f - st[0])
        s1 = -abs(f - lt[1]) - abs(f - st[1])
        sensory.append(_softmax2(s0, s1))

    return {
        "queue_ids": [sid for sid, _, _ in queue],
        "queue_probs": new_queue_probs,
        "lt_centroids": [[lt[0]], [lt[1]]],
        "sensory_probs": sensory,
    }


class TestShortTermSummary:
    def test_empty_queue_all_absent(self):
        st = ShortTermMemory(capacity=3, feature_dim=2, n_categories=3)
        assert short_term_summary(st, 3) is None

    def test_partial_queue_is_none_full_queue_gives_centroids(self):
        st = ShortTermMemory(capacity=3, feature_dim=1, n_categories=2)
        st.push(rows([(0, [1.0], [0.9, 0.1]), (1, [3.0], [0.8, 0.2])]))
        assert short_term_summary(st, 2) is None
        st.push(rows([(2, [5.0], [0.1, 0.9])]))
        np.testing.assert_array_equal(short_term_summary(st, 2), [[2.0], [5.0]])
