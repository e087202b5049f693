"""Unit tests for joint multi-lead CS recovery (the Fig. 5 ML curve)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import (
    CsDecoder,
    CsEncoder,
    JointCsDecoder,
    MultiLeadCsEncoder,
    group_fista,
    group_fista_batch,
    group_soft_threshold,
    reconstruction_snr_db,
    row_stable_matmul,
)
from repro.compression.multilead import _group_shrink_update


class TestGroupSoftThreshold:
    @settings(max_examples=30, deadline=None)
    @given(rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 20),
                                                 st.integers(1, 5)),
                           elements=st.floats(-100, 100, allow_nan=False)),
           t=st.floats(0.0, 50.0))
    def test_row_norms_shrink(self, rows, t):
        out = group_soft_threshold(rows, t)
        before = np.linalg.norm(rows, axis=1)
        after = np.linalg.norm(out, axis=1)
        assert np.all(after <= before + 1e-9)

    def test_rows_below_threshold_zeroed(self):
        rows = np.array([[0.1, 0.1], [3.0, 4.0]])
        out = group_soft_threshold(rows, 1.0)
        assert np.allclose(out[0], 0.0)
        assert np.linalg.norm(out[1]) == pytest.approx(4.0)  # 5 - 1

    def test_direction_preserved(self):
        rows = np.array([[3.0, 4.0]])
        out = group_soft_threshold(rows, 1.0)
        assert np.allclose(out / np.linalg.norm(out),
                           rows / np.linalg.norm(rows))


def _batch(rng, n_batch, n, n_leads):
    return rng.standard_normal((n_batch, n, n_leads))


def _per_window_reference(mom, grad, step, thresholds, old, ratio):
    """The batched tail step spelled window by window with the prox."""
    alpha = np.stack([
        group_soft_threshold(mom[b] - step * grad[b], thresholds[b])
        for b in range(mom.shape[0])])
    return alpha, alpha + ratio * (alpha - old)


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestGroupShrinkUpdate:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_batch=st.integers(1, 4), n=st.integers(1, 24),
           n_leads=st.integers(1, 7), step=finite, ratio=finite)
    def test_matches_reference_bitwise(self, seed, n_batch, n, n_leads,
                                       step, ratio):
        rng = np.random.default_rng(seed)
        mom = _batch(rng, n_batch, n, n_leads)
        grad = _batch(rng, n_batch, n, n_leads)
        old = _batch(rng, n_batch, n, n_leads)
        thresholds = np.abs(rng.standard_normal(n_batch))
        got_a, got_m = _group_shrink_update(mom, grad, step, thresholds,
                                            old, ratio)
        ref_a, ref_m = _per_window_reference(mom, grad, step, thresholds,
                                             old, ratio)
        assert got_a.tobytes() == ref_a.tobytes()
        assert got_m.tobytes() == ref_m.tobytes()

    @pytest.mark.parametrize("n_leads", [8, 12])
    def test_wide_batches_match_reference(self, n_leads):
        # From 8 leads on numpy's row norm switches to pairwise
        # summation; the batched norm must still equal the per-window
        # one bit for bit.
        rng = np.random.default_rng(3)
        mom = _batch(rng, 2, 5, n_leads)
        grad = _batch(rng, 2, 5, n_leads)
        old = _batch(rng, 2, 5, n_leads)
        thresholds = np.array([0.1, 0.2])
        got = _group_shrink_update(mom, grad, 0.1, thresholds, old, 0.3)
        ref = _per_window_reference(mom, grad, 0.1, thresholds, old, 0.3)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()

    def test_nan_inputs_propagate(self):
        # np.maximum propagates NaN: a NaN row must stay NaN rather
        # than be silently shrunk to zero, and the other rows of the
        # window are untouched by it.
        mom = np.zeros((1, 2, 2))
        mom[0, 0] = np.nan
        mom[0, 1] = [3.0, 4.0]
        alpha, momentum = _group_shrink_update(
            mom, np.zeros_like(mom), 0.5, np.array([1.0]),
            np.zeros_like(mom), 0.5)
        assert np.all(np.isnan(alpha[0, 0]))
        assert np.all(np.isnan(momentum[0, 0]))
        assert np.allclose(alpha[0, 1], [2.4, 3.2])

    def test_windows_independent_of_batch_partition(self):
        # The sharded drain splits batches arbitrarily: each window's
        # step must not depend on its batch companions.
        rng = np.random.default_rng(11)
        mom, grad, old = (_batch(rng, 5, 16, 3) for _ in range(3))
        thresholds = np.abs(rng.standard_normal(5))
        whole = _group_shrink_update(mom, grad, 0.2, thresholds, old,
                                     0.7)
        for lo, hi in ((0, 2), (2, 3), (3, 5)):
            part = _group_shrink_update(mom[lo:hi], grad[lo:hi], 0.2,
                                        thresholds[lo:hi], old[lo:hi],
                                        0.7)
            assert part[0].tobytes() == whole[0][lo:hi].tobytes()
            assert part[1].tobytes() == whole[1][lo:hi].tobytes()

    def test_thresholds_apply_per_window(self):
        rows = np.array([[[3.0, 4.0]], [[3.0, 4.0]]])
        zeros = np.zeros_like(rows)
        alpha, _ = _group_shrink_update(rows, zeros, 1.0,
                                        np.array([10.0, 0.0]), zeros,
                                        0.0)
        assert np.all(alpha[0] == 0.0)
        assert alpha[1].tobytes() == rows[1].tobytes()

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(5)
        arrays = [_batch(rng, 2, 6, 2) for _ in range(3)]
        thresholds = np.array([0.3, 0.6])
        before = [a.copy() for a in (*arrays, thresholds)]
        mom, grad, old = arrays
        _group_shrink_update(mom, grad, 0.4, thresholds, old, 0.9)
        for original, now in zip(before, (*arrays, thresholds)):
            assert now.tobytes() == original.tobytes()

    def test_zero_ratio_momentum_is_new_iterate(self):
        rng = np.random.default_rng(9)
        mom, grad, old = (_batch(rng, 3, 4, 2) for _ in range(3))
        alpha, momentum = _group_shrink_update(
            mom, grad, 0.1, np.full(3, 0.05), old, 0.0)
        assert momentum.tobytes() == alpha.tobytes()

    def test_zero_norm_rows_shrink_to_zero(self):
        mom = np.zeros((1, 3, 2))
        grad = np.zeros((1, 3, 2))
        old = np.ones((1, 3, 2))
        alpha, momentum = _group_shrink_update(
            mom, grad, 0.5, np.array([0.25]), old, 0.5)
        assert np.all(alpha == 0.0)
        assert np.all(momentum == -0.5)


class TestGroupFista:
    def test_bitwise_matches_textbook_loop(self, rng):
        # The one-window iteration pinned expression for expression
        # with the public prox: recovery goldens anchor to these bytes.
        m, n, leads = 30, 64, 2
        operators = [rng.standard_normal((m, n)) / np.sqrt(m)
                     for _ in range(leads)]
        ys = [rng.standard_normal(m) for _ in range(leads)]
        lam = 0.05
        step = 1.0 / max(float(np.linalg.norm(A, 2)) ** 2
                         for A in operators)
        alpha = np.zeros((n, leads))
        momentum = alpha.copy()
        t = 1.0
        for _ in range(120):
            grad = np.stack([operators[k].T @ (operators[k] @ momentum[:, k]
                                               - ys[k])
                             for k in range(leads)], axis=1)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            new_alpha = group_soft_threshold(momentum - step * grad,
                                             np.float64(lam * step))
            momentum = new_alpha + (t - 1.0) / t_next * (new_alpha - alpha)
            moved = np.linalg.norm(new_alpha - alpha)
            scale = max(1e-12, np.linalg.norm(alpha))
            alpha, t = new_alpha, t_next
            if moved / scale < 1e-7:
                break
        got = group_fista(operators, ys, lam, n_iter=120)
        assert got.tobytes() == alpha.tobytes()

    def test_batch_windows_independent_of_partition(self, rng):
        # Each window's trajectory (and its own stopping test) must not
        # depend on which windows share its batch: the sharded drain's
        # byte-equivalence rests on this.
        m, n, leads, windows = 24, 48, 2, 4
        operators = [rng.standard_normal((m, n)) / np.sqrt(m)
                     for _ in range(leads)]
        ys = rng.standard_normal((windows, leads, m))
        lams = np.array([0.01, 0.05, 0.1, 0.02])
        whole = group_fista_batch(operators, ys, lams, n_iter=80)
        for w in range(windows):
            alone = group_fista_batch(operators, ys[w:w + 1],
                                      lams[w:w + 1], n_iter=80)
            assert alone[0].tobytes() == whole[w].tobytes()

    def test_recovers_jointly_sparse_rows(self, rng):
        m, n, leads, k = 50, 100, 3, 6
        operators = [rng.standard_normal((m, n)) / np.sqrt(m)
                     for _ in range(leads)]
        truth = np.zeros((n, leads))
        support = rng.choice(n, size=k, replace=False)
        truth[support] = rng.uniform(1, 3, size=(k, leads))
        ys = [operators[lead] @ truth[:, lead] for lead in range(leads)]
        correlations = np.stack([operators[lead].T @ ys[lead]
                                 for lead in range(leads)], axis=1)
        lam = 0.02 * np.max(np.linalg.norm(correlations, axis=1))
        estimate = group_fista(operators, ys, lam, n_iter=800)
        # Debias on the detected union support (as the decoder does).
        rows = np.linalg.norm(estimate, axis=1)
        detected = np.flatnonzero(rows > 0.01 * rows.max())
        refined = np.zeros_like(estimate)
        for lead in range(leads):
            coef, *_ = np.linalg.lstsq(operators[lead][:, detected], ys[lead],
                                       rcond=None)
            refined[detected, lead] = coef
        assert sorted(detected.tolist()) == sorted(support.tolist())
        assert np.max(np.abs(refined - truth)) < 0.05

    def test_validates_lengths(self, rng):
        A = rng.standard_normal((4, 8))
        with pytest.raises(ValueError, match="per operator"):
            group_fista([A], [np.zeros(4), np.zeros(4)], 0.1)


class TestJointCsDecoder:
    def test_multilead_beats_single_lead_at_high_cr(self, clean_record):
        start, n = 1000, 512
        seg = clean_record.signals[:, start:start + n]
        cr = 70.0
        sl_encoder = CsEncoder(n=n, cr_percent=cr, seed=3)
        sl_decoder = CsDecoder(sl_encoder.sensing)
        sl = reconstruction_snr_db(
            seg[1], sl_decoder.recover(sl_encoder.encode(seg[1])).window)

        ml_encoder = MultiLeadCsEncoder(n_leads=3, n=n, cr_percent=cr,
                                        seed=100)
        ml_decoder = JointCsDecoder(ml_encoder.sensing_matrices)
        recovery = ml_decoder.recover(ml_encoder.encode(seg))
        ml = np.mean([reconstruction_snr_db(seg[lead], recovery.windows[lead])
                      for lead in range(3)])
        assert ml > sl + 2.0  # the Fig. 5 multi-lead gain

    def test_replicated_single_matrix_accepted(self, clean_record):
        n = 256
        seg = clean_record.signals[:, 1000:1000 + n]
        encoder = CsEncoder(n=n, cr_percent=40.0, seed=3)
        decoder = JointCsDecoder(encoder.sensing, n_leads=3)
        Y = np.vstack([encoder.sensing.matrix @ seg[lead] for lead in range(3)])
        recovery = decoder.recover(Y)
        assert recovery.windows.shape == (3, n)

    def test_lead_count_checked(self, clean_record):
        encoder = MultiLeadCsEncoder(n_leads=3, n=256)
        decoder = JointCsDecoder(encoder.sensing_matrices)
        with pytest.raises(ValueError, match="expected 3"):
            decoder.recover([np.zeros(encoder.m)] * 2)

    def test_window_length_consistency_checked(self):
        a = MultiLeadCsEncoder(n_leads=1, n=256).sensing_matrices[0]
        b = MultiLeadCsEncoder(n_leads=1, n=128).sensing_matrices[0]
        with pytest.raises(ValueError, match="window length"):
            JointCsDecoder([a, b])

    def test_needs_a_matrix(self):
        with pytest.raises(ValueError, match="at least one"):
            JointCsDecoder([])

    def test_support_is_shared_across_leads(self, clean_record):
        n = 256
        seg = clean_record.signals[:, 2000:2000 + n]
        encoder = MultiLeadCsEncoder(n_leads=3, n=n, cr_percent=55.0,
                                     seed=100)
        decoder = JointCsDecoder(encoder.sensing_matrices)
        recovery = decoder.recover(encoder.encode(seg))
        # Rows are zero or non-zero together (group sparsity).
        nonzero = recovery.coefficients != 0
        rows_any = nonzero.any(axis=1)
        rows_all = nonzero.all(axis=1)
        assert np.array_equal(rows_any, rows_all)


class TestRecoverBatch:
    """Batched joint recovery vs the per-window scalar path."""

    @pytest.fixture(scope="class")
    def decoder_and_frames(self, clean_record):
        encoder = MultiLeadCsEncoder(n_leads=3, n=256, cr_percent=60.0,
                                     seed=11)
        decoder = JointCsDecoder(encoder.sensing_matrices, n_iter=120)
        frames = [encoder.encode(clean_record.signals[:, lo:lo + 256])
                  for lo in range(500, 500 + 4 * 256, 256)]
        return decoder, frames

    def test_matches_scalar_recover(self, decoder_and_frames):
        decoder, frames = decoder_and_frames
        batch = decoder.recover_batch(frames)
        assert len(batch) == len(frames)
        for frame, got in zip(frames, batch):
            want = decoder.recover(frame)
            assert np.allclose(got.windows, want.windows,
                               rtol=1e-9, atol=1e-12)
            assert got.support_size == want.support_size

    def test_empty_batch(self, decoder_and_frames):
        decoder, _ = decoder_and_frames
        assert decoder.recover_batch([]) == []

    def test_lead_count_mismatch_rejected(self, decoder_and_frames):
        decoder, frames = decoder_and_frames
        with pytest.raises(ValueError, match="measurement vectors"):
            decoder.recover_batch([frames[0][:2]])

    def test_batch_fista_shape_validation(self):
        ops = [np.eye(4)]
        with pytest.raises(ValueError, match="shape"):
            group_fista_batch(ops, np.zeros((2, 3, 4)), np.zeros(2))


class TestRowStableMatmul:
    """Fixed-tile matmul: the primitive shard equivalence rests on."""

    def test_matches_gemm_values(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(13, 256))
        b = rng.normal(size=(256, 103))
        assert np.allclose(row_stable_matmul(a, b), a @ b,
                           rtol=1e-12, atol=0.0)

    def test_rows_independent_of_batch_size(self):
        # The property plain ``@`` does NOT have: BLAS switches kernels
        # (and summation orders) with the left operand's height.
        rng = np.random.default_rng(1)
        a = rng.normal(size=(23, 256))
        b = rng.normal(size=(256, 103))
        full = row_stable_matmul(a, b)
        for rows in (1, 2, 5, 8, 9, 23):
            assert np.array_equal(row_stable_matmul(a[:rows], b),
                                  full[:rows])

    def test_rows_independent_of_companions(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 64))
        b = rng.normal(size=(64, 32))
        solo = [row_stable_matmul(a[i:i + 1], b)[0] for i in range(6)]
        batched = row_stable_matmul(a, b)
        for i in range(6):
            assert np.array_equal(batched[i], solo[i])

    def test_out_parameter_fills_views(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 16))
        b = rng.normal(size=(16, 8))
        dest = np.zeros((4, 3, 8))
        result = row_stable_matmul(a, b, out=dest[:, 1, :])
        assert np.array_equal(dest[:, 1, :], row_stable_matmul(a, b))
        assert np.array_equal(result, dest[:, 1, :])

    def test_noncontiguous_input_accepted(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(5, 3, 64))
        b = rng.normal(size=(64, 16))
        view = stack[:, 1, :]  # strided over the middle axis
        assert np.array_equal(row_stable_matmul(view, b),
                              row_stable_matmul(np.ascontiguousarray(view),
                                                b))
