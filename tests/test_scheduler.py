"""Tests for gradient history tracking and the adaptive drop decision."""

import numpy as np
import pytest

from gramalign.errors import EmptyHistory, NegativeNorm
from gramalign.modality import MODALITY_ORDER, Modality
from gramalign.scheduler import (
    Branch,
    SchedulerConfig,
    decide,
    make_history,
    record,
    smoothed,
)


class TestRecord:
    def test_first_record(self):
        h = make_history(SchedulerConfig())
        record(h, (1.0, 2.0, 3.0, 4.0))
        assert all(len(h[m]) == 1 for m in MODALITY_ORDER)
        assert list(h[Modality.SMILES]) == [1.0]

    def test_ring_eviction(self):
        h = make_history(SchedulerConfig())  # K = 5
        for k in range(6):
            record(h, (float(k), 0.0, 0.0, 0.0))
        buf = h[Modality.SMILES]
        assert len(buf) == 5
        assert list(buf) == [5.0, 4.0, 3.0, 2.0, 1.0]  # newest first; 0.0 evicted

    def test_newest_first_order(self):
        h = make_history(SchedulerConfig())
        record(h, (1.0, 1, 1, 1))
        record(h, (2.0, 1, 1, 1))
        assert list(h[Modality.SMILES]) == [2.0, 1.0]

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_invalid_norms_rejected(self, bad):
        h = make_history(SchedulerConfig())
        with pytest.raises(NegativeNorm):
            record(h, (bad, 1.0, 1.0, 1.0))


class TestSmoothed:
    def test_constant_history(self):
        h = make_history(SchedulerConfig())
        for _ in range(5):
            record(h, (1.0, 1.0, 1.0, 1.0))
        np.testing.assert_allclose(smoothed(h, 0.9), 1.0)

    def test_single_entry(self):
        h = make_history(SchedulerConfig())
        record(h, (2.0, 3.0, 4.0, 5.0))
        np.testing.assert_allclose(smoothed(h, 0.9), [2, 3, 4, 5])

    def test_two_entry_hand_value(self):
        # newest-first (2, 1) with decay 0.9: (2 + 0.9) / 1.9
        h = make_history(SchedulerConfig())
        record(h, (1.0, 1, 1, 1))
        record(h, (2.0, 1, 1, 1))
        assert smoothed(h, 0.9)[0] == pytest.approx(1.526316, abs=1e-6)

    def test_empty_history(self):
        with pytest.raises(EmptyHistory):
            smoothed(make_history(SchedulerConfig()), 0.9)


class TestDecide:
    def _cfg(self, p_drop=1.0, sigma_multiplier=1.5):
        return SchedulerConfig(p_drop=p_drop, sigma_multiplier=sigma_multiplier)

    def test_dominance_worked_example(self):
        # gbar (10,1,1,1): mu 3.25, sigma 3.897114, threshold 9.095671 < 10
        d = decide(np.array([10.0, 1, 1, 1]), self._cfg(), np.random.default_rng(0))
        assert d.should_drop
        assert d.branch is Branch.DOMINANCE
        assert d.dropped is Modality.SMILES

    def test_argmin_worked_example(self):
        # gbar (1,2,3,4): mu 2.5, sigma 1.118034, threshold 4.177051 > 4
        d = decide(np.array([1.0, 2, 3, 4]), self._cfg(), np.random.default_rng(0))
        assert d.should_drop
        assert d.branch is Branch.ARGMIN
        assert d.dropped is Modality.SMILES

    def test_equal_values_never_dominance(self):
        for seed in range(20):
            d = decide(np.array([2.0, 2, 2, 2]), self._cfg(), np.random.default_rng(seed))
            assert d.branch is Branch.ARGMIN
            assert d.dropped is Modality.SMILES  # first index on ties

    def test_anchor_never_dropped_modality(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            gbar = rng.random(4) * 10
            d = decide(gbar, self._cfg(), rng)
            if d.should_drop:
                assert d.anchor is not d.dropped

    def test_deterministic_given_rng_state(self):
        gbar = np.array([3.0, 1.0, 4.0, 1.0])
        a = decide(gbar, self._cfg(0.8), np.random.default_rng(123))
        b = decide(gbar, self._cfg(0.8), np.random.default_rng(123))
        assert a == b

    def test_drop_frequency(self):
        cfg = self._cfg(0.8)
        rng = np.random.default_rng(7)
        gbar = np.array([1.0, 2.0, 3.0, 4.0])
        n = 20_000
        drops = sum(decide(gbar, cfg, rng).should_drop for _ in range(n))
        assert abs(drops / n - 0.8) < 0.02

    @pytest.mark.parametrize("sigma_multiplier", [0.5, 1.5])
    def test_branch_predicate_matches_oracle(self, sigma_multiplier):
        """Dominance drops the largest norm, also where several exceed the threshold (< 1)."""
        rng = np.random.default_rng(3)
        cfg = self._cfg(1.0, sigma_multiplier)
        for _ in range(2000):
            gbar = rng.random(4) * rng.choice([0.1, 1.0, 100.0])
            d = decide(gbar, cfg, rng)
            mu = gbar.mean()
            sigma = np.sqrt(((gbar - mu) ** 2).mean())
            dominance = bool(gbar.max() > mu + sigma_multiplier * sigma)
            assert d.should_drop
            assert (d.branch is Branch.DOMINANCE) == dominance
            if dominance:
                assert d.dropped is MODALITY_ORDER[int(np.argmax(gbar))]
            else:
                assert d.dropped is MODALITY_ORDER[int(np.argmin(gbar))]

    def test_p_drop_zero_never_drops(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = decide(np.array([1.0, 2, 3, 4]), self._cfg(0.0), rng)
            assert not d.should_drop
            assert d.anchor is Modality.PROTEIN

    def test_p_drop_zero_keeps_every_modality_on_a_draw_of_zero(self):
        """``random()`` lies in [0, 1), so a draw of exactly 0.0 must not drop at p_drop 0."""
        class ZeroDraw:
            def random(self):
                return 0.0

        d = decide(np.array([1.0, 2, 3, 4]), self._cfg(0.0), ZeroDraw())
        assert not d.should_drop
        assert d.anchor is Modality.PROTEIN


def test_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(p_drop=1.5)
    with pytest.raises(ValueError):
        SchedulerConfig(history_len=0)
    with pytest.raises(ValueError):
        SchedulerConfig(decay=1.0)
    with pytest.raises(ValueError):
        SchedulerConfig(sigma_multiplier=0.0)


def test_history_buffers_independent():
    h = make_history(SchedulerConfig(history_len=3))
    record(h, (1.0, 2.0, 3.0, 4.0))
    assert [list(h[m]) for m in MODALITY_ORDER] == [[1.0], [2.0], [3.0], [4.0]]
