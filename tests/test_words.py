from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocsort.backend import active
from assocsort.core import check_words
from assocsort.errors import WordRangeError
from assocsort.kernels import pass_budget
from assocsort.words import WordConfig

from .conftest import arr
from .oracles import epsilon_demand, super_hash_oracle


class TestWordConfig:
    def test_masks(self):
        cfg = WordConfig(8)
        assert cfg.tag_mask == 0x80
        assert cfg.value_mask == 0x7F
        assert cfg.max_key == 127

    def test_default_is_widest(self):
        cfg = WordConfig()
        assert cfg.w == 63
        assert cfg.tag_mask == 1 << 62

    @pytest.mark.parametrize("w", [0, 3, 64, 100, -1])
    def test_rejects_bad_width(self, w):
        with pytest.raises(WordRangeError):
            WordConfig(w)

    def test_pos_bits(self):
        """The bits of a position in a segment of ``n`` words, ``w - 1``
        less the pack split ``pass_budget`` gives."""
        for n, bits in ((1, 1), (2, 1), (3, 2), (1024, 10), (1025, 11)):
            assert 15 - pass_budget(n, 16)[1] == bits, n

    def test_pack_split(self):
        # 15 record bits, 10 of them for a position in a 1024-segment
        assert pass_budget(1024, 16)[1] == 5

    def test_exact_at_every_power_of_two(self):
        """The loops' ``pass_budget`` at n = 2**k and 2**k +- 1 for every k
        up to 61 that the width allows, against an integer oracle;
        ``ceil(log2(n))`` in floating point gives 49 for 2**49 + 1."""
        assert pass_budget(2**49 + 1, 63)[1] == 62 - 50
        for w in range(4, 64):
            cfg = WordConfig(w)
            for k in range(62):
                for n in (2**k - 1, 2**k, 2**k + 1):
                    if not 1 <= n <= cfg.tag_mask:
                        continue
                    lg = 1
                    while 2**lg < n:
                        lg += 1
                    split = w - 1 - lg
                    eps = 0
                    if 2 * lg >= w:
                        eps = max(Fraction(n // 2, 2**split).__ceil__(), n // (2**split + 1))
                    assert pass_budget(n, w) == (eps, split), (w, n)


class TestLinearHash:
    """The counting hash, inline in the ``practice`` kernel with ``F =
    1``: key ``k`` of the interval ``[delta, delta + span)`` owns slot
    ``base + k - delta``."""

    def test_hash_and_unhash(self):
        cfg = WordConfig(16)
        S = np.full(53, 500, dtype=np.int64)  # deferred filler
        S[:3] = (149, 100, 120)
        n_d, _, n_def, dnext, *_ = active().practice(
            S, 0, 53, 100, 3, 50, 1, cfg.w - 1, cfg.tag_mask
        )
        assert (n_d, n_def, dnext) == (3, 50, 500)
        slots = [j for j in range(53) if S[j] & cfg.tag_mask]
        assert slots == [3, 23, 52]
        assert [100 + (j - 3) for j in slots] == [100, 120, 149]

    def test_out_of_interval(self):
        # below the interval: an idle leftover, skipped; at or above it:
        # deferred to a later pass; neither becomes a node
        cfg = WordConfig(16)
        S = arr(99, 150, 100)
        n_d, n_c, n_def, dnext, *_ = active().practice(
            S, 0, 3, 100, 0, 50, 1, cfg.w - 1, cfg.tag_mask
        )
        assert (n_d, n_c, n_def, dnext) == (1, 0, 1, 150)
        assert S.tolist() == [cfg.tag_mask, 150, 99]


class TestSuperHash:
    """The bitmap hash, inline in the ``practice`` kernel with ``F = w -
    1`` and ``b = 1``: key ``delta + d`` is bit ``d % (w - 1)`` of the node
    at slot ``base + d // (w - 1)``."""

    def test_example(self):
        # key 19 above the interval start with 8 usable record bits:
        # slot 2, bit 3.
        cfg = WordConfig(9)
        S = arr(19, 40, 50)
        n_d, _, n_def, *_ = active().practice(S, 0, 3, 0, 0, 24, 8, 1, cfg.tag_mask)
        assert (n_d, n_def) == (1, 2)
        assert int(S[2]) == cfg.tag_mask | (1 << 3)

    def test_below_interval_rejected(self):
        cfg = WordConfig(9)
        S = arr(5, 10)
        n_d, n_c, n_def, *_, dup = active().practice(
            S, 0, 2, 10, 0, 16, 8, 1, cfg.tag_mask
        )
        assert (n_d, n_c, n_def, dup) == (1, 0, 0, -1)
        assert S.tolist() == [cfg.tag_mask | 1, 5]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=4, max_value=63), st.data())
    def test_matches_oracle_and_inverts(self, w, data):
        cfg = WordConfig(w)
        tag, wm1 = cfg.tag_mask, w - 1
        n = data.draw(st.integers(min_value=1, max_value=min(8, tag // wm1)))
        delta = data.draw(st.integers(min_value=0, max_value=min(tag - wm1 * n, 10**9)))
        offsets = data.draw(
            st.lists(st.integers(0, wm1 * n - 1), min_size=n, max_size=n, unique=True)
        )
        S = np.array(offsets, dtype=np.int64) + delta
        k = active()
        n_d, n_c, _, _, _, _, dup = k.practice(S, 0, n, delta, 0, wm1 * n, wm1, 1, tag)
        assert dup == -1
        for off in offsets:
            j, bit = super_hash_oracle(delta + off, delta, w)
            assert 0 <= bit < wm1
            assert S[j] & tag and S[j] & (1 << bit)
        k.store_records(S, 0, n, n_d, tag)
        k.partition_values(S, n_d, n, delta + wm1 * n - 1, tag)
        _, status = k.retrieve_scan(S, 0, n, n_d, n_c, delta, wm1, 1, tag)
        assert status == 0
        assert S.tolist() == sorted(delta + off for off in offsets)


class TestEpsilon:
    """The companion budget ``eps`` that ``pass_budget`` gives a pass."""

    def test_frozen_values(self):
        assert pass_budget(8, 8)[0] == 0
        assert pass_budget(16, 8)[0] == 1
        # 1024 words at w=16 pack counts below 2**5 = 32 next to the
        # position, so up to 1024 // 33 = 31 nodes can be overfull at
        # once: ceil((n/2)/thr) = 16 alone would under-provision.
        assert pass_budget(1024, 16)[0] == 31

    def test_only_the_overfull_term_counts(self):
        """``pass_budget`` keeps only ``seg // (thr + 1)``: the paper's
        ``ceil((seg // 2) / thr)`` is never larger (the proof is at
        ``kernels.pass_budget``).  Checked against the two-term formula at
        ``seg = 2**k`` and ``2**k +- 1`` for every ``k`` and every width up
        to 63, up to the ``2**(w-1)`` words a pass loop takes."""
        for w in range(2, 64):
            for k in range(w):
                for seg in (2**k - 1, 2**k, 2**k + 1):
                    if not 1 <= seg <= 2 ** (w - 1):
                        continue
                    lg = max(1, (seg - 1).bit_length())
                    split = w - 1 - lg
                    eps = 0
                    if 2 * lg >= w:
                        thr = 2**split
                        eps = max(-(-(seg // 2) // thr), seg // (thr + 1))
                    assert pass_budget(seg, w) == (eps, split), (w, seg)

    def test_zero_when_positions_fit_twice(self):
        # 2 * ceil(log2 n) < w means a record can carry position + count for
        # every possible count, so no companions can ever be needed.
        assert pass_budget(1000, 63)[0] == 0
        assert pass_budget(2**20, 63)[0] == 0

    def test_bounds(self):
        """A segment of up to ``2**(w-1)`` words leaves a pack split of at
        least 0 bits, and a longer one has no budget; the front door
        refuses an array that long before any pass."""
        assert pass_budget(128, 8)[1] == 0
        with pytest.raises(ValueError):
            pass_budget(129, 8)
        check_words(np.zeros(128, dtype=np.int64), WordConfig(8))
        with pytest.raises(WordRangeError):
            check_words(np.zeros(129, dtype=np.int64), WordConfig(8))  # > 2**7 slots

    @settings(max_examples=300)
    @given(st.integers(min_value=4, max_value=63), st.data())
    def test_covers_worst_case_demand_and_keeps_half_span(self, w, data):
        cfg = WordConfig(w)
        n = data.draw(st.integers(min_value=1, max_value=min(cfg.tag_mask, 10**6)))
        eps, split = pass_budget(n, w)
        # enough idles for every possible companion…
        assert eps >= epsilon_demand(n, w)
        if eps == 0:
            assert 2 * (w - 1 - split) < w
        # …but never more than half the segment
        assert eps <= -(-n // 2)
        assert n - eps >= n // 2
