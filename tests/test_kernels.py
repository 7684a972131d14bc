"""Frozen micro-traces of the kernels, checked step by step by hand.

These pin the exact word-level protocol: node placement, record packing,
companion storage, ticket drawing.  Each expected value was derived by
hand simulation and cross-checked against the oracles; if one of these
breaks, the protocol changed, not just an implementation detail.
"""

import numpy as np
import pytest

from assocsort.backend import active, use_backend
from assocsort.kernels import WIDE, narrow_fields, pass_budget, pass_interval
from assocsort.words import WordConfig

from .conftest import arr
from .oracles import decode_memory, practice_oracle

W8 = WordConfig(8)
TAG8 = W8.tag_mask


class TestPracticeCounting:
    def test_canonical_four_word_trace(self, backend):
        k = active()
        S = arr(2, 0, 2, 1)
        n_d, n_c, n_def, dnext, moves, created, dup = k.practice(S, 0, 4, 0, 0, 4, 1, 7, TAG8)
        assert (n_d, n_c, n_def) == (3, 1, 0)
        assert dnext == dup == -1
        assert created == 3
        # nodes for keys 0,1,2 at their slots; records 0,0,1; the second
        # copy of key 2 is left in place as an idle word
        assert S.tolist() == [TAG8, TAG8, TAG8 | 1, 2]

    def test_matches_oracle_on_random(self, backend, rng):
        k = active()
        for _ in range(40):
            n = int(rng.integers(1, 60))
            vals = rng.integers(0, 40, size=n).astype(np.int64)
            delta = int(vals.min())
            span = max(1, n // 2)
            S = vals.copy()
            n_d, n_c, n_def, dnext, *_ = k.practice(S, 0, n, delta, 0, span, 1, 7, TAG8)
            e_d, e_c, e_def, e_next = practice_oracle(vals.tolist(), delta, span)
            assert (n_d, n_c, n_def) == (e_d, e_c, e_def)
            assert (None if dnext < 0 else int(dnext)) == e_next

    def test_below_interval_words_are_skipped(self, backend):
        # leftovers of an enclosing pass (value < delta) must be ignored
        k = active()
        S = arr(3, 50, 51, 3, 50)
        n_d, n_c, n_def, dnext, *_ = k.practice(S, 0, 5, 50, 0, 3, 1, 7, TAG8)
        assert (n_d, n_c, n_def) == (2, 1, 0)
        assert dnext == -1
        assert sorted(int(v) for v in S if not v & TAG8) == [3, 3, 50]


class TestStorePacked:
    def test_all_counts_pack(self, backend):
        k = active()
        S = arr(2, 0, 2, 1)
        k.practice(S, 0, 4, 0, 0, 4, 1, 7, TAG8)
        _, split = pass_budget(4, 8)  # 5: positions need 2 bits, 7 - 2 = 5
        eps_used, stored, _, status = k.store_nodes(S, 0, 4, 0, 4, split, TAG8, 0)
        assert status == 0
        assert (eps_used, stored) == (0, 3)
        assert decode_memory(S, 0, 3, 0, 0, 0, 1, split, TAG8) == [(0, 0), (1, 0), (2, 1)]
        # the idle word survived beyond the memory
        assert int(S[3]) == 2

    def test_companion_path_w4(self, backend):
        # w=4: threshold 2, so key 0 (count 2) needs a companion, paid
        # for by one of its own idle words; an eps of 1 covers it.
        cfg = WordConfig(4)
        tag = cfg.tag_mask
        k = active()
        S = arr(0, 0, 0, 1)
        eps, split = pass_budget(4, cfg.w)
        assert (eps, split) == (1, 1)
        n_d, n_c, n_def, *_ = k.practice(S, 0, 4, 0, eps, 4 - eps, 1, 3, tag)
        assert (n_d, n_c, n_def) == (2, 2, 0)
        eps_used, stored, _, status = k.store_nodes(S, 0, 4, 0, 3, split, tag, eps)
        assert status == 0
        assert (eps_used, stored) == (1, 3)
        assert S.tolist()[:3] == [tag | 2, 1, tag | (2 << split)]
        assert decode_memory(S, 0, 2, 1, 0, eps, 1, split, tag) == [(0, 2), (1, 0)]

    def test_retrieve_round_trip(self, backend):
        k = active()
        S = arr(2, 0, 2, 1)
        k.practice(S, 0, 4, 0, 0, 4, 1, 7, TAG8)
        _, split = pass_budget(4, 8)
        k.store_nodes(S, 0, 4, 0, 4, split, TAG8, 0)
        k.partition_values(S, 3, 4, 3, TAG8)
        written, _, status = k.retrieve_packed(S, 0, 3, 4, 0, 0, 1, split, TAG8)
        assert status == 0 and written == 4
        assert S.tolist() == [0, 1, 2, 2]

    def test_companion_round_trip_w4(self, backend):
        cfg = WordConfig(4)
        tag = cfg.tag_mask
        k = active()
        S = arr(0, 0, 0, 1)
        eps, split = pass_budget(4, cfg.w)
        k.practice(S, 0, 4, 0, eps, 4 - eps, 1, 3, tag)
        k.store_nodes(S, 0, 4, 0, 3, split, tag, eps)
        k.partition_values(S, 3, 4, 2, tag)
        written, _, status = k.retrieve_packed(S, 0, 3, 4, 0, eps, 1, split, tag)
        assert status == 0 and written == 4
        assert S.tolist() == [0, 0, 0, 1]

    def test_packed_round_trip_w16(self, backend):
        """A counting pass whose keys reach past its 4 words packs them
        (w = 16: 13 bits beside a 2-bit position hold 4 fields of 3 bits),
        so its interval spans 16 keys: key 5 is field 1 of slot 1, counted
        twice, key 13 field 1 of slot 3.  Storage packs ``tag | fp << 12 |
        fields``, and retrieval writes each field's key that many times,
        highest field first."""
        tag = 1 << 15
        k = active()
        S = arr(13, 5, 0, 5)
        eps, split = pass_budget(4, 16)
        F, b, span, pivot = pass_interval(4 - eps, 0, 13, 1, split, tag)
        assert (eps, split, F, b, span, pivot) == (0, 13, 4, 3, 16, 15)
        n_d, n_c, n_def, *_ = k.practice(S, 0, 4, 0, eps, span, F, b, tag)
        assert (n_d, n_c, n_def) == (3, 1, 0)
        eps_used, stored, _, status = k.store_nodes(S, 0, 4, 0, span, F * b, tag, eps)
        assert (eps_used, stored, status) == (0, 3, 0)
        assert S.tolist()[:3] == [tag | 1, tag | 1 << 12 | 2 << 3, tag | 3 << 12 | 1 << 3]
        assert decode_memory(S, 0, 3, 0, 0, 0, F, b, tag) == [(0, 0), (5, 1), (13, 0)]
        assert k.partition_values(S, 3, 4, pivot, tag)[0] == 1
        written, _, status = k.retrieve_packed(S, 0, 3, 4, 0, 0, F, b, tag)
        assert (written, status) == (4, 0)
        assert S.tolist() == [0, 5, 5, 13]


    @pytest.mark.parametrize("seg, w", [(5000, 63), (1 << 17, 63), (100, 24)])
    def test_dense_passes_pack_for_the_improved_sorters_only(self, seg, w):
        """A pass whose keys stay below ``seg`` past ``delta`` packs where
        its records fill the value plane (``b = w - 1``, the improved
        sorters), but keeps count nodes where they share the word with a
        position (``b = pack_split``, the counting sorters); a pass whose
        keys reach past the interval packs for both."""
        tag = 1 << (w - 1)
        bits = seg.bit_length()
        eps, split = pass_budget(seg, w)
        for top in (7, 7 + seg - 1):
            assert pass_interval(seg, 7, top, 1, w - 1, tag)[:2] == ((w - 1) // bits, bits)
            assert pass_interval(seg - eps, 7, top, 1, split, tag) == (
                1, split, seg - eps, 7 + seg - eps - 1)
        assert pass_interval(seg - eps, 7, 7 + seg, 1, split, tag)[:2] == (split // bits, bits)

    @pytest.mark.parametrize("seg, top, wider, want", [
        (5000, 15_000, 0, (4, 13, 20_000, 19_999)),  # 3n: the wide form covers it
        (5000, 19_999, 0, (4, 13, 20_000, 19_999)),
        (5000, 20_000, 0, (19, 3, 95_000, 94_999)),  # just past 4n: gap 4
        (5000, 50_000, 0, (19, 3, 95_000, 94_999)),  # 10n
        (5000, 150_000, 0, (28, 2, 140_000, 139_999)),  # 30n
        (5000, 500_000, 0, (28, 2, 140_000, 139_999)),  # 100n
        (5000, 500_000, 1, (19, 3, 95_000, 94_999)),  # after one pass filled up
        (5000, 500_000, 2, (14, 4, 70_000, 69_999)),
        (5000, 500_000, 10, (4, 13, 20_000, 19_999)),  # no narrower form left
        (5000, 500_000, WIDE, (4, 13, 20_000, 19_999)),
        (100_000, 3_000_000, 0, (19, 3, 1_900_000, 1_899_999)),  # 30n at 10^5
        (100_000, 10_000_000, 0, (28, 2, 2_800_000, 2_799_999)),
    ])
    def test_sparse_improved_passes_narrow_their_fields(self, seg, top, wider, want):
        """An improved pass (w = 63) that the wide form leaves short of
        ``top`` takes the narrowest fields from 2 bits up that few keys are
        expected to fill (``narrow_bits``), plus ``wider`` bits, as many as
        fit beside a 5-bit field index (``narrow_fields``: 28 of 2 bits, 19
        of 3, 14 of 4), where they are more fields than the wide form's."""
        assert pass_interval(seg, 0, top, 1, 62, 1 << 62, wider) == want
        assert [narrow_fields(b, 1 << 62) for b in (2, 3, 4, 5)] == [28, 19, 14, 11]

    def test_narrow_fields_only_for_the_improved_count_sorter(self):
        """Bitmaps (``distinct_improved``) and the counting sorters' packed
        passes keep their forms however sparse their keys; so does a word
        too narrow for two fields of 2 bits beside their index."""
        tag = 1 << 62
        assert pass_interval(5000, 0, 500_000, 62, 1, tag) == (62, 1, 310_000, 309_999)
        eps, split = pass_budget(5000, 63)
        assert pass_interval(5000 - eps, 0, 500_000, 1, split, tag)[:2] == (split // 13, 13)
        assert pass_interval(100, 0, 10_000, 1, 7, 1 << 7) == (2, 2, 128, 127)  # w = 8
        assert pass_interval(7, 0, 7_000, 1, 3, 1 << 3) == (1, 3, 7, 6)  # w = 4


class TestImplicitPractice:
    def test_three_word_trace(self, backend):
        k = active()
        S = arr(9, 0, 3)
        n_d, dnext, moves, status = k.implicit_practice(S, 0, 3, 0)
        assert status == 0
        assert (n_d, dnext) == (1, 3)
        assert S.tolist() == [0, 9, 3]

    def test_collect_keeps_order(self, backend):
        k = active()
        S = arr(0, 9, 3)
        count, _ = k.collect_fixpoints(S, 0, 3, 0)
        assert count == 1
        assert S.tolist() == [0, 9, 3]

    def test_swap_ahead_not_double_counted(self, backend):
        # key 1 is placed ahead of the scan and then found settled: it
        # must be counted exactly once.
        k = active()
        S = arr(1, 0)
        n_d, dnext, _, status = k.implicit_practice(S, 0, 2, 0)
        assert status == 0
        assert n_d == 2
        assert dnext == -1
        assert S.tolist() == [0, 1]

    def test_duplicates_detected_not_looped(self, backend):
        k = active()
        S = arr(1, 1, 0)
        _, _, _, status = k.implicit_practice(S, 0, 3, 0)
        assert status != 0


class TestPackedKernels:
    def test_packed_trace_w16(self, backend):
        # three counters of 5 bits a node at w = 16: key d is field d % 3
        # of slot d // 3, whose count each occurrence bumps
        tag = WordConfig(16).tag_mask
        k = active()
        S = arr(7, 2, 7, 4, 2, 7)
        n_d, n_c, n_def, dnext, moves, created, dup = k.practice(S, 0, 6, 0, 0, 18, 3, 5, tag)
        assert (n_d, n_c, n_def, dnext, moves, created, dup) == (3, 3, 0, -1, 3, 3, -1)
        assert S.tolist() == [tag | 2 << 10, tag | 1 << 5, tag | 3 << 5, 7, 2, 7]
        stored, _, status = k.store_records(S, 0, 6, n_d, tag)
        assert (stored, status) == (3, 0)
        assert k.partition_values(S, n_d, 6, 17, tag)[0] == n_c
        moves, status = k.retrieve_scan(S, 0, 6, n_d, n_c, 0, 3, 5, tag)
        assert (moves, status) == (6, 0)
        assert S.tolist() == [2, 2, 4, 7, 7, 7]


class TestSuperHashKernels:
    def test_bitmap_trace_w9(self, backend):
        # keys {0, 3, 10} at w=9: node 0 records bits {0, 3}, node 1
        # records bit 2 (10 = 1*8 + 2).
        cfg = WordConfig(9)
        tag = cfg.tag_mask
        k = active()
        S = arr(10, 3, 0)
        n_d, n_c, n_def, dnext, _, created, dup = k.practice(S, 0, 3, 0, 0, 24, 8, 1, tag)
        assert dup == -1
        assert (n_d, n_c, n_def) == (2, 1, 0)
        nodes = {i: int(v) & cfg.value_mask for i, v in enumerate(S) if v & tag}
        assert nodes == {0: 0b1001, 1: 0b100}

    def test_duplicate_reported_with_key(self, backend):
        cfg = WordConfig(9)
        k = active()
        S = arr(7, 3, 7)
        *_, dup = k.practice(S, 0, 3, 0, 0, 24, 8, 1, cfg.tag_mask)
        assert dup == 7

    def test_bitmap_round_trip(self, backend):
        cfg = WordConfig(9)
        tag = cfg.tag_mask
        k = active()
        S = arr(10, 3, 0)
        n_d, n_c, *_, dup = k.practice(S, 0, 3, 0, 0, 24, 8, 1, tag)
        assert dup == -1
        stored, _, status = k.store_records(S, 0, 3, n_d, tag)
        assert status == 0 and stored == n_d
        k.partition_values(S, n_d, 3, 23, tag)
        _, status = k.retrieve_scan(S, 0, 3, n_d, n_c, 0, 8, 1, tag)
        assert status == 0
        assert S.tolist() == [0, 3, 10]


class TestRankPipeline:
    def test_full_pipeline_trace(self, backend):
        # keys [2,0,2,1] with payloads [a,b,c,d] end as K=[0,1,2,2],
        # P=[b,d,a,c]: the payload of a consumed key travels with its node.
        a, b, c, d = 10, 11, 12, 13
        k = active()
        K = arr(2, 0, 2, 1)
        P = arr(a, b, c, d)
        n_d, n_c, n_def, dnext, *_ = k.practice(K, 0, 4, 0, 0, 4, 1, 1, TAG8, P)
        assert (n_d, n_c, n_def) == (3, 1, 0)
        assert P.tolist() == [b, d, a, c]
        assert K.tolist() == [TAG8, TAG8, TAG8 | 1, 2]

        n_nodes, total = k.accumulate_records(K, 0, 4, TAG8)
        assert (n_nodes, total) == (3, 4)
        assert K.tolist() == [TAG8, TAG8 | 1, TAG8 | 3, 2]

        made, status = k.repractice_idle(K, 0, 4, 0, 4, TAG8)
        assert status == 0 and made == 1
        # the idle drew ticket 3; the node's record fell back to its own
        # destination (the start of key 2's run)
        assert K.tolist() == [TAG8, TAG8 | 1, TAG8 | 2, 3]

        moves, status = k.reactivate(K, P, 0, 4, 4, TAG8)
        assert status == 0
        assert moves == 0  # everything already sits at its destination
        assert K.tolist() == [TAG8, TAG8 | 1, TAG8 | 2, 3]

        moves, status = k.restore_keys(K, 0, 4, 0, TAG8)
        assert status == 0
        assert K.tolist() == [0, 1, 2, 2]
        assert P.tolist() == [b, d, a, c]

    def test_reversed_keys_settle_during_practice(self, backend):
        # reversed distinct keys all land home via practice swaps, so
        # reactivation only has to pack the deferred word (already home)
        k = active()
        K = arr(3, 2, 1, 0, 90)
        P = arr(0, 1, 2, 3, 4)
        n_d, n_c, n_def, *_ = k.practice(K, 0, 5, 0, 0, 5, 1, 1, TAG8, P)
        assert (n_d, n_c, n_def) == (4, 0, 1)
        k.accumulate_records(K, 0, 5, TAG8)
        made, status = k.repractice_idle(K, 0, 5, 0, 5, TAG8)
        assert status == 0 and made == 0
        moves, status = k.reactivate(K, P, 0, 5, 4, TAG8)
        assert status == 0 and moves == 0
        _, status = k.restore_keys(K, 0, 4, 0, TAG8)
        assert status == 0
        assert K.tolist() == [0, 1, 2, 3, 90]
        assert P.tolist() == [3, 2, 1, 0, 4]

    def test_reactivate_places_tickets(self, backend):
        # duplicates force real work: idles draw tickets 3 and 1, and
        # reactivation takes the ticket at position 1 to its slot 3, leaving
        # a hole, and ticket 1 from there into it: 2 placements and a hole
        k = active()
        K = arr(2, 2, 0, 0, 9)
        P = arr(0, 1, 2, 3, 4)
        n_d, n_c, n_def, *_ = k.practice(K, 0, 5, 0, 0, 5, 1, 1, TAG8, P)
        assert (n_d, n_c, n_def) == (2, 2, 1)
        assert K.tolist() == [TAG8 | 1, 2, TAG8 | 1, 0, 9]
        k.accumulate_records(K, 0, 5, TAG8)
        assert K.tolist() == [TAG8 | 1, 2, TAG8 | 3, 0, 9]
        made, status = k.repractice_idle(K, 0, 5, 0, 5, TAG8)
        assert status == 0 and made == 2
        assert K.tolist() == [TAG8, 3, TAG8 | 2, 1, 9]
        moves, status = k.reactivate(K, P, 0, 5, 4, TAG8)
        assert status == 0 and moves == 5
        _, status = k.restore_keys(K, 0, 4, 0, TAG8)
        assert status == 0
        assert K.tolist() == [0, 0, 2, 2, 9]
        assert P.tolist() == [2, 3, 0, 1, 4]


class TestPracticeCarryingPayloads:
    """The payload form of practice (count nodes from ``lo``, as the rank
    pass makes them) against the keys-only form, on keys over m/n of the segment,
    so that keys over n are deferred, and on a strided payload view."""

    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("ratio", [0.5, 1, 10, 100])
    def test_payload_form_is_the_keys_only_form_carrying_payloads(
            self, backend, rng, ratio, step):
        k = active()
        tag = 1 << 62
        for _ in range(20):
            n = int(rng.integers(1, 200))
            lo = int(rng.integers(0, 4))
            K_in = rng.integers(0, max(1, int(ratio * n)), size=lo + n).astype(np.int64)
            # Mostly the segment's minimum, as in a rank pass; else any
            # key of it, so that keys below the interval are passed over.
            delta = int(rng.choice(K_in[lo:]) if rng.integers(0, 4) == 0 else K_in[lo:].min())
            S = K_in.copy()
            want = k.practice(S, lo, lo + n, delta, 0, n, 1, 1, tag)
            K = K_in.copy()
            P = np.full(step * (lo + n), -1, dtype=np.int64)[::step]
            P[:] = np.arange(lo + n)
            n_d, n_c, n_def, dnext, moves, created, dup = k.practice(
                K, lo, lo + n, delta, 0, n, 1, 1, tag, P)
            assert (n_d, n_c, n_def, dnext, created, dup) == want[:4] + want[5:]
            assert moves == want[4] + 2 * created
            assert K.tolist() == S.tolist()
            assert sorted(P.tolist()) == list(range(lo + n))
            for i, x in enumerate(K.tolist()):
                if x & tag:
                    assert i >= lo and K_in[P[i]] == delta + (i - lo)
                else:
                    assert K_in[P[i]] == x


class TestValuePlanePartition:
    def test_tags_stay_put(self, backend):
        k = active()
        S = arr(TAG8 | 60, 10, TAG8 | 3, 70)
        n_low, _ = k.partition_values(S, 0, 4, 20, TAG8)
        assert n_low == 2
        # low values first, but the tag patterns unmoved
        tags = [bool(v & TAG8) for v in S]
        vals = [int(v) & W8.value_mask for v in S]
        assert tags == [True, False, True, False]
        assert sorted(vals[:2]) == [3, 10]
        assert sorted(vals[2:]) == [60, 70]

    @pytest.mark.parametrize("step", [1, 2, -1])
    @pytest.mark.parametrize("tag", [TAG8, 0], ids=["tagged", "whole words"])
    def test_payload_form_is_the_keys_only_form_carrying_payloads(
            self, backend, rng, tag, step):
        """With ``P``, the same words and ``n_low``, 2 moves more a swap,
        and beside each value plane the payload of the word it came from:
        on tagged words, and with tag 0 on any ``int64`` words, as a sort
        splits keys wider than the word."""
        k = active()
        vmask = tag - 1
        for _ in range(20):
            n = int(rng.integers(1, 120))
            lo = int(rng.integers(0, 4))
            if tag:
                S_in = rng.integers(0, 2 * TAG8, size=lo + n).astype(np.int64)
            else:
                S_in = rng.integers(-(2**63), 2**63 - 1, size=lo + n, dtype=np.int64)
            pivot = int(rng.choice(S_in[lo:] & vmask))
            S = S_in.copy()
            want = k.partition_values(S, lo, lo + n, pivot, tag)
            K = S_in.copy()
            P = np.full(abs(step) * (lo + n), -1, dtype=np.int64)[::step]
            P[:] = np.arange(lo + n)
            n_low, moves = k.partition_values(K, lo, lo + n, pivot, tag, P)
            assert (n_low, moves) == (want[0], 2 * want[1])
            assert K.tolist() == S.tolist()
            assert sorted(P.tolist()) == list(range(lo + n))
            assert np.array_equal(K & vmask, S_in[P] & vmask)


def test_backends_agree_word_for_word(rng):
    """Same inputs through every kernel set that runs here must leave
    identical arrays and identical summaries: ``practice`` of count nodes,
    and of bitmap nodes of 7 keys on keys that repeat in every second
    trial."""
    from assocsort.backend import BACKENDS, available

    names = [name for name in BACKENDS if available(name)]
    for trial in range(25):
        n = int(rng.integers(1, 80))
        vals = rng.integers(0, 120, size=n).astype(np.int64)
        span = max(1, (n - int(rng.integers(0, 3))))
        keys = rng.choice(120, size=n, replace=trial % 2 == 1).astype(np.int64)
        for words, interval, form in ((vals, span, (1, 7)), (keys, 7 * n, (7, 1))):
            results = []
            for name in names:
                with use_backend(name):
                    S = words.copy()
                    out = active().practice(S, 0, n, int(words.min()), 0, interval, *form, TAG8)
                    results.append((tuple(int(x) for x in out), S.tolist()))
            assert all(r == results[-1] for r in results), (names, form)
