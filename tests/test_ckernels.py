"""The ``c`` backend: its contract with the Python kernels, array layouts,
and how it is built, cached and given up.

The build and fallback tests each run fresh interpreters against an empty
cache directory, so they pay for one compile each.
"""

import itertools
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import assocsort
from assocsort import ckernels, kernels
from assocsort.backend import (
    _KERNEL_NAMES,
    _LOOP_NAMES,
    BACKENDS,
    active,
    active_loops,
    available,
    use_backend,
)
from assocsort.words import WordConfig

needs_c = pytest.mark.skipif(not available("c"), reason="c backend unavailable")

SRC = os.path.dirname(os.path.dirname(assocsort.__file__))


def test_status_codes_match():
    """The C and Python kernels give the ``STATUS_*`` and ``PHASE_*``
    codes the same names and values."""
    text = open(ckernels.SOURCE, encoding="utf-8").read()
    for prefix in ("STATUS_", "PHASE_"):
        in_c = {k: int(v) for k, v in re.findall(rf"#define ({prefix}\w+) (-?\d+)", text)}
        in_py = {k: v for k, v in vars(kernels).items() if k.startswith(prefix)}
        assert in_c and in_c == in_py


def test_exports_match():
    """``kernels.c`` exports a function for each kernel of ``SIGNATURES``
    and no other, so that a kernel or loop deleted in Python cannot stay
    exported from C, and gives ``CURSORS``, ``DENSE_FLOOR`` and ``CHAINS``
    the values of ``kernels.py``."""
    text = open(ckernels.SOURCE, encoding="utf-8").read()
    exported = re.findall(r"^(?:void|i64) (\w+)\(", text, re.MULTILINE)
    assert sorted(exported) == sorted(ckernels.SIGNATURES)
    cursors = re.search(r"^#define CURSORS (\d+)$", text, re.MULTILINE)
    floor = re.search(r"^#define DENSE_FLOOR \(\(i64\)1 << (\d+)\)$", text, re.MULTILINE)
    assert int(cursors[1]) == kernels.CURSORS
    assert 1 << int(floor[1]) == kernels.DENSE_FLOOR
    chains = re.search(r"^#define CHAINS (\d+)$", text, re.MULTILINE)
    assert int(chains[1]) == kernels.CHAINS


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_source_compiles_without_warnings(tmp_path):
    """A full build with the backend's flags: the optimizer's warnings
    (``-Wmaybe-uninitialized``, ``-Warray-bounds``) run only when code is
    generated, not under ``-fsyntax-only``.  Where those flags hold ISA
    flags, a build without them too: without AVX, a 32-byte vector passed
    to or returned from a function warns ``-Wpsabi``."""
    base = tuple(f for f in ckernels.FLAGS if f not in ckernels.ISA_FLAGS)
    for flags in dict.fromkeys([ckernels.FLAGS, base]):
        proc = subprocess.run(
            ["cc", *flags, "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "kernels.so"), ckernels.SOURCE],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (flags, proc.stderr)


def test_isa_flags_follow_the_cpu_and_name_the_build(monkeypatch):
    """``-mavx2`` is among the build flags exactly on an x86-64 host whose
    ``/proc/cpuinfo`` lists AVX2, and the flags are part of every build's
    name: a cache shared with a CPU without AVX2 never hands it this
    build.  (That a cache hit starts no process is checked by
    ``test_second_process_loads_from_cache_without_compiler``.)"""
    avx2 = False
    if os.uname().machine == "x86_64" and os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            avx2 = any(line.startswith("flags") and "avx2" in line.split() for line in fh)
    assert ckernels.ISA_FLAGS == (("-mavx2",) if avx2 else ())
    assert ckernels.FLAGS == ("-O2", "-shared", "-fPIC", *ckernels.ISA_FLAGS)
    name = ckernels._module_name(b"kernels", "1.0")
    other = tuple(f for f in ckernels.FLAGS if f != "-mavx2") + (() if avx2 else ("-mavx2",))
    monkeypatch.setattr(ckernels, "FLAGS", other)
    assert ckernels._module_name(b"kernels", "1.0") != name


def test_index_past_view_is_refused(backend):
    """``min_max`` over four words of a two-word view reads past it."""
    S = np.arange(4, dtype=np.int64)
    with pytest.raises(IndexError):
        active().min_max(S[:2], 0, 4)


T8 = 1 << 7
# (kernel, arguments after the arrays) that reach outside arrays of 8
# words, and the same call moved back inside them.
PAST_THE_END = [
    ("min_max", (8, 8), (7, 8)),
    ("min_max", (-1, 4), (0, 4)),
    ("implicit_practice", (0, 9, 0), (0, 8, 0)),
    ("collect_fixpoints", (-1, 8, 0), (0, 8, 0)),
    ("practice", (0, 8, 0, 1, 8, 1, 7, T8), (0, 8, 0, 0, 8, 1, 7, T8)),
    ("practice", (0, 8, 0, -1, 8, 1, 7, T8), (0, 8, 0, 0, 8, 1, 7, T8)),
    # Narrow fields undone from a slot past the array, or below lo.
    ("unpractice", (0, 9, 0, 0, 0, 2, 2, T8, 0, 0, -1), (0, 8, 0, 0, 0, 2, 2, T8, 0, 0, -1)),
    ("unpractice", (0, 8, 0, -1, 0, 2, 2, T8, 0, 0, -1), (0, 8, 0, 0, 0, 2, 2, T8, 0, 0, -1)),
    ("unpractice", (0, 8, 0, 0, -4, 2, 2, T8, 0, 0, -1), (0, 8, 0, 0, 4, 2, 2, T8, 0, 0, -1)),
    ("store_nodes", (0, 9, 0, 8, 3, T8, 0), (0, 8, 0, 8, 3, T8, 0)),
    ("partition_values", (0, 9, 3, T8), (0, 8, 3, T8)),
    ("retrieve_packed", (0, 4, 9, 0, 0, 1, 3, T8), (0, 4, 8, 0, 0, 1, 3, T8)),
    ("retrieve_packed", (0, 9, 8, 0, 0, 1, 3, T8), (0, 8, 8, 0, 0, 1, 3, T8)),
    ("store_records", (0, 9, 0, T8), (0, 8, 0, T8)),
    ("retrieve_scan", (0, 8, 5, 4, 0, 1, 7, T8), (0, 8, 4, 4, 0, 1, 7, T8)),
    ("retrieve_scan", (2, 8, 6, 1, 0, 7, 1, T8), (2, 8, 5, 1, 0, 7, 1, T8)),
    ("practice", (0, 8, 0, 0, 57, 7, 1, T8), (0, 8, 0, 0, 56, 7, 1, T8)),
    ("improved_passes", (0, 9, 0, 7, 1, 7, T8), (0, 8, 0, 7, 1, 7, T8)),
    ("improved_passes", (0, 8, 0, 7, -1, 1, T8), (0, 8, 0, 7, 7, 1, T8)),
    # The rank pass's practice: count nodes from lo over a span past the
    # array (every practice row also runs with a payload, see the test).
    ("practice", (0, 8, 0, 0, 9, 1, 1, T8), (0, 8, 0, 0, 8, 1, 1, T8)),
    ("accumulate_records", (0, 9, T8), (0, 8, T8)),
    ("repractice_idle", (1, 8, 0, 8, T8), (0, 8, 0, 8, T8)),
    # A prefix past the arrays, a tail past them, backwards, and a prefix
    # past its segment or below it; a segment of tag words.
    ("reactivate", (0, 9, 9, T8), (0, 8, 8, T8)),
    ("reactivate", (0, 9, 4, T8), (0, 8, 4, T8)),
    ("reactivate", (5, 4, 0, T8), (4, 5, 1, T8)),
    ("reactivate", (0, 7, 8, T8), (0, 8, 8, T8)),
    ("reactivate", (0, 8, -1, T8), (0, 8, 8, 8)),
    ("restore_keys", (0, 9, 0, T8), (0, 8, 0, T8)),
    # Tag 0: the value plane is the whole word, as a sort splits keys
    # wider than the word.
    ("partition_values", (0, 9, T8 - 1, 0), (0, 8, T8 - 1, 0)),
    ("partition_values", (-1, 8, 3, 0), (0, 8, 3, 0)),
    ("radix_pass", (9, 0), (8, 0)),
    ("distinct_passes", (0, 9, 0), (0, 8, 0)),
    ("sequential_passes", (0, 9, 0, 0, 8), (0, 8, 0, 0, 8)),
    ("stacked_passes", (0, 9, 0, 0, 0, 2, 8), (0, 8, 0, 0, 0, 2, 8)),
    # A level buffer of 8 words holds 4 levels, not 5.
    ("stacked_passes", (0, 8, 0, 0, 4, 5, 8), (0, 8, 0, 0, 3, 4, 8)),
    # Entered at ``hi``, the loop only unwinds: past ``S``, and past ``L``
    # where ``depth`` exceeds ``cap``.
    ("stacked_passes", (9, 9, 0, 0, 1, 1, 8), (8, 8, 0, 0, 1, 1, 8)),
    ("stacked_passes", (8, 8, 0, 0, 5, 4, 8), (8, 8, 0, 0, 4, 4, 8)),
    ("rank_passes", (0, 9, 0, T8), (0, 8, 0, T8)),
    # No maximum takes a pass's words outside its segment, not one past
    # every word or below the minimum (test_skip_paths runs such maxima on
    # segments long enough for the interleaved practice).
    ("improved_passes", (0, 8, 0, (1 << 63) - 1, 1, 7, T8),
     (0, 8, 0, -(1 << 63), 1, 7, T8)),
    ("practice_cursors", (0, 9, 0, 9, 1, 7, T8), (0, 8, 0, 8, 1, 7, T8)),
    # A negative F hashes keys below lo.
    ("practice", (0, 8, 0, 0, 8, -1, 1, T8), (0, 8, 0, 0, 8, 1, 7, T8)),
    # A bitmap node of 64 keys or more shifts by 64 bits or more.
    ("practice", (0, 8, 0, 0, 8, 64, 1, T8), (0, 8, 0, 0, 8, 63, 1, T8)),
    ("retrieve_scan", (0, 8, 4, 4, 0, 64, 1, T8), (0, 8, 4, 4, 0, 63, 1, T8)),
    ("improved_passes", (0, 8, 0, 7, 64, 1, T8), (0, 8, 0, 7, 63, 1, T8)),
    # Fields of a packed node that reach bit 64 or more, or have no bits,
    # and a span whose slots, F keys to a word, pass the array.
    ("practice", (0, 8, 0, 0, 8, 2, 32, T8), (0, 8, 0, 0, 8, 2, 31, T8)),
    ("practice", (0, 8, 0, 0, 8, 2, 0, T8), (0, 8, 0, 0, 8, 2, 1, T8)),
    ("practice", (0, 8, 0, 0, 25, 3, 2, T8), (0, 8, 0, 0, 24, 3, 2, T8)),
    ("retrieve_scan", (0, 8, 4, 4, 0, 2, 32, T8), (0, 8, 4, 4, 0, 2, 31, T8)),
    ("retrieve_scan", (0, 8, 4, 4, 0, 3, 0, T8), (0, 8, 4, 4, 0, 3, 2, T8)),
    ("improved_passes", (0, 8, 0, 7, 1, 64, T8), (0, 8, 0, 7, 1, 63, T8)),
    ("improved_passes", (0, 8, 0, 7, 4, 16, T8), (0, 8, 0, 7, 3, 21, T8)),
    # A packed memory: writes past the array, fields that reach bit 64 or
    # more or have no bits, and the counting loops, whose every pass packs
    # where ``top`` lies far past the keys, past the array.
    ("retrieve_packed", (0, 4, 9, 0, 0, 3, 2, T8), (0, 4, 8, 0, 0, 3, 2, T8)),
    ("retrieve_packed", (0, 4, 8, 0, 0, 2, 32, T8), (0, 4, 8, 0, 0, 2, 31, T8)),
    ("retrieve_packed", (0, 4, 8, 0, 0, 3, 0, T8), (0, 4, 8, 0, 0, 3, 2, T8)),
    ("sequential_passes", (0, 9, 0, 100, 8), (0, 8, 0, 100, 8)),
    ("stacked_passes", (0, 9, 0, 100, 0, 8, 8), (0, 8, 0, 100, 0, 8, 8)),
    # Cursors over a span whose slots, F keys to a word, pass the segment's
    # blocks; over fields that reach bit 64 or more, or have no bits.
    ("practice_cursors", (0, 8, 0, 25, 3, 2, T8), (0, 8, 0, 24, 3, 2, T8)),
    ("practice_cursors", (0, 8, 0, 8, 2, 32, T8), (0, 8, 0, 8, 2, 31, T8)),
    ("practice_cursors", (0, 8, 0, 8, 3, 0, T8), (0, 8, 0, 8, 3, 2, T8)),
]


def _kernel(name):
    """Kernel or pass loop ``name`` of the active backend."""
    return getattr(active_loops() if name in _LOOP_NAMES else active(), name)


def _arguments(name, words, args):
    """``words`` and ``args`` in the order of kernel ``name``'s parameters:
    an array parameter takes the next of ``words`` (``None`` once they run
    out), any other the next of ``args``, until ``args`` run out."""
    arrays = ckernels.SIGNATURES[name][0].split()
    words, args, params = iter(words), list(args), []
    for param in ckernels._params(name):
        if param in arrays:
            params.append(next(words, None))
        elif args:
            params.append(args.pop(0))
        else:
            break
    return params


def _call(name, args, lengths):
    """Kernel ``name`` of the active backend on fresh ramps of ``lengths``:
    its result or its error, and the words it left."""
    words = [np.arange(n, dtype=np.int64) for n in lengths]
    try:
        got = tuple(int(x) for x in np.atleast_1d(_kernel(name)(*_arguments(name, words, args))))
    except IndexError as exc:
        got = str(exc)
    return got, [w.tolist() for w in words]


@needs_c
@pytest.mark.parametrize("name, bad, good", PAST_THE_END)
def test_c_kernels_check_their_bounds(name, bad, good):
    """A call past the arrays never reaches C: it behaves as on numpy,
    an ``IndexError`` where an index leaves the array.  A kernel whose
    last array may be ``None`` (the payload of ``practice`` and of
    ``partition_values``) runs without it and with it."""
    arrays = ckernels.SIGNATURES[name][0].split()
    params = ckernels._params(name)
    optional = params[len(params) - len(getattr(kernels, name).__defaults__ or ()):]
    required = len([a for a in arrays if a not in optional])
    shapes = [[8] * required] + ([[8, 8], [8, 7], [7, 8]] if len(arrays) == 2 else [])
    for lengths in dict.fromkeys(map(tuple, shapes)):
        for args in (bad, good):
            outcomes = {}
            for backend_name in ("c", "numpy"):
                with use_backend(backend_name):
                    outcomes[backend_name] = _call(name, args, lengths)
            assert outcomes["c"] == outcomes["numpy"], (lengths, args)
    with use_backend("numpy"):
        assert not isinstance(_call(name, good, [8] * len(arrays))[0], str)


@needs_c
def test_wide_bitmap_nodes_run_the_python_kernel():
    """A bitmap node of more than 63 keys would make the C kernel shift by
    64 bits or more: such a call runs the Python kernel on ``c`` too."""
    outcomes = set()
    for backend_name in ("c", "numpy"):
        S = np.array([0, 63, 64, 69], dtype=np.int64)
        with use_backend(backend_name):
            got = active().practice(S, 0, 4, 0, 0, 280, 70, 1, 1 << 62)
        outcomes.add((tuple(int(x) for x in got), tuple(S.tolist())))
    assert len(outcomes) == 1, outcomes


def test_every_kernel_has_a_bounds_case():
    assert {name for name, _, _ in PAST_THE_END} == set(ckernels.SIGNATURES)


@needs_c
def test_c_loops_budget_passes_as_numpy():
    """The C ``pass_budget`` and ``pass_interval`` give the companion
    budget, pack split and node form of ``kernels.pass_budget`` and
    ``kernels.pass_interval``: ``sequential_passes`` and ``stacked_passes``,
    which practice, store and retrieve by them, agree with ``numpy`` on
    segments of ``2**k`` and ``2**k +- 1`` keys of 4 values, and of keys
    over 4 times as many values as keys (whose passes pack where the word
    has room), at every width up to 10."""
    rng = np.random.default_rng(0xB0D)
    for w in range(3, 11):
        for k in range(1, w):
            for n, m in itertools.product(
                    sorted({2**k - 1, 2**k, 2**k + 1} & set(range(2, 2 ** (w - 1) + 1))),
                    (4, None)):
                m = min(m or 4 * n, 2 ** (w - 1))
                keys = rng.integers(0, m, size=n, dtype=np.int64)
                delta, top = int(keys.min()), int(keys.max())
                got = {}
                for backend_name in ("c", "numpy"):
                    S, L = keys.copy(), np.zeros(2 * n, dtype=np.int64)
                    with use_backend(backend_name):
                        loops = active_loops()
                        seq = loops.sequential_passes(S, 0, n, delta, top, w)
                        words = S.tolist()
                        S[:] = keys
                        stacked = loops.stacked_passes(S, L, 0, n, delta, top, 0, n, w)
                    got[backend_name] = (seq, words, stacked, S.tolist(), L.tolist())
                assert got["c"] == got["numpy"], (w, n)


def _reactivate(K, lo, hi, n_sorted):
    """``reactivate`` on every backend, over ``K`` and a payload ramp, with
    the arguments ``lo, hi, n_sorted, T8``: ``{backend: (result, keys,
    payload)}``."""
    got = {}
    for backend_name in (b for b in BACKENDS if available(b)):
        Kb = np.array(K, dtype=np.int64)
        Pb = np.arange(len(K), dtype=np.int64)
        with use_backend(backend_name):
            result = active().reactivate(Kb, Pb, lo, hi, n_sorted, T8)
        got[backend_name] = (tuple(int(x) for x in result), Kb.tolist(), Pb.tolist())
    return got


BAD, CURSOR, HOLE = kernels.STATUS_BAD_SLOT, kernels.STATUS_CURSOR, -T8


@pytest.mark.parametrize(
    "K, lo, hi, n_sorted, status",
    [
        # A node record (``T8 | 6``) that points past the prefix, met by a
        # chain.
        ([1, T8 | 6, 0, 0, 90, 91, 92, 93], 0, 4, 2, BAD),
        ([90, 91, 92, 93, 1, T8 | 6, 0, 0], 4, 8, 2, BAD),
        ([1, T8 | 6, 0, 0, 90, 91, 92, 93], 0, 4, 4, BAD),
        ([90, 91, 1, T8 | 6, 0, 0, 92, 93], 2, 6, 4, BAD),
        # Two tickets for one slot, one of which a chain places again and
        # again.
        ([0, 0], 0, 2, 2, BAD),
        ([5, 1, 0, 1, 1, 3], 1, 5, 4, BAD),
        ([90, 1, 1, 91], 1, 3, 2, BAD),
        ([1, 2, 2, 0, 4, 5, 6, 7, 8], 0, 9, 9, BAD),
        # Where the pass defers nothing, a ticket past the segment; an
        # untagged word below 0 (-129 has no bit 7), met by a scan.
        ([3, 0, 1, 77], 0, 3, 3, BAD),
        ([90, -129, 0, 1, 91], 1, 4, 3, BAD),
        # A word equal to a hole, met by a scan, and met by a chain before
        # its scan (which a chain's hole never is).
        ([90, HOLE, 1, 2, 91], 1, 4, 3, BAD),
        ([90, 91, 2, 1, HOLE, 3, 92], 2, 6, 4, BAD),
        # Deferring passes: more deferred keys in the prefix (5, 6) than
        # tail slots holding none (one; 7 is deferred); a tail node whose
        # record lies past the prefix; a word equal to a hole in the tail.
        ([90, 5, 6, 0, 7, 91], 1, 5, 2, CURSOR),
        ([90, 7, 1, T8 | 3, 91], 1, 4, 2, BAD),
        ([90, 5, HOLE, 91], 1, 3, 1, BAD),
    ],
)
def test_reactivate_stays_inside_its_segment(K, lo, hi, n_sorted, status):
    """A corrupt ticket, record or hole stops ``reactivate`` with
    ``STATUS_BAD_SLOT``, and a deferred key with no tail slot left with
    ``STATUS_CURSOR``, on every backend, before it writes outside ``[lo,
    hi)``; both backends leave the same words."""
    got = _reactivate(K, lo, hi, n_sorted)
    assert len(set(map(repr, got.values()))) == 1, got
    result, keys, payload = got["numpy"]
    assert result[1] == status
    outside = [i for i in range(len(K)) if not lo <= i < hi]
    assert [keys[i] for i in outside] == [K[i] for i in outside]
    assert [payload[i] for i in outside] == outside


def test_the_tail_cursor_passes_deferred_keys_of_n_sorted():
    """An untagged word equal to ``n_sorted`` is a deferred key: the tail
    cursor passes four of them, one block of its 4-word test, and puts
    the prefix's key 2 on ticket 1's slot, on every backend."""
    got = _reactivate([2, 0, 2, 2, 2, 2, 1, 9], 0, 8, 2)
    want = ((8, kernels.STATUS_OK), [0, 1, 2, 2, 2, 2, 2, 9], [1, 6, 2, 3, 4, 5, 0, 7])
    assert list(got.values()) == [want] * len(got)


@needs_c
def test_namespace_holds_only_the_kernels():
    """Anything else on it would be wrapped by tracers that wrap every
    attribute; the library handle lives in the loader module instead."""
    with use_backend("c"):
        ns = vars(active())
        loops = vars(active_loops())
    assert sorted(ns) == sorted(_KERNEL_NAMES)
    assert all(callable(fn) for fn in ns.values())
    # The pass loops call kernels themselves: they live on their own.
    assert sorted(loops) == sorted(_LOOP_NAMES)
    assert not set(ns) & set(loops)


def _views(n, rng):
    """Writable 1-D int64 views of several layouts, each ``n`` long."""
    base = rng.integers(0, 3 * n, size=6 * n)
    packed = np.zeros(n, dtype=[("pad", "i1"), ("key", "<i8")])  # 9-byte stride
    packed["key"] = base[:n]
    unaligned = np.frombuffer(bytearray(8 * n + 1), dtype=np.int64, count=n, offset=1)
    unaligned[:] = base[:n]
    return {
        "contiguous": base[:n].copy(),
        "every-2nd": base[::2][:n],
        "every-3rd": base[::3][:n],
        "reversed": base[::-1][:n],
        "struct-field": packed["key"],
        "unaligned": unaligned,
    }


@pytest.mark.parametrize("algo", ["assoc_improved", "assoc_seq", "assoc_rec", "perm_rank"])
def test_strided_and_unaligned_views_sort(backend, algo, rng):
    for layout, S in _views(300, rng).items():
        before = S.copy()
        assocsort.sort(S, algo, cfg=WordConfig(32))
        assert np.array_equal(S, np.sort(before)), layout


def test_strided_keys_and_payload(backend, rng):
    keys = rng.integers(0, 500, size=1000)
    payload = np.arange(3000, dtype=np.int64)
    keys0 = keys.copy()
    K, P = keys[::2], payload[::3][:500]
    K0, P0 = K.copy(), P.copy()
    assocsort.sort_by_key(K, P)
    assert np.array_equal(K, np.sort(K0))
    assert np.array_equal(K0[P // 3], K)  # each payload still names its key
    assert np.array_equal(np.sort(P), P0)
    # The words between the views' elements are untouched.
    assert np.array_equal(keys[1::2], keys0[1::2])
    outside = np.ones(3000, bool)
    outside[0:1500:3] = False
    assert np.array_equal(payload[outside], np.arange(3000)[outside])


def _child(code, tmp_path, path=None, **env_vars):
    """Run ``code`` in a fresh interpreter with an empty cache directory
    under ``tmp_path`` and ``PATH`` replaced by ``path`` if given."""
    env = dict(os.environ)
    env.pop("ASSOCSORT_BACKEND", None)
    env.update(XDG_CACHE_HOME=str(tmp_path / "cache"), **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )


# Logs, in ``steps``, each compile of a build's cffi module ("module"),
# sorts, and prints the backend and whether ``subprocess`` was imported
# (a compile).
SORT_AND_REPORT = (
    "import builtins, os, sys\n"
    "from assocsort.ckernels import PREFIX\n"
    "steps = []\n"
    "_compile = builtins.compile\n"
    "def compile(source, filename, *args, **kwargs):\n"
    "    if os.path.basename(filename).startswith(PREFIX):\n"
    "        steps.append('module')\n"
    "    return _compile(source, filename, *args, **kwargs)\n"
    "builtins.compile = compile\n"
    "import numpy as np, assocsort\n"
    "from assocsort.backend import current_backend\n"
    "S = np.arange(500, dtype=np.int64)[::-1] % 37\n"
    "assocsort.sort(S)\n"
    "assert (S[:-1] <= S[1:]).all()\n"
    "print(current_backend(), 'subprocess' in sys.modules)\n"
)
# The files of a build: its library and its cffi module.
CACHED = [".py", ".so"]


@pytest.fixture
def no_cc(tmp_path):
    """A ``PATH`` with no C compiler on it."""
    empty = tmp_path / "bin"
    empty.mkdir()
    return empty


def test_no_compiler_falls_back_to_numpy(tmp_path, no_cc):
    proc = _child(SORT_AND_REPORT, tmp_path, path=no_cc)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "numpy"


def test_no_compiler_refuses_forced_c(tmp_path, no_cc):
    proc = _child(SORT_AND_REPORT, tmp_path, path=no_cc, ASSOCSORT_BACKEND="c")
    assert proc.returncode != 0
    assert "ASSOCSORT_BACKEND" in proc.stderr
    assert "cannot run here" in proc.stderr
    proc = _child("import assocsort; assocsort.set_backend('c')", tmp_path, path=no_cc)
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr and "C compiler" in proc.stderr


@needs_c
def test_second_process_loads_from_cache_without_compiler(tmp_path, no_cc):
    first = _child(SORT_AND_REPORT, tmp_path)
    assert first.returncode == 0, first.stderr
    assert first.stdout.split() == ["c", "True"]
    built = sorted(p.suffix for p in (tmp_path / "cache" / "assocsort").iterdir())
    assert built == CACHED
    second = _child(SORT_AND_REPORT, tmp_path, path=no_cc)
    assert second.returncode == 0, second.stderr
    # A cache hit neither runs the compiler nor imports subprocess.
    assert second.stdout.split() == ["c", "False"]


@needs_c
def test_uncreatable_cache_falls_back_to_private_temp_dir(tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    proc = _child(SORT_AND_REPORT, tmp_path, TMPDIR=str(tmp))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "c"
    fallback = tmp / f"assocsort-{os.getuid()}"
    assert oct(fallback.stat().st_mode & 0o777) == oct(0o700)
    assert sorted(p.suffix for p in fallback.iterdir()) == CACHED


def _fake_build(directory, number, mtime):
    """The files of a build named by ``number``, last modified at ``mtime``."""
    name = f"{ckernels.PREFIX}{number:08x}"
    for suffix in CACHED:
        path = directory / (name + suffix)
        path.write_text("x")
        os.utime(path, (mtime, mtime))
    return name


def _build_of(path):
    return path.name[: len(ckernels.PREFIX) + 8]


def test_prune_keeps_the_newest_builds(tmp_path):
    """``_prune`` deletes the files of all but the newest ``KEEP_BUILDS``
    builds, never those of the build it is given, and nothing else."""
    names = [_fake_build(tmp_path, k, 1_000_000 + 10 * k) for k in range(8)]
    # The build just made may be older on disk than others (a slow build).
    current = names[1]
    others = [tmp_path / "notes.txt", tmp_path / f"{ckernels.PREFIX}x", tmp_path / ".build-1"]
    for path in others:
        path.write_text("y")
    ckernels._prune(str(tmp_path), current)
    left = {_build_of(p) for p in tmp_path.iterdir()} - {_build_of(p) for p in others}
    assert left == {current, *names[-(ckernels.KEEP_BUILDS - 1):]}
    assert all(path.exists() for path in others)
    # Each build that stays keeps every file.
    assert len([p for p in tmp_path.iterdir() if _build_of(p) == current]) == len(CACHED)
    ckernels._prune(str(tmp_path / "missing"), current)


def test_a_build_without_its_library_is_not_opened(tmp_path):
    """``_open`` refuses a build whose library is gone before it runs the
    build's module or asks cffi to load the library."""
    name = f"{ckernels.PREFIX}{0:08x}"
    (tmp_path / (name + ".py")).write_text("raise AssertionError('module ran')\n")
    with pytest.raises(FileNotFoundError, match=re.escape(name + ".so")):
        ckernels._open(str(tmp_path), name)


@needs_c
def test_a_build_prunes_older_builds_and_a_pruned_build_is_rebuilt(tmp_path):
    """A process whose build is gone builds it again, and that build
    deletes the builds past ``KEEP_BUILDS``.  It goes straight to the
    compiler, without running the module of a build it cannot load."""
    assert _child(SORT_AND_REPORT, tmp_path).returncode == 0
    cache = tmp_path / "cache" / "assocsort"
    [so] = cache.glob("*.so")
    old = [_fake_build(cache, k, 1_000_000 + k) for k in range(ckernels.KEEP_BUILDS + 2)]
    so.unlink()
    # Logs each build beside the compiles of the module, in order.
    build = ("from assocsort import ckernels as ck\n"
             "ck._build = lambda *a, f=ck._build: (steps.append('build'), f(*a))[1]\n")
    head, sort = SORT_AND_REPORT.split("import numpy")
    proc = _child(head + build + "import numpy" + sort + "print(*steps)\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = proc.stdout.split()
    assert report == ["c", "True", "build", "module"], report
    builds = {_build_of(p) for p in cache.iterdir()}
    assert builds == {_build_of(so), *old[-(ckernels.KEEP_BUILDS - 1):]}


@needs_c
def test_a_loaded_build_outlives_newer_builds_in_a_prune(tmp_path):
    """Loading a build marks it used, so a prune keeps it over builds made
    after it but used less recently."""
    assert _child(SORT_AND_REPORT, tmp_path).returncode == 0
    cache = tmp_path / "cache" / "assocsort"
    [so] = cache.glob("*.so")
    for path in cache.iterdir():
        os.utime(path, (1_000_000, 1_000_000))
    newer = [_fake_build(cache, k, 2_000_000 + k) for k in range(ckernels.KEEP_BUILDS + 1)]
    proc = _child(SORT_AND_REPORT, tmp_path)
    assert proc.stdout.split() == ["c", "False"], proc.stderr
    ckernels._prune(str(cache), newer[-1])
    builds = {_build_of(p) for p in cache.iterdir()}
    assert builds == {_build_of(so), newer[-1], *newer[-(ckernels.KEEP_BUILDS - 1):-1]}
