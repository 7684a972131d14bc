"""The kernel backends must be indistinguishable except for speed."""

import contextlib
import contextvars
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import assocsort
from assocsort.adapter import ALGORITHMS
from assocsort.backend import (
    BACKENDS,
    _KERNEL_NAMES,
    _LOOP_NAMES,
    active,
    active_loops,
    available,
    current_backend,
    set_backend,
    use_backend,
    warmup,
)
from assocsort.counters import OpCounters
from assocsort.words import WordConfig

COMPILED = [name for name in BACKENDS if name != "numpy" and available(name)]

CFG32 = WordConfig(32)


def _inputs(rng, name, n):
    if name in ("cycle_distinct", "distinct_improved"):
        return rng.choice(20 * n, size=n, replace=False).astype(np.int64)
    return rng.integers(0, 5 * n, size=n).astype(np.int64)


@pytest.mark.skipif(not COMPILED, reason="no compiled backend can run here")
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_output_and_counters_identical(algo, rng):
    for n in (1, 2, 33, 400):
        vals = _inputs(rng, algo, n)
        outcomes = {}
        for name in COMPILED + ["numpy"]:
            with use_backend(name):
                S = vals.copy()
                c = OpCounters()
                ALGORITHMS[algo](S, cfg=CFG32, counters=c)
                outcomes[name] = (S.tolist(), c.passes, c.moves, c.node_creations, c.max_depth)
        for name in COMPILED:
            assert outcomes[name] == outcomes["numpy"], f"{algo} on {name} diverged at n={n}"


def test_use_backend_restores():
    before = current_backend()
    with use_backend("numpy"):
        assert current_backend() == "numpy"
    assert current_backend() == before


def test_threads_select_their_own_backend():
    """Two threads hold different backends at once, each sorting with its
    own; a thread that selects none gets the default, and the selection
    of this thread is untouched."""
    before = current_backend()
    default = contextvars.Context().run(current_backend)  # of a context that chose none
    others = [b for b in BACKENDS if b != before and available(b)]
    if not others:
        pytest.skip("one backend can run here")
    other = others[-1]
    barrier = threading.Barrier(3, timeout=60)
    seen = {}

    def work(name):
        try:
            with use_backend(name) if name else contextlib.nullcontext():
                barrier.wait()  # every thread has made its selection
                S = np.arange(300, dtype=np.int64)[::-1].copy()
                assocsort.sort(S)
                seen[name] = (current_backend(), bool(np.all(S[:-1] <= S[1:])))
                barrier.wait()  # no thread leaves its block before the others look
        except threading.BrokenBarrierError:
            seen[name] = "barrier broken"

    with use_backend(other):
        threads = [threading.Thread(target=work, args=(name,)) for name in (before, other, None)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert current_backend() == other
    assert seen == {before: (before, True), other: (other, True), None: (default, True)}
    assert current_backend() == before


def test_default_is_first_available():
    """c, then numpy: the first that can run here."""
    code = "from assocsort.backend import current_backend; print(current_backend())"
    proc = _run_child(None, code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == next(b for b in BACKENDS if available(b))


def test_set_backend_rejects_unknown():
    with pytest.raises(ValueError):
        set_backend("cython")


def test_warmup_reports_backend():
    assert warmup() in BACKENDS


# The kernels that sorts and baselines call through ``active()``: the
# front door's scan, ``sort_full_universe``'s split and the radix baseline.
# The pass loops call the others within the backend.
ACTIVE_KERNELS = ("min_max", "partition_values", "radix_pass")


@pytest.mark.parametrize("name", BACKENDS)
def test_warmup_calls_every_kernel(name):
    if not available(name):
        pytest.skip(f"{name} backend unavailable")
    calls = dict.fromkeys(_KERNEL_NAMES, 0)

    def counting(kernel_name, fn):
        def call(*args):
            calls[kernel_name] += 1
            return fn(*args)

        return call

    with use_backend(name):
        ns = active()
        originals = dict(vars(ns))
        try:
            for kernel_name, fn in originals.items():
                setattr(ns, kernel_name, counting(kernel_name, fn))
            assert warmup() == name
        finally:
            for kernel_name, fn in originals.items():
                setattr(ns, kernel_name, fn)
    assert [k for k in ACTIVE_KERNELS if not calls[k]] == []


@pytest.mark.parametrize("name", BACKENDS)
def test_warmup_calls_every_loop(name):
    if not available(name):
        pytest.skip(f"{name} backend unavailable")
    calls = dict.fromkeys(_LOOP_NAMES, 0)
    hooked = dict.fromkeys(_LOOP_NAMES, 0)

    def counting(loop_name, fn):
        def call(*args):
            calls[loop_name] += 1
            hooked[loop_name] += args[-1] is not None  # a traced sort's hook
            return fn(*args)

        return call

    with use_backend(name):
        ns = active_loops()
        originals = dict(vars(ns))
        try:
            for loop_name, fn in originals.items():
                setattr(ns, loop_name, counting(loop_name, fn))
            assert warmup() == name
        finally:
            for loop_name, fn in originals.items():
                setattr(ns, loop_name, fn)
    assert [k for k, c in calls.items() if not c] == []
    assert [k for k, c in calls.items() if not 0 < hooked[k] < c] == []


def test_warmup_does_not_import_numpy_random():
    code = (
        "import sys, assocsort\n"
        "before = 'numpy.random' in sys.modules\n"
        "assocsort.warmup()\n"
        "print(before, 'numpy.random' in sys.modules)\n"
    )
    proc = _run_child(None, code)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


def _run_child(env_value, code):
    """Run ``code`` in a fresh interpreter with ``ASSOCSORT_BACKEND`` set
    to ``env_value`` (unset for ``None``)."""
    env = dict(os.environ)
    if env_value is None:
        env.pop("ASSOCSORT_BACKEND", None)
    else:
        env["ASSOCSORT_BACKEND"] = env_value
    src = os.path.dirname(os.path.dirname(assocsort.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


class TestEnvFlag:
    def test_selects_numpy(self):
        proc = _run_child(
            "numpy",
            "from assocsort.backend import current_backend; print(current_backend())",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy"

    def test_numpy_backend_sorts_without_numba_path(self):
        code = (
            "import numpy as np\n"
            "import assocsort\n"
            "from assocsort.backend import current_backend\n"
            "assert current_backend() == 'numpy'\n"
            "S = np.random.default_rng(0).integers(0, 500, size=200)\n"
            "assocsort.sort(S.astype(np.int64))\n"
            "print('ok')\n"
        )
        proc = _run_child("numpy", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_rejects_garbage(self):
        proc = _run_child(
            "fortran",
            "from assocsort.backend import current_backend; current_backend()",
        )
        assert proc.returncode != 0
        assert "ASSOCSORT_BACKEND" in proc.stderr
