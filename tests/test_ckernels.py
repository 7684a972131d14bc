"""The ``c`` backend: its contract with the Python kernels, array layouts,
and how it is built, cached and given up.

The build and fallback tests each run fresh interpreters against an empty
cache directory, so they pay for one compile each.
"""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import assocsort
from assocsort import ckernels, kernels
from assocsort.backend import _KERNEL_NAMES, available
from assocsort.words import WordConfig

needs_c = pytest.mark.skipif(not available("c"), reason="c backend unavailable")

SRC = os.path.dirname(os.path.dirname(assocsort.__file__))


def test_status_codes_match():
    text = open(ckernels.SOURCE, encoding="utf-8").read()
    in_c = {k: int(v) for k, v in re.findall(r"#define (STATUS_\w+) (-?\d+)", text)}
    in_py = {k: v for k, v in vars(kernels).items() if k.startswith("STATUS_")}
    assert in_c == in_py


@needs_c
def test_namespace_holds_only_the_kernels():
    """Anything else on it would be wrapped by tracers that wrap every
    attribute; the library handle lives in the loader module instead."""
    from assocsort.backend import use_backend, active

    with use_backend("c"):
        ns = vars(active())
    assert sorted(ns) == sorted(_KERNEL_NAMES)
    assert all(callable(fn) for fn in ns.values())


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


SORT_AND_REPORT = (
    "import sys, numpy as np, assocsort\n"
    "from assocsort.backend import current_backend\n"
    "S = np.arange(500, dtype=np.int64)[::-1] % 37\n"
    "assocsort.sort(S)\n"
    "assert (S[:-1] <= S[1:]).all()\n"
    "print(current_backend(), 'subprocess' in sys.modules)\n"
)


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
    assert built == [".py", ".so"]
    second = _child(SORT_AND_REPORT, tmp_path, path=no_cc)
    assert second.returncode == 0, second.stderr
    # A cache hit neither compiles nor imports subprocess.
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
    assert sorted(p.suffix for p in fallback.iterdir()) == [".py", ".so"]
