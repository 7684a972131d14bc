"""The one input contract every sorter shares.

Keys (and a payload) must be writable 1-D ``int64`` numpy arrays, and a
payload must share no memory with its keys.  Anything else is refused
with :class:`~assocsort.errors.InputError` before a single word is
written, the same way by every entry point.  So is an array longer than
the ``2**(w-1)`` node slots of the word model, with
:class:`~assocsort.errors.WordRangeError`.
"""

import numpy as np
import pytest

import assocsort
from assocsort.adapter import ALGORITHMS, sort_full_universe
from assocsort.errors import AssocSortError, InputError, WordRangeError
from assocsort.ranksort import argsort_keys, sort_by_key
from assocsort.words import WordConfig

from .conftest import arr

KEYS = [3, 1, 2, 1]
CFG8 = WordConfig(8)


def _read_only():
    a = np.array(KEYS, dtype=np.int64)
    a.flags.writeable = False
    return a


MALFORMED = {
    "int32": lambda: np.array(KEYS, dtype=np.int32),
    "uint64": lambda: np.array(KEYS, dtype=np.uint64),
    "float64": lambda: np.array(KEYS, dtype=np.float64),
    "2-D": lambda: np.array([KEYS, KEYS], dtype=np.int64),
    "read-only": _read_only,
    "list": lambda: list(KEYS),
}


def _snapshot(x):
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    return list(x)


SORTERS = {
    **ALGORITHMS,
    "sort_by_key": lambda S, cfg: sort_by_key(S, np.zeros(len(S), np.int64), cfg),
    "sort_full_universe": lambda S, cfg: sort_full_universe(S, cfg=cfg),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("name", sorted(SORTERS))
def test_malformed_keys_refused_untouched(name, kind):
    S = MALFORMED[kind]()
    before = _snapshot(S)
    with pytest.raises(InputError):
        SORTERS[name](S, cfg=CFG8)
    assert _snapshot(S) == before


@pytest.mark.parametrize("name", sorted(SORTERS))
def test_over_long_array_refused_untouched(name):
    """``2**(w-1) + 1`` keys at w = 4, four below ``2**(w-1)`` and five at or
    above it, so that each half of a top-bit partition would fit."""
    cfg = WordConfig(4)
    S = np.array([5 * i % 16 for i in range(cfg.tag_mask + 1)], dtype=np.int64)
    before = _snapshot(S)
    with pytest.raises(WordRangeError) as exc:
        SORTERS[name](S, cfg=cfg)
    assert "node slots" in str(exc.value)
    assert _snapshot(S) == before


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_payload_refused_untouched(kind):
    K = arr(*KEYS)
    P = MALFORMED[kind]()
    before = _snapshot(P)
    with pytest.raises(InputError):
        sort_by_key(K, P, CFG8)
    assert _snapshot(P) == before
    assert K.tolist() == KEYS


@pytest.mark.parametrize("alias", ["same", "reversed"], ids=["P is K", "P is K[::-1]"])
def test_payload_aliasing_keys_refused(alias):
    K = arr(*KEYS)
    P = K if alias == "same" else K[::-1]
    with pytest.raises(InputError) as exc:
        sort_by_key(K, P, CFG8)
    assert "shares memory" in str(exc.value)
    assert K.tolist() == KEYS



# Inputs with no length: every entry point refuses them with a typed error.
UNSIZED = {"0-d": lambda: np.array(5, dtype=np.int64), "int": lambda: 5, "None": lambda: None}
ENTRIES = {
    **{f"sort/{name}": lambda x, name=name: assocsort.sort(x, name) for name in ALGORITHMS},
    "sort_by_key": lambda x: sort_by_key(x, np.zeros(1, np.int64)),
    "argsort_keys": argsort_keys,
    "sort_full_universe": sort_full_universe,
}


@pytest.mark.parametrize("kind", sorted(UNSIZED))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_unsized_input_refused(entry, kind):
    with pytest.raises(AssocSortError):
        ENTRIES[entry](UNSIZED[kind]())


@pytest.mark.parametrize("entry", [assocsort.sort, sort_full_universe], ids=["sort", "sort_full_universe"])
def test_unknown_algorithm_refused_untouched(entry):
    S = arr(*KEYS)
    with pytest.raises(InputError) as exc:
        entry(S, "nope")
    assert "unknown algorithm 'nope'" in str(exc.value)
    assert S.tolist() == KEYS
