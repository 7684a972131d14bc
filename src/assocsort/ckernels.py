"""The ``c`` kernel backend: ``kernels.c`` built by the system compiler and
called through cffi.

The first process to ask for it compiles ``kernels.c`` with
``cc -O2 -shared -fPIC`` (and ``-mavx2`` on an x86-64 CPU that has AVX2,
see :data:`ISA_FLAGS`) into a per-user cache and writes a cffi
out-of-line ABI module beside the library.  Every later process only runs
that small module and ``dlopen``\\ s the library.  A build is those two
files, named by a CRC-32 of the source, the declarations, the flags, the
machine and the cffi version, and written atomically (a temporary file,
then ``os.replace``), so concurrent first uses do not collide and an
edited source is rebuilt.  A new build deletes all but the most recently
used few builds in its directory (see :func:`_prune`); a process that
finds its build gone builds it again.

The cache is ``$XDG_CACHE_HOME/assocsort`` (default ``~/.cache/assocsort``);
when that cannot be created, ``assocsort-<uid>`` under the system's
temporary directory, which must belong to the user and be writable by no
one else.

:func:`load` returns the kernels as a namespace whose members take the
same arguments, by position, and return the same tuples as
:mod:`assocsort.kernels`.  It raises :class:`BuildError`, naming the
reason, when cffi, the compiler or a usable cache directory is missing or
the compile fails.  Every member is one wrapper (see :func:`_bind`): an
array becomes its address and byte stride, ``None`` for one ``NULL``, and
a pass loop's ``emit`` ``NULL`` or a cffi callback of the hook.  An
exception the hook raises stops the C loop at that phase and is raised
once the loop returns.

Each member checks the kernel's index arguments against the length of
its arrays before any C runs.  When a word the kernel may touch lies
outside them, the Python kernel runs instead: it raises ``IndexError``
where an index leaves the array, and otherwise gives the ``numpy``
backend's result (a slot range past the end is harmless when no key
lands there).  A kernel that follows the words themselves to a slot
(``reactivate``: its tickets and node records, to the segment's sorted
prefix, and its deferred keys, to the tail cursor's next free slot)
checks that slot against its segment and fails with a status instead.
"""

import os
import sys
import zlib
from types import SimpleNamespace

from . import kernels as _kernels

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")


def _isa_flags() -> tuple:
    """``("-mavx2",)`` on an x86-64 host whose CPU lists AVX2, else ``()``.

    It reads ``/proc/cpuinfo`` and starts no process, so a cache hit stays
    cheap.  The flags are part of ``FLAGS`` and so of every build's name:
    a cache shared with a CPU without AVX2 never hands that CPU this build.
    """
    if not hasattr(os, "uname") or os.uname().machine != "x86_64":
        return ()
    try:
        with open("/proc/cpuinfo", "rb") as fh:
            info = fh.read()
    except OSError:
        return ()
    for line in info.splitlines():
        if line.startswith(b"flags"):
            return ("-mavx2",) if b"avx2" in line.split() else ()
    return ()


# The flags of the skip paths' vector instructions on this CPU (see the
# comment on them in kernels.c); the code is the same without them.
ISA_FLAGS = _isa_flags()
FLAGS = ("-O2", "-shared", "-fPIC", *ISA_FLAGS)
# Every file of a build is named ``PREFIX`` + 8 hex digits + a suffix.
PREFIX = "_kernels_"
# Builds a new build leaves in its directory, itself included, the most
# recently used first: enough that checkouts of a few versions used side
# by side do not evict each other.
KEEP_BUILDS = 4

# Every kernel every backend provides, by name: (its array parameters,
# results, bounds).  The C function takes the Python kernel's parameters
# in order, an array as an address and a byte stride, ``emit`` as a
# ``hook``, any other as an ``int64_t``; it returns its one result, or
# writes ``results`` of them to a trailing ``int64_t *out``.  Bounds, of
# ``size`` (the shortest array's length) and the kernel's arguments, holds
# where every word the kernel may touch lies inside its arrays and every
# shift stays inside a word, so that the C kernel may run.
_scan = lambda size, S, lo, hi, *_: 0 <= lo and hi <= size
# A node of the form ``(F, b)`` shifts ``b``-bit fields by up to ``(F - 1) * b``.
_form = lambda F, b: 1 <= F and 1 <= b and F * b <= 63
# A loop of word width ``w`` packs positions of segments up to ``1 << (w - 1)``.
_width = lambda w, head, hi: 2 <= w <= 63 and hi - head <= 1 << (w - 1)

SIGNATURES = {
    "min_max": ("S", 2, lambda size, S, lo, hi: 0 <= lo < size and hi <= size),
    "implicit_practice": ("S", 4, _scan),
    "collect_fixpoints": ("S", 2, _scan),
    "practice": ("S P", 7, lambda size, S, lo, hi, delta, base, span, F, b, *_: (
        _scan(size, S, lo, hi) and _form(F, b) and 0 <= base
        and lo + base - (-span // F) <= size)),
    "unpractice": ("S", 4, lambda size, S, lo, hi, delta, base, span, F, b, *_: (
        _scan(size, S, lo, hi) and _form(F, b) and 0 <= base and 0 <= span)),
    "store_nodes": ("S", 4, _scan),
    "partition_values": ("S P", 2, _scan),
    "retrieve_packed": ("S", 3, lambda size, S, lo, mem_hi, write_end, delta, base, F, b, _: (
        0 <= lo and mem_hi <= size and write_end <= size and _form(F, b))),
    "store_records": ("S", 3, _scan),
    "retrieve_scan": ("S", 2, lambda size, S, lo, hi, n_d, n_c, delta, F, b, _: (
        _scan(size, S, lo, hi) and _form(F, b) and 0 <= n_c and lo + n_d + n_c <= size)),
    "practice_cursors": ("S", 7, lambda size, S, lo, hi, delta, span, F, b, _: (
        _scan(size, S, lo, hi) and _form(F, b) and 0 <= span <= F * (hi - lo))),
    "improved_passes": ("S", 8, lambda size, S, head, hi, delta, top, F, b, *_: (
        _scan(size, S, head, hi) and _form(F, b))),
    "distinct_passes": ("S", 10, _scan),
    "sequential_passes": ("S", 10, lambda size, S, head, hi, delta, top, w, _: (
        _scan(size, S, head, hi) and _width(w, head, hi))),
    "stacked_passes": ("S L", 12, lambda size, S, L, head, hi, delta, top, depth, cap, w, _: (
        0 <= head and hi <= len(S) and 0 <= depth <= cap and 2 * cap <= len(L)
        and _width(w, head, hi))),
    "rank_passes": ("K P", 10, lambda size, K, P, head, hi, *_: 0 <= head and hi <= size),
    "accumulate_records": ("K", 2, _scan),
    "repractice_idle": ("K", 2, lambda size, K, lo, hi, delta, span, _: (
        _scan(size, K, lo, hi) and lo + span <= size)),
    "reactivate": ("K P", 2, lambda size, K, P, lo, hi, *_: 0 <= lo and hi <= size),
    "restore_keys": ("K", 2, lambda size, K, lo, hi_sorted, *_: 0 <= lo and hi_sorted <= size),
    "radix_pass": ("src dst", 0, lambda size, src, dst, n, _: n <= size),
}


def _params(name):
    code = getattr(_kernels, name).__code__
    return code.co_varnames[: code.co_argcount]


def _declaration(name, arrays, results):
    args = ", ".join(f"char *{a}, int64_t {a}_s" if a in arrays.split()
                     else f"{'hook' if a == 'emit' else 'int64_t'} {a}" for a in _params(name))
    return f"void {name}({args}, int64_t *out);" if results else f"int64_t {name}({args});"


# A pass loop's ``emit``: NULL, or the hook it calls after each phase,
# which stops the loop by returning nonzero.
CDEF = "\n".join(["typedef int (*hook)(int64_t, int64_t);"] + [
    _declaration(name, *sig[:2]) for name, sig in SIGNATURES.items()])

# The dlopen()ed library.  It lives here, not in the kernel namespace: the
# namespace holds only kernels, and the library must outlive every call.
_lib = None


class BuildError(RuntimeError):
    """The ``c`` backend cannot be built or loaded here."""


def _cache_dir() -> str:
    """Where the built kernels are cached (before any fallback)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "assocsort")


def _module_name(source: bytes, cffi_version: str) -> str:
    machine = os.uname().machine if hasattr(os, "uname") else ""
    salt = "\0".join((CDEF, " ".join(FLAGS), sys.platform, machine, cffi_version))
    return f"{PREFIX}{zlib.crc32(source + salt.encode()):08x}"


def _writable_dir(primary: str) -> str:
    try:
        os.makedirs(primary, exist_ok=True)
        if os.access(primary, os.W_OK | os.X_OK):
            return primary
    except OSError:
        pass
    import tempfile

    fallback = os.path.join(tempfile.gettempdir(), f"assocsort-{os.getuid()}")
    try:
        os.makedirs(fallback, mode=0o700, exist_ok=True)
        st = os.stat(fallback)
    except OSError as exc:
        raise BuildError(f"no writable cache directory: {exc}") from None
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise BuildError(f"{fallback} is not private to this user")
    return fallback


def _open(directory: str, name: str):
    """``(ffi, lib)`` from a cached build; ``OSError`` when there is none.

    A build that opens is marked as used (its library's modification time
    is set to now), so that :func:`_prune` keeps the builds in use.
    """
    path = os.path.join(directory, name)
    # Checked first, so that a build whose library is gone (pruned by
    # another process) goes to the rebuild without running its module.
    if not os.path.exists(path + ".so"):
        raise FileNotFoundError(path + ".so")
    scope = {}
    with open(path + ".py", encoding="utf-8") as fh:
        exec(compile(fh.read(), path + ".py", "exec"), scope)
    ffi = scope["ffi"]
    lib = ffi.dlopen(path + ".so")
    try:
        os.utime(path + ".so")
    except OSError:
        pass
    return ffi, lib


def _build(directory: str, name: str, source: bytes) -> None:
    """Compile ``source`` and write its cffi module into ``directory``."""
    import shutil
    import subprocess
    import tempfile

    import cffi

    tmp = tempfile.mkdtemp(prefix=".build-", dir=directory)
    try:
        src = os.path.join(tmp, "kernels.c")
        with open(src, "wb") as fh:
            fh.write(source)
        so = os.path.join(tmp, name + ".so")
        try:
            proc = subprocess.run(
                ["cc", *FLAGS, "-o", so, src],
                capture_output=True, text=True, timeout=300,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise BuildError(f"cannot run the C compiler cc: {exc}") from None
        if proc.returncode != 0:
            raise BuildError(f"cc failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        ffi = cffi.FFI()
        ffi.cdef(CDEF)
        ffi.set_source(name, None)
        py = ffi.compile(tmpdir=tmp)
        # The module goes last: a cached module means a complete build.
        os.replace(so, os.path.join(directory, name + ".so"))
        os.replace(py, os.path.join(directory, name + ".py"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _prune(directory, name)


def _prune(directory: str, name: str) -> None:
    """Delete the files of every build in ``directory`` but build ``name``
    and the most recently used others, ``KEEP_BUILDS`` in all, by the
    newest modification time of each build's files (:func:`_open` sets its
    library's on every load).  Files that vanish or cannot be deleted
    meanwhile are left to the next build."""
    try:
        files = os.listdir(directory)
    except OSError:
        return
    builds = {}
    for file in files:
        build, dot, _ = file.partition(".")
        if dot and build != name and build.startswith(PREFIX) and len(build) == len(name):
            builds.setdefault(build, []).append(os.path.join(directory, file))

    def mtime(build):
        times = []
        for path in builds[build]:
            try:
                times.append(os.path.getmtime(path))
            except OSError:
                pass
        return max(times, default=0.0)

    for build in sorted(builds, key=mtime, reverse=True)[KEEP_BUILDS - 1:]:
        for path in builds[build]:
            try:
                os.unlink(path)
            except OSError:
                pass


def load() -> SimpleNamespace:
    """The ``c`` kernels, built into the cache on first use."""
    global _lib
    try:
        import _cffi_backend
    except ImportError as exc:
        raise BuildError(f"cffi is not installed ({exc})") from None
    try:
        with open(SOURCE, "rb") as fh:
            source = fh.read()
        name = _module_name(source, _cffi_backend.__version__)
        directory = _cache_dir()
        try:
            ffi, _lib = _open(directory, name)
        except OSError:
            directory = _writable_dir(directory)
            try:
                ffi, _lib = _open(directory, name)
            except OSError:
                _build(directory, name, source)
                ffi, _lib = _open(directory, name)
    except OSError as exc:
        raise BuildError(f"cannot build the c kernels: {exc}") from None
    return _bind(ffi, _lib)


def _bind(ffi, lib) -> SimpleNamespace:
    """The kernels over the C functions of ``lib``: one wrapper, bound to
    each kernel's entry of :data:`SIGNATURES`, since a sort makes only two
    or three kernel calls (its ``min_max`` scan and its pass loop)."""
    new, from_buffer, NULL = ffi.new, ffi.from_buffer, ffi.NULL

    def hook(emit, raised):
        """``NULL`` for an ``emit`` of ``None``, else a C hook that calls it;
        where it raises, the exception goes to ``raised`` and the hook
        returns 1, which stops the loop."""
        if emit is None:
            return NULL

        def call(step, passes):
            emit(step, passes)
            return 0

        return ffi.callback("hook", call, error=1, onerror=lambda _, e, tb: raised.append(e))

    def bind(name, arrays, results, bounds):
        py, c = getattr(_kernels, name), getattr(lib, name)
        params = _params(name)
        defaults = py.__defaults__ or ()
        kinds = tuple("array" if a in arrays.split() else a for a in params)

        def kernel(*args):
            if len(args) < len(params):
                args += defaults[len(args) - len(params):]
            cargs, sizes, raised = [], [], []
            for kind, a in zip(kinds, args):
                if kind != "array":
                    cargs.append(hook(a, raised) if kind == "emit" else a)
                elif a is None:
                    cargs += NULL, 0
                else:
                    sizes.append(len(a))
                    try:
                        cargs += from_buffer("char[]", a), 8
                    except ValueError:  # a strided view exports no buffer
                        cargs += ffi.cast("char *", a.__array_interface__["data"][0]), a.strides[0]
            if not bounds(min(sizes), *args):
                return py(*args)
            if not results:
                return c(*cargs)
            out = new(f"int64_t[{results}]")
            c(*cargs, out)
            if raised:
                raise raised[0]
            return tuple(out)

        kernel.__name__ = kernel.__qualname__ = name
        kernel.__doc__ = py.__doc__
        return kernel

    return SimpleNamespace(**{name: bind(name, *sig) for name, sig in SIGNATURES.items()})
