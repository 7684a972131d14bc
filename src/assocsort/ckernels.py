"""The ``c`` kernel backend: ``kernels.c`` built by the system compiler and
called through cffi.

The first process to ask for it compiles ``kernels.c`` with
``cc -O2 -shared -fPIC`` (and ``-mavx2`` on an x86-64 CPU that has AVX2,
see :data:`ISA_FLAGS`) into a per-user cache and writes a cffi
out-of-line ABI module beside the library.  Every later process only runs
that small module and ``dlopen``\\ s the library.  Both files are named by a
CRC-32 of the source, the declarations, the flags, the machine and the
cffi version, and are written atomically (a temporary file, then
``os.replace``), so concurrent first uses do not collide and an edited
source is rebuilt.  The compiled code of that module and of the generated
Python wrappers that call the kernels is cached beside the library (see
:func:`_cached_code`), so a cache hit compiles nothing.  A new build
deletes all but the most recently used few builds in its directory (see
:func:`_prune`); a process that finds its build gone builds it again.

The cache is ``$XDG_CACHE_HOME/assocsort`` (default ``~/.cache/assocsort``);
when that cannot be created, ``assocsort-<uid>`` under the system's
temporary directory, which must belong to the user and be writable by no
one else.

:func:`load` returns the kernels as a namespace whose members take the
same arguments and return the same tuples as :mod:`assocsort.kernels`.  It
raises :class:`BuildError`, naming the reason, when cffi, the compiler or a
usable cache directory is missing or the compile fails.

Each member checks the kernel's index arguments against the length of
its arrays before any C runs.  When a word the kernel may touch lies
outside them, the Python kernel runs instead: it raises ``IndexError``
where an index leaves the array, and otherwise gives the ``numpy``
backend's result (a slot range past the end is harmless when no key
lands there).  A kernel that follows the words themselves to a slot
(``reactivate``'s tickets and node records) checks that slot against its
segment and fails with a status instead.
"""

import marshal
import os
import sys
import zlib
from importlib.util import MAGIC_NUMBER
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

# Every kernel, by name: (leading array arguments, results, bounds).  This
# is the list of kernels every backend provides.  The other arguments are
# integers, named as in the Python kernel.  Results 0 means the C function
# returns the kernel's one integer; otherwise it writes that many into a
# trailing ``int64_t *out``.  Bounds is the condition, over those integers
# and ``size`` (the length of the shortest array) or an array's own
# ``len``, under which every word the kernel may touch lies inside its
# arrays and every shift it makes stays inside a word, so the C kernel may
# run.
_SCAN = "0 <= lo and hi <= size"
# A node of the form ``(F, b)`` shifts a field of ``b`` bits by up to
# ``(F - 1) * b`` bits.
_FORM = " and 1 <= F and 1 <= b and F * b <= 63"
# A loop that takes the word width ``w`` packs positions of segments up to
# ``1 << (w - 1)`` words, so every shift it makes stays inside a word.
_WIDTH = " and 2 <= w <= 63 and hi - {} <= 1 << (w - 1)"
SIGNATURES = {
    "min_max": (1, 2, "0 <= lo < size and hi <= size"),
    "implicit_practice": (1, 4, _SCAN),
    "collect_fixpoints": (1, 2, _SCAN),
    "practice": (1, 7, _SCAN + _FORM + " and 0 <= base and lo + base - (-span // F) <= size"),
    "store_nodes": (1, 4, _SCAN),
    "partition_values": (1, 2, _SCAN),
    "retrieve_packed": (1, 3, "0 <= lo and mem_hi <= size and write_end <= size" + _FORM),
    "store_records": (1, 3, _SCAN),
    "retrieve_scan": (1, 2, _SCAN + _FORM + " and 0 <= n_c and lo + n_d + n_c <= size"),
    "practice_cursors": (1, 7, _SCAN + _FORM + " and 0 <= span <= F * (hi - lo)"),
    "improved_passes": (1, 8, "0 <= head and hi <= size" + _FORM),
    "distinct_passes": (1, 10, "0 <= head and hi <= size"),
    "sequential_passes": (1, 10, "0 <= head and hi <= size" + _WIDTH.format("head")),
    "stacked_passes": (2, 12, "0 <= head and hi <= len(S) and 0 <= depth <= cap"
                       " and 2 * cap <= len(L)" + _WIDTH.format("head")),
    "rank_passes": (2, 10, "0 <= head and hi <= size"),
    "practice_rank": (2, 6, _SCAN + " and lo + span <= size"),
    "accumulate_records": (1, 2, _SCAN),
    "repractice_idle": (1, 2, _SCAN + " and lo + span <= size"),
    "reactivate": (2, 2, _SCAN),
    "restore_keys": (1, 2, "0 <= lo and hi_sorted <= size"),
    "radix_pass": (2, 0, "n <= size"),
}


def _params(name):
    code = getattr(_kernels, name).__code__
    return code.co_varnames[: code.co_argcount]


def _declaration(name, arrays, results):
    params = _params(name)
    args = [f"char *{a}, int64_t {a}_s" for a in params[:arrays]]
    args += [f"int64_t {a}" for a in params[arrays:]]
    if results:
        return f"void {name}({', '.join(args)}, int64_t *out);"
    return f"int64_t {name}({', '.join(args)});"


CDEF = "\n".join(_declaration(name, *sig[:2]) for name, sig in SIGNATURES.items())

# The file name the generated kernel wrappers are compiled under.
WRAPPERS = "<assocsort c kernel wrappers>"

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
    with open(path + ".py", encoding="utf-8") as fh:
        source = fh.read()
    scope = {}
    exec(_cached_code(path, "module", source, path + ".py"), scope)
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
    return _bind(ffi, _lib, os.path.join(directory, name))


def _wrapper(name, arrays, results, bounds):
    """Source of the Python function that calls C kernel ``name``.

    It takes the Python kernel's arguments and returns its tuple; each
    array becomes an address and a byte stride.  Unless ``bounds`` hold,
    it hands the call to the Python kernel ``py_<name>`` instead.
    """
    params = _params(name)
    lines = [f"def {name}({', '.join(params)}):", f"    size = len({params[0]})"]
    for a in params[1:arrays]:
        lines.append(f"    if len({a}) < size: size = len({a})")
    lines += [f"    if not ({bounds}):", f"        return py_{name}({', '.join(params)})"]
    cargs = []
    for a in params[:arrays]:
        lines += [
            "    try:",
            f"        {a}_p = from_buffer('char[]', {a})",
            f"        {a}_s = 8",
            "    except ValueError:",
            f"        {a}_p, {a}_s = strided({a})",
        ]
        cargs += [f"{a}_p", f"{a}_s"]
    cargs += params[arrays:]
    if not results:
        lines.append(f"    return c_{name}({', '.join(cargs)})")
        return "\n".join(lines)
    lines += [
        f"    out = new('int64_t[{results}]')",
        f"    c_{name}({', '.join(cargs)}, out)",
        f"    return {', '.join(f'out[{i}]' for i in range(results))}",
    ]
    return "\n".join(lines)


def _cached_code(path: str, kind: str, source: str, filename: str):
    """``source`` compiled as ``filename``, from the cache file of ``kind``
    beside build ``path`` when that holds it.

    The file, ``<path>.<bytecode magic number>.<kind>``, is the CRC-32s
    of ``source`` and of the marshalled code, then the code.  A file that
    is missing, truncated or holds other code is replaced, atomically, by
    a fresh compile (left as it is where the directory cannot be
    written).
    """
    path = f"{path}.{MAGIC_NUMBER.hex()}.{kind}"
    key = zlib.crc32(source.encode()).to_bytes(4, "little")
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        payload = data[8:]
        if data[:4] == key and data[4:8] == zlib.crc32(payload).to_bytes(4, "little"):
            return marshal.loads(payload)
    except (OSError, EOFError, ValueError, TypeError):
        pass
    code = compile(source, filename, "exec")
    payload = marshal.dumps(code)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(key + zlib.crc32(payload).to_bytes(4, "little") + payload)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
    return code


def _bind(ffi, lib, path: str) -> SimpleNamespace:
    """The kernels as Python functions over the C functions of ``lib``.

    They are generated, one per kernel, with the parameters of the Python
    twin spelled out: with a generic ``*args`` wrapper instead, a sort of
    5000 keys over 100n (~1,570 kernel calls) took about 7% longer.  The
    generated source is compiled once and cached beside the library at
    ``path`` (see :func:`_cached_code`).
    """

    def strided(A):
        """Address and byte stride of a 1-D view that exports no buffer."""
        return ffi.cast("char *", A.__array_interface__["data"][0]), A.strides[0]

    scope = {"__name__": __name__, "from_buffer": ffi.from_buffer,
             "new": ffi.new, "strided": strided}
    for name in SIGNATURES:
        scope["c_" + name] = getattr(lib, name)
        scope["py_" + name] = getattr(_kernels, name)
    source = "\n\n".join(_wrapper(name, *sig) for name, sig in SIGNATURES.items())
    exec(_cached_code(path, "wrappers", source, WRAPPERS), scope)
    for name in SIGNATURES:
        scope[name].__doc__ = getattr(_kernels, name).__doc__
    return SimpleNamespace(**{name: scope[name] for name in SIGNATURES})
