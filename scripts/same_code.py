"""Same code: whether two builds of ``kernels.c`` compile the pass loops'
untraced instances and the exported kernels to the same machine code at
the same addresses.

    git show 1ee93fe:src/assocsort/kernels.c > /tmp/base.c
    PYTHONPATH=src python scripts/same_code.py /tmp/base.c src/assocsort/kernels.c \\
        improved_untraced sequential_untraced stacked_untraced distinct_untraced

Both sources are compiled with the ``c`` backend's flags
(``ckernels.FLAGS``).  For each ``<loop>_untraced`` function and each
exported kernel (``ckernels.SIGNATURES``) it prints whether the
instructions ``objdump -d`` lists for it are the same in both libraries,
whether ``nm`` gives it the same address, and its offset within its
64-byte line in each (``@0x10 / @0x10``), so that code moved by whole
lines shows that its placement within them is unchanged.  Instructions are compared
without their own addresses and raw bytes, with jump and call targets
reduced to the symbol (and offset) ``objdump`` names, ``%rip`` offsets
dropped and ``objdump``'s ``#`` comments cut.  It exits 1 when a function
named on the command line differs in either, or is missing from a build.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

from assocsort import ckernels

# "0000000000009390 <improved_untraced>:" opens a function's listing.
HEAD = re.compile(r"^[0-9a-f]+ <([^>]+)>:$")
# "    9394:\tmov ..." is one of its instructions.
INSN = re.compile(r"^\s*[0-9a-f]+:\t(.*)$")
# The bytes of a cache line, which the offsets are taken within.
LINE = 64


def build(source, directory, name):
    """The path of ``source`` compiled with the backend's flags."""
    so = os.path.join(directory, name + ".so")
    subprocess.run(["cc", *ckernels.FLAGS, "-o", so, source], check=True)
    return so


def normalized(insn):
    """``insn`` with what only places it dropped: a target's address
    (``1234 <f+0x8>`` becomes ``<f+0x8>``), a ``%rip`` offset and the
    comment."""
    insn = insn.split("#", 1)[0]
    insn = re.sub(r"\b[0-9a-f]+ (<[^>]*>)", r"\1", insn)
    insn = re.sub(r"-?0x[0-9a-f]+\(%rip\)", "(%rip)", insn)
    return " ".join(insn.split())


def listing(so):
    """Each function's normalized instructions, by name."""
    text = subprocess.run(["objdump", "-d", "--no-show-raw-insn", so], check=True,
                          capture_output=True, text=True).stdout
    functions, current = {}, None
    for line in text.splitlines():
        head = HEAD.match(line)
        if head:
            current = functions.setdefault(head.group(1), [])
            continue
        insn = INSN.match(line)
        if insn and current is not None:
            current.append(normalized(insn.group(1)))
    return functions


def addresses(so):
    """Each text symbol's address, by name."""
    text = subprocess.run(["nm", so], check=True, capture_output=True, text=True).stdout
    found = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "Tt":
            found[parts[2]] = int(parts[0], 16)
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("funcs", nargs="*", metavar="FUNC",
                        help="functions that must be the same (exit 1 otherwise)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as directory:
        libs = [build(src, directory, name)
                for src, name in ((args.base, "base"), (args.new, "new"))]
        code_a, code_b = map(listing, libs)
        at_a, at_b = map(addresses, libs)
    names = sorted({n for n in (*at_a, *at_b) if n.endswith("_untraced")}
                   | set(ckernels.SIGNATURES) | set(args.funcs))
    differs = []
    for name in names:
        a, b = code_a.get(name), code_b.get(name)
        if a is None or b is None:
            code = "missing from " + ("base" if a is None else "new")
        else:
            code = "same" if a == b else f"differ ({len(a)} / {len(b)} instructions)"
        pa, pb = at_a.get(name), at_b.get(name)
        if pa is None or pb is None:
            place, line = "missing", ""
        else:
            place = "same" if pa == pb else f"differ ({pa:#x} / {pb:#x})"
            line = f"  line offset @{pa % LINE:#04x} / @{pb % LINE:#04x}"
        print(f"{name:22s} instructions {code:32s} address {place}{line}")
        if name in args.funcs and not (code == place == "same"):
            differs.append(name)
    if differs:
        print("differ:", ", ".join(differs))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
