#!/usr/bin/env python3
"""Per-ISA object check: the GEMM kernel objects define no weak symbol.

la/gemm_avx2.cpp and la/gemm_avx512.cpp are built with -mavx2 / -mavx512f
(src/CMakeLists.txt) and la/gemm_kernel.cpp picks one at run time, so the
binary runs on any x86-64 core. That holds only while nothing built for a
wider ISA can be linked into code every core runs. An inline or template
function with external linkage emitted in such an object is a weak (COMDAT)
symbol, and the linker may keep that copy for every caller; a core without
the ISA then dies on SIGILL. Debug and sanitizer builds emit such functions
out of line, so the check runs on every build type.

    python3 tools/check_isa_objects.py --build-dir build

Exit status: 0 clean, 1 a weak symbol found, 2 an object is missing.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

# Object path fragments under <build>/src/CMakeFiles.
ISA_OBJECTS = [
    "dftfe_la.dir/la/gemm_sse2.cpp.o",
    "dftfe_la.dir/la/gemm_avx2.cpp.o",
    "dftfe_la.dir/la/gemm_avx512.cpp.o",
]

# nm type letters of weak and unique-global definitions.
WEAK_TYPES = set("WwVvu")


def weak_symbols(obj: Path) -> list[str]:
    out = subprocess.run(["nm", "--defined-only", "-C", str(obj)],
                         capture_output=True, text=True, check=True).stdout
    weak = []
    for line in out.splitlines():
        parts = line.split(maxsplit=2)
        if len(parts) == 3 and parts[1] in WEAK_TYPES:
            weak.append(f"{parts[1]} {parts[2]}")
    return weak


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, required=True,
                        help="CMake build directory holding the objects")
    args = parser.parse_args()

    failed = False
    for frag in ISA_OBJECTS:
        obj = args.build_dir / "src" / "CMakeFiles" / frag
        if not obj.is_file():
            print(f"error: missing object {obj}", file=sys.stderr)
            return 2
        weak = weak_symbols(obj)
        if weak:
            failed = True
            print(f"{frag}: {len(weak)} weak symbol(s):", file=sys.stderr)
            for w in weak:
                print(f"  {w}", file=sys.stderr)
    if failed:
        print("\nGive these functions internal linkage (la/gemm_tile.hpp keeps its "
              "code in an anonymous namespace) or keep them out of the per-ISA "
              "objects.", file=sys.stderr)
        return 1
    print(f"check_isa_objects: OK ({len(ISA_OBJECTS)} per-ISA objects, no weak symbols)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
