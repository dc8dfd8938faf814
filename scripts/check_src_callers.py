#!/usr/bin/env python3
"""Fails when a library header under src/ has no caller outside tests/.

src/ holds what a program runs. A header that nothing includes except its
own .cc, the umbrella src/adr.h and the tests is a module that only tests
call; it belongs in tests/ or nowhere. This script lists every such
header and exits 1 if there is one.

A header counts as used when any source file under src/, bench/,
examples/ or stepbench/ (other than its own .cc and src/adr.h) includes it
by its src-relative path, e.g. #include "core/reuse_conv2d.h".

Usage: scripts/check_src_callers.py [REPO_ROOT]
Run via ctest as check_src_callers_test.
"""

import os
import re
import sys

CALLER_DIRS = ("src", "bench", "examples", "stepbench")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def source_files(root, top):
    for dirpath, _, names in os.walk(os.path.join(root, top)):
        for name in sorted(names):
            if name.endswith(SOURCE_SUFFIXES):
                yield os.path.join(dirpath, name)


def uncalled_headers(root):
    """Returns the src-relative paths of headers with no outside caller."""
    src = os.path.join(root, "src")
    headers = sorted(
        os.path.relpath(path, src)
        for path in source_files(root, "src")
        if path.endswith(".h"))
    umbrella = os.path.join(src, "adr.h")

    callers = {header: set() for header in headers}
    for top in CALLER_DIRS:
        for path in source_files(root, top):
            if path == umbrella:
                continue
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
            for included in INCLUDE_RE.findall(text):
                if included in callers:
                    callers[included].add(path)

    missing = []
    for header, files in callers.items():
        if header == "adr.h":
            continue
        own_cc = os.path.join(src, os.path.splitext(header)[0] + ".cc")
        if not files - {own_cc}:
            missing.append(header)
    return missing


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    missing = uncalled_headers(os.path.abspath(root))
    for header in missing:
        print(f"src/{header}: included by nothing outside tests/ but its "
              f"own .cc and src/adr.h")
    if missing:
        print(f"check_src_callers: {len(missing)} test-only header(s); "
              f"move them to tests/ or delete them")
        return 1
    print("check_src_callers: every src/ header has a caller")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
