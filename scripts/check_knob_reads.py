#!/usr/bin/env python3
"""Fail when code under src/ touches the process environment outside the
knob resolver.

Every NEMO_* knob is resolved once per World by src/core/knobs.cpp (a
Config::env pin beats the environment, which beats the programmatic
value). A getenv anywhere else reintroduces a knob that bypasses the
table, its docs and its pins; a setenv/unsetenv reintroduces the race
between pinning a knob and constructing a World on another thread.

Usage: python3 scripts/check_knob_reads.py [repo_root]
"""
import os
import re
import sys

ALLOWED = {os.path.join("src", "core", "knobs.cpp")}
CALL_RE = re.compile(r"\b(getenv|setenv|unsetenv|secure_getenv|putenv|environ)\b")


def offending_lines(path):
    """(line number, text) of every environment access outside comments."""
    hits = []
    in_block = False
    with open(path, encoding="utf-8") as f:
        for no, line in enumerate(f, 1):
            code = line
            if in_block:
                end = code.find("*/")
                if end < 0:
                    continue
                code = code[end + 2:]
                in_block = False
            code = re.sub(r"/\*.*?\*/", "", code)
            start = code.find("/*")
            if start >= 0:
                code = code[:start]
                in_block = True
            code = code.split("//", 1)[0]
            if CALL_RE.search(code):
                hits.append((no, line.rstrip()))
    return hits


def main(root):
    bad = 0
    src = os.path.join(root, "src")
    for dirpath, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith((".cpp", ".hpp", ".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if rel in ALLOWED:
                continue
            for no, text in offending_lines(path):
                print(f"{rel}:{no}: environment access outside the knob "
                      f"resolver: {text.strip()}")
                bad += 1
    if bad:
        print(f"{bad} environment access(es) outside src/core/knobs.cpp; "
              "add a row to the knob table instead")
        return 1
    print("knob reads: only src/core/knobs.cpp touches the environment")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "."))
