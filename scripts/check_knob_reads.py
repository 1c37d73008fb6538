#!/usr/bin/env python3
"""Fail when code under src/ bypasses one of the runtime's single owners.

- knobs: only the knob resolver touches the process environment. Every
  NEMO_* knob is resolved once per World by src/core/knobs.cpp (a
  Config::env pin beats the environment, which beats the programmatic
  value). A getenv anywhere else reintroduces a knob that bypasses the
  table, its docs and its pins; a setenv/unsetenv reintroduces the race
  between pinning a knob and constructing a World on another thread.
- yields: only the one poll loop, resil::wait_until in
  src/resil/resil.hpp, yields the core. A yield anywhere else is a
  hand-written wait that skips its liveness guard, its progress hook or
  its cadence.

Comments are ignored.

Usage: python3 scripts/check_knob_reads.py [--rule knobs|yields] [repo_root]
"""
import argparse
import os
import re
import sys

RULES = {
    "knobs": (
        re.compile(r"\b(getenv|setenv|unsetenv|secure_getenv|putenv|"
                   r"environ)\b"),
        os.path.join("src", "core", "knobs.cpp"),
        "environment access outside the knob resolver",
        "add a row to the knob table instead",
    ),
    "yields": (
        re.compile(r"\b(this_thread::yield|sched_yield)\b"),
        os.path.join("src", "resil", "resil.hpp"),
        "yield outside the one poll loop",
        "wait through resil::wait_until or Engine::wait_until instead",
    ),
}


def code_lines(path):
    """(line number, line, code) of every line, with comments stripped."""
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
            yield no, line, code.split("//", 1)[0]


def main(root, rules):
    bad = {name: 0 for name in rules}
    src = os.path.join(root, "src")
    for dirpath, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith((".cpp", ".hpp", ".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            for no, line, code in code_lines(path):
                for rule in rules:
                    pattern, allowed, what, _ = RULES[rule]
                    if rel != allowed and pattern.search(code):
                        print(f"{rel}:{no}: {what}: {line.strip()}")
                        bad[rule] += 1
    status = 0
    for rule in rules:
        _, allowed, _, fix = RULES[rule]
        if bad[rule]:
            print(f"{rule}: {bad[rule]} hit(s) outside {allowed}; {fix}")
            status = 1
        else:
            print(f"{rule}: only {allowed} matches")
    return status


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rule", choices=sorted(RULES), action="append",
                    help="check only this rule (repeatable; default: all)")
    ap.add_argument("root", nargs="?", default=".")
    args = ap.parse_args()
    sys.exit(main(args.root, args.rule or sorted(RULES)))
