#!/usr/bin/env python3
"""Fail when any `|` term of a ctest -R regex selects no test.

A sanitizer job that runs `ctest -R "A|B|C"` passes silently when a term
names a suite that was renamed or never existed, so the code that term
was meant to cover never runs under the sanitizer. This check lists the
tests each term selects (`ctest -N -R TERM`) and exits 1 naming every
term that selects none.

Usage: check_test_regex.py BUILD_DIR REGEX
"""

import re
import subprocess
import sys


def count_tests(build_dir, term):
    listing = subprocess.run(
        ["ctest", "-N", "-R", term],
        cwd=build_dir,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    match = re.search(r"^Total Tests: (\d+)$", listing, re.MULTILINE)
    if match is None:
        sys.exit(f"no 'Total Tests:' line in ctest -N output for {term!r}")
    return int(match.group(1))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[-1])
    build_dir, regex = sys.argv[1], sys.argv[2]
    empty = [term for term in regex.split("|") if count_tests(build_dir, term) == 0]
    for term in empty:
        print(f"ctest -R term {term!r} matches 0 tests", file=sys.stderr)
    if empty:
        sys.exit(1)
    print(f"every term of the ctest regex matches a test ({regex.count('|') + 1} terms)")


if __name__ == "__main__":
    main()
