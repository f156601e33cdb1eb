#!/usr/bin/env python3
"""Out-of-range psoctl flags must exit 2 with a message, never abort.

Runs psoctl once per bad flag set and requires exit code 2 from each;
an abort (PSO_CHECK, bad_alloc) exits 134 instead and fails the test.

Usage:
  psoctl_flags_test.py --psoctl <path to psoctl>

Exit codes: 0 every case exited 2, 1 some case did not.
"""

import argparse
import subprocess
import sys

BAD_FLAGS = [
    ["recon", "--n", "0"],
    ["recon", "--n", "-1"],
    ["recon", "--queries", "0"],
    ["recon", "--queries", "-1"],
    ["recon", "--alpha", "-1"],
    ["recon", "--alpha", "nan"],
    ["recon", "--alpha", "inf"],
    ["recon", "--decoder", "exhaustive", "--n", "25"],
    ["serve", "--n", "0"],
    ["serve", "--eps", "nan"],
    ["audit", "--eps", "nan"],
    ["audit", "--eps", "0"],
    ["audit", "--trials", "0"],
    ["membership", "--attrs", "0"],
    ["membership", "--pool", "0"],
    ["membership", "--trials", "0"],
    ["membership", "--eps", "nan"],
    ["game", "--eps", "nan"],
    ["game", "--tau", "-1"],
    ["game", "--tau", "2"],
    ["game", "--tau", "inf"],
    ["game", "--tau", "nan"],
    ["census", "--eps", "inf"],
    ["census", "--eps", "-1"],
    ["census", "--eps", "nan"],
    ["linkage", "--coverage", "2"],
    ["linkage", "--coverage", "-0.5"],
    ["linkage", "--coverage", "nan"],
    ["linkage", "--k", "-1"],
    ["linkage", "--n", "0"],
    ["linkage", "--n", "-5"],
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--psoctl", required=True)
    args = parser.parse_args()
    failures = 0
    for flags in BAD_FLAGS:
        proc = subprocess.run([args.psoctl] + flags, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        ok = proc.returncode == 2
        failures += not ok
        print("%s psoctl %s -> exit %d" % ("ok  " if ok else "FAIL",
                                           " ".join(flags), proc.returncode))
        if not ok:
            print(proc.stderr.rstrip())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
