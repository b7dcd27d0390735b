#!/usr/bin/env python3
"""Run every constant-verification suite: the report of `zetaderiv verify
all`, one line per check and a closing "passed/total" line; exits 1 if any
check fails (a few published bounds are known to fail -- see "Known errata
in the published constants" in the README)."""
import sys

from zetaderiv import cli

if __name__ == "__main__":
    sys.exit(cli.main(["verify", "all"]))
