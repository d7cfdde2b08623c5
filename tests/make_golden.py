#!/usr/bin/env python3
"""Write tests/golden_digests.json: the digests test_golden.py compares against.

    PYTHONPATH=src python3 tests/make_golden.py

Run it only at a commit whose outputs are known good, and only when an
output is meant to change; list every regeneration and its reason in
CHANGES.md.  The cases and their digests are defined in test_golden.py.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import test_golden


def main() -> int:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in test_golden.CASES:
            out[name] = test_golden.case_digests(name, Path(tmp) / name)
            print(f"{name}: {out[name]}", file=sys.stderr)
    test_golden.GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
