#!/usr/bin/env python3
"""Write perfbench/reference.json: the checked outputs of the first ops at seed 0.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known good.  run.py compares op i
of a run at seed 0 with entry i, for i < run.REFERENCE_OPS: the digest must
match exactly, A3 and K_bar within the certificate's 1e-9 tolerance.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEED = 0


def main() -> int:
    run._import_hicalib()
    import workloads

    out = {"seed": SEED, "size": "full", "workloads": {}}
    for name in workloads.NAMES:
        workdir = run.OUT / "work" / f"reference-{name}"
        try:
            wl = workloads.make(name, "full", str(workdir))
            refs = []
            for i in range(run.REFERENCE_OPS):
                res = wl.run_op(workloads.op_seed(name, SEED, i))
                chk = wl.check(res)
                wl.cleanup(res)
                if chk.failures:
                    print(f"{name} op {i}: {chk.failures}", file=sys.stderr)
                    return 1
                refs.append({"digest": chk.digest, "A3": chk.a3, "K_bar": chk.k_bar})
            out["workloads"][name] = refs
            print(f"{name}: {len(refs)} ops", file=sys.stderr)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
