"""Record ``goldens.json``: the SHA-256 of stdout for every pooled request.

    python3 perfbench/record_goldens.py

Covers every index that any seed can draw for the expand and reduce
workloads.  Run it only on the commit whose outputs define "correct"; the
benchmark then requires every later commit to reproduce them byte for byte.
It records nothing when an expand output fails the finite-N identity.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import run
from workloads import POOLS, argv_for


def main() -> int:
    cli, _numerics, _lincomb, _errors, table = run.import_program()
    goldens = {}
    for workload in ("expand", "reduce"):
        for stratum, pool in POOLS.items():
            if not stratum.startswith(workload + "."):
                continue
            for index in pool:
                argv = argv_for(workload, index, table)
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
                reason = f"exit code {rc}" if rc != 0 else None
                if reason is None and workload == "expand":
                    reason = checks.check_expand_output(out.getvalue())
                if reason:
                    print(f"{index}: {reason}; nothing recorded", file=sys.stderr)
                    return 1
                goldens[checks.golden_key(argv)] = checks.golden_digest(out.getvalue())
    with open(checks.GOLDENS_PATH, "w", encoding="utf-8") as f:
        json.dump(goldens, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(goldens)} goldens in {checks.GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
