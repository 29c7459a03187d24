"""Set-up probe: a fresh process that imports cca from the checkout, builds
the groups a workload starts from, prints `ready` and exits.

    python3 bench/setup_probe.py builder:f21xz2 spec:psl27 ...

run.py times it from process start to the `ready` line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cca  # noqa: E402

for token in sys.argv[1:]:
    kind, _, arg = token.partition(":")
    if kind == "builder":
        getattr(cca.builders, arg)()
    elif kind == "spec":
        cca.builders.build_spec(arg)
    else:
        raise SystemExit(f"unknown set-up step {token!r}")
print("ready", flush=True)
