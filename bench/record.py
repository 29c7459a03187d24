"""Record the reference outputs that every benchmark run is compared with.

Run once, at the commit whose outputs are the reference, from the root of
the repository:

    python3 bench/record.py

It writes bench/reference/{enum,recipes,checkmix_pool}.json.  Outputs are
stored as the sha256 of the JSON text `cca` prints (sorted keys, indent 2);
the enumeration and recipe texts are stored whole, check-mix queries keep a
few readable fields beside the digest.  The check-mix pool is regenerated from
checkmix.POOL_SEED and each query's outcome recorded with it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import cca  # noqa: E402

from checkmix import POOL_SEED, digest, generate_pool, run_query  # noqa: E402
from workloads import RECIPE_ORDER, REFERENCE, SMOKE_RECIPES  # noqa: E402


def _write(name: str, obj) -> None:
    with open(REFERENCE / name, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def record_enum() -> dict:
    out = {}
    for base in ("f21", "f21xz2"):
        rep = cca.structure.enumerate_connection_sets(base,
                                                      mode="canonical-pruned")
        text = json.dumps(rep.to_json_dict(), sort_keys=True, indent=2)
        out[base] = {"digest": digest(text), "text": text,
                     "non_cca_classes": len(rep.non_cca_classes),
                     "class_count": rep.class_count}
    return out


def record_recipes() -> dict:
    out = {}
    for rid in dict.fromkeys(RECIPE_ORDER + SMOKE_RECIPES):
        res = cca.recipes.reproduce(rid)
        text = json.dumps(res, sort_keys=True, indent=2)
        out[rid] = {"digest": digest(text), "text": text}
    return out


def record_pool() -> dict:
    pool = generate_pool(cca, POOL_SEED)
    for q in pool:
        t0 = time.perf_counter()
        try:
            text = run_query(cca, q["spec"], q["labels"])
        except cca.errors.StabiliserTooLarge:
            q["reference"] = {"refused": True}
        else:
            d = json.loads(text)
            q["reference"] = {"refused": False, "digest": digest(text),
                              "verdict": d["verdict"],
                              "stabiliser_order": d["stabiliser_order"],
                              "full_group_order": d["full_group_order"]}
        q["reference"]["record_ms"] = round(
            1000 * (time.perf_counter() - t0), 1)
    return {"pool_seed": POOL_SEED, "queries": pool}


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    what = sys.argv[1:] or ["enum", "recipes", "pool"]
    if "pool" in what:
        _write("checkmix_pool.json", record_pool())
    if "recipes" in what:
        _write("recipes.json", record_recipes())
    if "enum" in what:
        _write("enum.json", record_enum())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
