#!/usr/bin/env python3
"""Perf-smoke regression gate over BENCH_fig4.json.

CI boxes vary too much for absolute FPS gates, so every check is a
ratio computed inside one run of the benchmark on one machine:

  * sparse-vs-dense speedup at the anchor resolution (the Figure-4
    headline) must not collapse;
  * node_eval_fraction at the anchor must stay below the flat-grid
    plateau -- this is the octree + auto-block-size win, and it is a
    pure counter ratio, immune to machine speed;
  * the ablation's simd+octree row must actually beat scalar+flat
    (otherwise the SIMD dispatch or the octree descent silently
    regressed to the slow path);
  * the block-local table-driven extractor must beat the legacy serial
    extractor on the same sampled grid, single core (the "extraction"
    section), and must have emitted the identical triangle set;
  * the sparse block store at the anchor must hold at most a third of
    the bytes of a dense (R+1)^3 float grid -- a measured byte count
    over a fixed size, immune to machine speed.

Exit status 0 = gate passed. Any failure prints the offending metric
and exits 1 so the CI step fails.
"""

import argparse
import json
import sys

# Largest share of a dense (R+1)^3 float grid the anchor's block store
# may hold.
MAX_STORE_FRACTION = 1.0 / 3.0


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("json_path", help="path to BENCH_fig4.json")
    ap.add_argument("--anchor-resolution", type=int, default=128,
                    help="resolution row the gates apply to")
    ap.add_argument("--min-speedup", type=float, default=5.0,
                    help="minimum sparse-vs-dense speedup at the anchor")
    ap.add_argument("--max-eval-fraction", type=float, default=0.16,
                    help="maximum node_eval_fraction at the anchor")
    ap.add_argument("--min-ablation-speedup", type=float, default=1.15,
                    help="minimum simd+octree speedup over scalar+flat")
    ap.add_argument("--min-extract-speedup", type=float, default=2.0,
                    help="minimum block-extractor vs legacy single-core speedup")
    args = ap.parse_args()

    with open(args.json_path) as f:
        data = json.load(f)

    if data.get("schema_version", 0) < 8:
        fail(f"schema_version {data.get('schema_version')} < 8 "
             "(bench binary predates the block store's sparse_store_bytes)")
    backend = data.get("simd_backend")
    if backend not in ("avx2", "neon", "scalar"):
        fail(f"simd_backend missing or unknown: {backend!r}")
    print(f"simd_backend: {backend}")

    anchor = next((r for r in data.get("rows", [])
                   if r.get("resolution") == args.anchor_resolution), None)
    if anchor is None:
        fail(f"no row at resolution {args.anchor_resolution}")
    if anchor.get("sparse_measured") != "yes":
        fail(f"anchor row {args.anchor_resolution} was extrapolated, not "
             "measured; raise SEMHOLO_FIG4_MAX_RES")

    speedup = anchor.get("speedup", 0.0)
    print(f"sparse-vs-dense speedup at {args.anchor_resolution}: "
          f"{speedup:.2f}x (gate: >= {args.min_speedup})")
    if speedup < args.min_speedup:
        fail("sparse reconstruction speedup regressed")

    res = args.anchor_resolution
    dense_bytes = (res + 1) ** 3 * 4
    store = anchor.get("sparse_store_bytes")
    if store is None:
        fail(f"anchor row {res} has no sparse_store_bytes")
    print(f"sparse store at {res}: {store} B = {store / dense_bytes:.3f} of the "
          f"dense grid's {dense_bytes} B (gate: <= {MAX_STORE_FRACTION:.3f})")
    if store > MAX_STORE_FRACTION * dense_bytes:
        fail("sparse block store no longer tracks the surface")

    frac = anchor.get("node_eval_fraction", 1.0)
    print(f"node_eval_fraction at {args.anchor_resolution}: {frac:.3f} "
          f"(gate: <= {args.max_eval_fraction})")
    if frac > args.max_eval_fraction:
        fail("node_eval_fraction regressed (certificates firing less)")

    ablation = {row.get("config"): row for row in data.get("ablation", [])}
    for config in ("scalar+flat", "scalar+octree", "simd+flat", "simd+octree"):
        if config not in ablation:
            fail(f"ablation row '{config}' missing")
    abl = ablation["simd+octree"].get("speedup_vs_scalar_flat", 0.0)
    print(f"simd+octree vs scalar+flat: {abl:.2f}x "
          f"(gate: >= {args.min_ablation_speedup})")
    if abl < args.min_ablation_speedup:
        fail("simd+octree ablation no longer beats the scalar flat path")
    if ablation["simd+octree"].get("node_eval_fraction", 1.0) > \
            ablation["simd+flat"].get("node_eval_fraction", 0.0) + 1e-9:
        fail("octree descent evaluates more nodes than the flat grid")

    ext = data.get("extraction")
    if ext is None:
        fail("extraction section missing")
    if ext.get("canonical_match") != "yes":
        fail("block extractor and legacy extractor emitted different "
             "triangle sets")
    ext_speedup = ext.get("speedup_single_core", 0.0)
    print(f"extraction speedup (block vs legacy, 1 core, "
          f"{ext.get('resolution')}^3): {ext_speedup:.2f}x "
          f"(gate: >= {args.min_extract_speedup})")
    if ext_speedup < args.min_extract_speedup:
        fail("block-local extractor no longer beats the legacy extractor")
    if ext.get("active_cells", 0) <= 0:
        fail("extraction section reports zero active cells")

    print("PASS: Figure-4 perf gate")


if __name__ == "__main__":
    main()
