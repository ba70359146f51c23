"""Extension — CUBE lattice vs naive per-cuboid rounds on TPCR (CI gate).

A full ``GROUP BY CUBE`` over d attributes names 2^d cuboids.  The naive
distributed evaluation (``repro.cube.execute_per_cuboid``) runs
one GMDJ round per cuboid, so every site re-scans its fragment and
ships a state relation 2^d times.  The lattice scheduler
(``repro.cube``) scatters only the lattice *sources* — for a full cube,
just the finest grouping — and derives every coarser cuboid
coordinator-side by Theorem-1 rollup of the captured states, so the
wire carries one state relation per source instead of one per cuboid.

Each entry runs the same CUBE statement both ways on the same
round-robin TPCR warehouse and compares:

* **naive** — one distributed round per granularity, the grand total
  included (the per-cuboid fallback, run here as the counterfactual);
* **lattice** — round-per-level scheduling with a
  :class:`~repro.cube.store.CuboidStore`, then a follow-up slice query
  answered *entirely* from the materialized ancestor (zero sites, zero
  bytes).

Bytes are modeled (the message log's SKRL-encoded sizes), so the sweep
is bit-reproducible across machines and the smoke run's entries match
the committed full-sweep baseline exactly.

Asserted (the CI ``bench-cube`` gate):

* lattice, naive, and the centralized oracle are bit-identical at every
  width, and the served slice matches its centralized groupby;
* the lattice ships measurably fewer bytes than naive per-cuboid
  (>= 1.2x at 2 dims, >= 1.5x at 3 dims) and scatters exactly one
  level;
* the slice is an ancestor hit: 0 participating sites, 0 bytes.

Runs as pytest (``pytest benchmarks/bench_ext_cube.py``) or as a
script: ``python benchmarks/bench_ext_cube.py --smoke --json out``.
The full JSON report lands in ``benchmarks/results/ext_cube.json``
(the committed baseline ``scripts/bench_compare.py`` gates against).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from repro.core.cube import groupby_expression
from repro.cube import (
    CuboidStore, compile_lattice, execute_lattice, execute_per_cuboid,
    run_centralized)
from repro.cube.serving import serve_statement
from repro.data.tpch import generate_tpcr
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import OptimizationFlags
from repro.relational.aggregates import AggregateSpec, count_star
from repro.sql.parser import parse

NUM_SITES = 4
#: Constant row budget so smoke entries bit-match the committed
#: full-sweep baseline (only the dims list differs between modes).
NUM_ROWS = 20_000
SEED = 11
DIMS = ("MktSegment", "OrderPriority", "ShipMode")
DIMS_FULL = [2, 3]
DIMS_SMOKE = [2]
#: Minimum naive/lattice wire-bytes ratio per cube width.  The saving
#: grows with width: a full d-cube derives 2^d - 1 cuboids from one
#: scatter, so the naive plan's extra rounds dominate at d = 3.
MIN_BYTES_RATIO = {2: 1.2, 3: 1.5}
RESULTS = Path(__file__).parent / "results" / "ext_cube.json"

#: Integer measure keeps every aggregate exact, so naive, lattice, and
#: centralized runs are bit-comparable with no float merge-order slack.
MEASURES = "COUNT(*) AS n, SUM(Quantity) AS total"


def cube_sql(num_dims: int) -> str:
    dims = ", ".join(DIMS[:num_dims])
    return (f"SELECT {dims}, {MEASURES} FROM T "
            f"GROUP BY CUBE ({dims})")


SLICE_SQL = f"SELECT MktSegment, {MEASURES} FROM T GROUP BY MktSegment"


@functools.lru_cache(maxsize=1)
def detail_and_partitions():
    detail = generate_tpcr(num_rows=NUM_ROWS, seed=SEED)
    return detail, partition_round_robin(detail, NUM_SITES)


def _round_numbers(metrics_list) -> dict[str, object]:
    return {
        "rounds": len(metrics_list),
        "total_bytes": sum(m.total_bytes for m in metrics_list),
        "num_synchronizations": sum(m.num_synchronizations
                                    for m in metrics_list),
    }


def run_entry(num_dims: int) -> dict[str, object]:
    detail, partitions = detail_and_partitions()
    sql = cube_sql(num_dims)
    flags = OptimizationFlags.all()

    plan = compile_lattice(parse(sql), detail.schema)
    oracle = run_centralized(plan, detail)

    naive_engine = SkallaEngine(dict(partitions))
    try:
        naive_execution = execute_per_cuboid(naive_engine, plan, flags)
    finally:
        naive_engine.close()
    naive = _round_numbers([run.metrics for run in naive_execution.runs])

    engine = SkallaEngine(dict(partitions))
    store = CuboidStore()
    try:
        execution = execute_lattice(engine, plan, flags, store=store)
        served = serve_statement(store, engine, parse(SLICE_SQL))
    finally:
        engine.close()
    assert served is not None, "slice missed the materialized ancestor"
    served_relation, served_metrics = served
    slice_oracle = groupby_expression(
        ["MktSegment"],
        [count_star("n"), AggregateSpec("sum", "Quantity", "total")],
    ).evaluate_centralized(detail)

    lattice = _round_numbers([execution.metrics])
    lattice["cuboids_derived"] = execution.metrics.cuboids_derived
    lattice["lattice_levels"] = execution.metrics.lattice_levels
    return {
        "dims": num_dims,
        "cuboids": len(plan.requested),
        "sources": len(plan.sources),
        "naive": naive,
        "lattice": lattice,
        "bytes_ratio": naive["total_bytes"] / lattice["total_bytes"],
        "slice": {
            "ancestor_hits": served_metrics.ancestor_hits,
            "total_bytes": served_metrics.total_bytes,
            "participating_sites": served_metrics.num_participating_sites,
        },
        "identical": (
            execution.relation.multiset_equals(oracle)
            and execution.relation.multiset_equals(
                naive_execution.relation)
            and served_relation.multiset_equals(slice_oracle)),
    }


def run_sweep(dims_list) -> dict[str, object]:
    return {
        "kind": "cube-sweep",
        "sites": NUM_SITES,
        "rows_total": NUM_ROWS,
        "attrs": list(DIMS),
        "sweep": [run_entry(num_dims) for num_dims in dims_list],
    }


def check_sweep(report: dict[str, object]) -> None:
    """The cube gate: raises AssertionError with the evidence."""
    for entry in report["sweep"]:
        assert entry["identical"], entry
        assert entry["bytes_ratio"] >= MIN_BYTES_RATIO[entry["dims"]], entry
        assert entry["lattice"]["lattice_levels"] == 1, entry
        assert (entry["lattice"]["cuboids_derived"]
                == entry["cuboids"] - entry["sources"]), entry
        assert entry["slice"]["ancestor_hits"] == 1, entry
        assert entry["slice"]["total_bytes"] == 0, entry
        assert entry["slice"]["participating_sites"] == 0, entry


def _summary_rows(report: dict[str, object]) -> list[dict[str, object]]:
    rows = []
    for entry in report["sweep"]:
        rows.append({
            "dims": entry["dims"],
            "cuboids": entry["cuboids"],
            "naive_rounds": entry["naive"]["rounds"],
            "lattice_levels": entry["lattice"]["lattice_levels"],
            "derived": entry["lattice"]["cuboids_derived"],
            "naive_bytes": entry["naive"]["total_bytes"],
            "lattice_bytes": entry["lattice"]["total_bytes"],
            "bytes_ratio": round(entry["bytes_ratio"], 2),
            "slice_sites": entry["slice"]["participating_sites"],
            "identical": entry["identical"],
        })
    return rows


def test_bench_cube_sweep(benchmark, report):
    """Lattice vs naive per-cuboid CUBE on round-robin TPCR, modeled."""
    result = benchmark.pedantic(run_sweep, args=(DIMS_FULL,),
                                rounds=1, iterations=1)
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(json.dumps(result, indent=2, sort_keys=True))
    report("ext_cube",
           "Extension — CUBE lattice vs naive per-cuboid rounds "
           f"(TPCR, {NUM_SITES} sites, {NUM_ROWS} rows, modeled bytes)",
           _summary_rows(result),
           ["dims", "cuboids", "naive_rounds", "lattice_levels",
            "derived", "naive_bytes", "lattice_bytes", "bytes_ratio",
            "slice_sites", "identical"])
    check_sweep(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"sweep only widths {DIMS_SMOKE} for CI")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="where to write the JSON report "
                             f"(default {RESULTS})")
    args = parser.parse_args(argv)
    dims_list = DIMS_SMOKE if args.smoke else DIMS_FULL
    result = run_sweep(dims_list)
    for row in _summary_rows(result):
        print(f"cube d={row['dims']}: naive {row['naive_rounds']} "
              f"round(s) / {row['naive_bytes']} B vs lattice "
              f"{row['lattice_levels']} level(s) / "
              f"{row['lattice_bytes']} B ({row['bytes_ratio']:.2f}x); "
              f"{row['derived']} derived, slice from "
              f"{row['slice_sites']} site(s); "
              f"identical={row['identical']}")
    target = Path(args.json) if args.json else RESULTS
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(result, indent=2, sort_keys=True))
    print(f"wrote {target}")
    check_sweep(result)
    print("cube gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
