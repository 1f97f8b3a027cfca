"""Scale timings of the graph layers, written to BENCH_scale.json.

Usage, from the repository root:

    python3 tools/bench_scale.py --label "this tree"
    PYTHONPATH=/path/to/other/src python3 tools/bench_scale.py --label "other tree"

Each run draws one-string instances at n = 1000, 3000 and 10000 with the
benchmark's own generator, `benchmark/gen.vpg_one_string(random.Random(1),
n, 2n, n // 5)`, and times the library calls `build_graph`, `is_one_string`
and `build_set_system` on each, then the solver `approx_mds_one_string`
with net seed 1, and its `bg_hitting_set` alone on a built set system.  At
the same sizes it times EPG `build_graph` and the solver `greedy_line_mds`
on `benchmark/gen.epg_double_crossing(random.Random(1), n, n // 3, 4)`,
the epg-mix workload's double-crossing family, and `approx_mis` on
`benchmark/gen.vpg_mixed(random.Random(1), n, n, round(2.2 * n ** 0.5))`,
whose answer size is recorded, or its `TooLarge` refusal as the result.

Every graph-layer call and every solve gets a freshly parsed
representation, so a representation's kept contacts never carry over from
one timed call to the next.  A full garbage collection runs untimed before
each call, so a call pays for the collections its own allocations trigger
but not for garbage an earlier measurement left (runs record this as
gc_collect; earlier runs did not collect).  Times are raw wall time: the
minimum of seven calls (three before the EPG rows were added, and three for
the solver rows; each run records its counts), or a single call when the
first takes over ten seconds.  The run is merged into BENCH_scale.json
under its label, so two source trees measured in turn on one machine sit
side by side.  The gridpaths package is imported from PYTHONPATH if set
there, otherwise from this repository's src/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which can name another tree
sys.path.insert(0, str(ROOT / "benchmark"))

import gen  # noqa: E402
from gridpaths.errors import TooLarge  # noqa: E402
from gridpaths.geometry import build_graph, is_one_string  # noqa: E402
from gridpaths.instance_io import parse_instance  # noqa: E402
from gridpaths.mds_epg import greedy_line_mds  # noqa: E402
from gridpaths.mds_vpg import (  # noqa: E402
    NetParams,
    approx_mds_one_string,
    bg_hitting_set,
    build_set_system,
)
from gridpaths.mis import approx_mis  # noqa: E402

SIZES = (1000, 3000, 10000)
SEED = 1
REPEATS = 7
SOLVER_REPEATS = 3
NET_SEED = 1
SINGLE_RUN_S = 10.0
OUTPUT = ROOT / "BENCH_scale.json"


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _time(call, make, repeats=REPEATS) -> tuple[float, object]:
    """Min wall ms of call(make()) over repeats calls; make() and a full
    garbage collection run untimed before each call."""
    best = None
    for _ in range(repeats):
        arg = make()
        gc.collect()
        start = time.perf_counter()
        out = call(arg)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        if elapsed > SINGLE_RUN_S:
            break
    return best * 1000.0, out


def _mis_or_refusal(rep) -> set[str] | TooLarge:
    try:
        return approx_mis(rep)
    except TooLarge as exc:
        return exc


def _digest(ids) -> str:
    return hashlib.sha256(" ".join(sorted(ids)).encode()).hexdigest()[:16]


def measure(n: int, seed: int) -> dict:
    text = gen.instance_text("vpg", gen.vpg_one_string(random.Random(seed), n, 2 * n, n // 5))

    def rep():
        return parse_instance(text).rep

    params = NetParams(rng_seed=NET_SEED)
    graph_ms, graph = _time(build_graph, rep)
    check_ms, one_string = _time(is_one_string, rep)
    system_ms, system = _time(build_set_system, rep)
    mds_ms, mds = _time(lambda r: approx_mds_one_string(r, params), rep, SOLVER_REPEATS)
    hitting_ms, hitting = _time(
        lambda s: bg_hitting_set(s, params), lambda: system, SOLVER_REPEATS
    )
    epg_text = gen.instance_text("epg", gen.epg_double_crossing(random.Random(seed), n, n // 3, 4))
    epg_ms, epg_graph = _time(build_graph, lambda: parse_instance(epg_text).rep)
    greedy_ms, greedy = _time(greedy_line_mds, lambda: parse_instance(epg_text).rep,
                              SOLVER_REPEATS)
    mixed = gen.vpg_mixed(random.Random(seed), n, n, round(2.2 * n ** 0.5))
    mixed_text = gen.instance_text("vpg", mixed)
    mis_ms, mis = _time(_mis_or_refusal, lambda: parse_instance(mixed_text).rep, SOLVER_REPEATS)
    refused = isinstance(mis, TooLarge)
    return {
        "n": n,
        "seed": seed,
        "edges": len(graph.edges()),
        "one_string": one_string,
        "set_members": sum(len(s) for s in system.sets),
        "build_graph_ms": round(graph_ms, 2),
        "is_one_string_ms": round(check_ms, 2),
        "build_set_system_ms": round(system_ms, 2),
        "mds_size": len(mds),
        "mds_digest": _digest(mds),
        "approx_mds_one_string_ms": round(mds_ms, 2),
        "hitting_set_size": len(hitting),
        "bg_hitting_set_ms": round(hitting_ms, 2),
        "bg_hitting_set_share": round(hitting_ms / mds_ms, 3),
        "epg_dc_edges": len(epg_graph.edges()),
        "epg_dc_build_graph_ms": round(epg_ms, 2),
        "epg_dc_greedy_size": len(greedy),
        "epg_dc_greedy_digest": _digest(greedy),
        "greedy_line_mds_ms": round(greedy_ms, 2),
        "mis_size": f"TooLarge: {mis}" if refused else len(mis),
        "mis_digest": None if refused else _digest(mis),
        "approx_mis_ms": round(mis_ms, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the measured tree")
    args = parser.parse_args()

    rows = []
    for n in SIZES:
        rows.append(measure(n, SEED))
        print(json.dumps(rows[-1]), file=sys.stderr)

    doc = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    doc["about"] = (
        "Raw wall-time ms of library calls on benchmark/gen.vpg_one_string("
        "random.Random(seed), n, 2n, n // 5), and epg_dc_* of EPG build_graph and "
        "greedy_line_mds_ms of greedy_line_mds (epg_dc_greedy_size: answer size) on "
        "benchmark/gen.epg_double_crossing(random.Random(seed), n, n // 3, 4), and "
        "approx_mis_ms of approx_mis on benchmark/gen.vpg_mixed(random.Random(seed), "
        "n, n, round(2.2 * n ** 0.5)) (mis_size: answer size, or the TooLarge refusal); "
        "min of provenance.repeats calls (solver rows: solver_repeats, net seed "
        "net_seed; bg_hitting_set_share is its time over the solve's), or one "
        "call when it takes over 10 s. Written by tools/bench_scale.py."
    )
    doc.setdefault("runs", {})[args.label] = {
        "provenance": {
            "python": platform.python_version(),
            "cpu": _cpu(),
            "nproc": os.cpu_count(),
            "seed": SEED,
            "repeats": REPEATS,
            "solver_repeats": SOLVER_REPEATS,
            "net_seed": NET_SEED,
            "gc_collect": True,
        },
        "results": rows,
    }
    OUTPUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
