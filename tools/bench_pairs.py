"""Paired benchmark runs of two source trees, written to BENCH_<workload>.json.

Usage, from the repository root:

    python3 tools/bench_pairs.py --workload epg-mix --base /path/to/parent \\
        --seeds 1 2 3 [--change .] [--seconds 20]

For each seed this runs the unmodified `benchmark/run.py --workload W --seed S
--seconds T --trace 0` once in each tree, one run at a time, so each tree's
benchmark drives its own src/.  The first side alternates from pair to pair
(the base goes first in the first pair of the file).  Every run's end-to-end
metrics, op counts and wall time are recorded.  The pairs are merged into the
output file when it holds runs of the same two trees (same source digests),
so a later call with fresh seeds adds to the claim; the summary is
recomputed over all pairs: per side the median and quartiles of each metric
in BENCHMARK.json's end_to_end list, and the number of pairs in which the
change is better.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_digest(tree: Path) -> str:
    """sha256 over the tree's src/ Python files, names and contents."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "wall_s": round(wall_s, 1), "exit": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "seed": seed,
        "wall_s": round(wall_s, 1),
        "exit": 0,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "strata_op_ms.p50": {name: s["op_ms.p50"]
                             for name, s in report["provenance"]["strata"].items()},
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins."""
    ok = [p for p in pairs if p["base"]["exit"] == 0 and p["change"]["exit"] == 0]
    out = {"pairs": len(pairs), "complete_pairs": len(ok)}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        rows = [(p["base"]["metrics"][name], p["change"]["metrics"][name]) for p in ok
                if name in p["base"]["metrics"] and name in p["change"]["metrics"]]
        if not rows:
            continue
        base_q = _quartiles([b for b, _ in rows])
        change_q = _quartiles([c for _, c in rows])
        out[name] = {
            "base_q1_median_q3": base_q,
            "change_q1_median_q3": change_q,
            "change_wins": sum((c < b) if lower else (c > b) for b, c in rows),
            "median_rel_change": (change_q[1] - base_q[1]) / base_q[1] if base_q[1] else None,
            "base_iqr": base_q[2] - base_q[0],
        }
    for side in ("base", "change"):
        walls = [p[side]["wall_s"] for p in pairs]
        out[f"{side}_wall_s_min_max"] = [min(walls), max(walls)]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", required=True, type=Path, help="the tree to compare against")
    parser.add_argument("--change", default=ROOT, type=Path, help="the changed tree")
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--output", type=Path, help="default: BENCH_<workload>.json here")
    args = parser.parse_args()

    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    digests = {side: _src_digest(tree) for side, tree in trees.items()}
    output = args.output or ROOT / f"BENCH_{args.workload}.json"
    doc = json.loads(output.read_text()) if output.exists() else {}
    if doc.get("src_digests") != digests or doc.get("seconds") != args.seconds:
        doc = {"pairs": []}
    pairs = doc["pairs"]
    for seed in args.seeds:
        order = ("base", "change") if len(pairs) % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = _run(trees[side], args.workload, seed, args.seconds)
            print(json.dumps({"side": side, **pair[side]}), file=sys.stderr)
        pairs.append(pair)

    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    doc = {
        "about": (
            f"Paired runs of benchmark/run.py --workload {args.workload} --seconds "
            f"{args.seconds:g} --trace 0 in two source trees, one run at a time, "
            "first side alternating. Written by tools/bench_pairs.py."
        ),
        "workload": args.workload,
        "seconds": args.seconds,
        "src_digests": digests,
        "provenance": {
            "python": platform.python_version(),
            "cpu": _cpu(),
            "nproc": os.cpu_count(),
            "seeds": [p["seed"] for p in pairs],
        },
        "summary": summarize(pairs, spec["end_to_end"]),
        "pairs": pairs,
    }
    output.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
