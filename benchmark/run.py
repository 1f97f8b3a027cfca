"""Benchmark for the gridpaths package.

Usage, from the repository root:

    python3 benchmark/run.py --workload vpg-mds --seed 1 --seconds 20 --trace 0

Each run generates its own seeded inputs (gen.py), drives the package's
public entry points one op at a time in this single process, checks every
answer with check.py (which does not import the package), and prints one JSON
object as its last line of output.  --trace 0 reports the end-to-end metrics;
--trace 1 reports the per-layer metrics from a traced pass (tracer.py, with
the wrapped functions in layers.py) over the same inputs as an untraced
pass.  The line before the result holds the run's provenance and details.
See NOTES.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter, deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import check
import gen
import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11
# What the reference task (Speed) takes on a 2-vCPU Intel Xeon at its usual
# speed; every reported time is scaled to this speed.
REFERENCE_S = 2.5e-3


class SetupError(RuntimeError):
    """The benchmark cannot run meaningfully; it exits without a result."""


# ---------------------------------------------------------------- workloads

@dataclass
class Op:
    """One unit of measured work.  Every file the op reads lives in `files`."""

    stratum: str
    kind: str  # "solve", "walk" or "desk"
    paths: int
    files: dict
    problem: str = ""
    net_seed: int = 0
    floor: float = 0.0  # least mean degree this stratum's inputs must reach
    refusal: str = ""  # a package error this op may end in without failing
    texts: dict = field(default_factory=dict, repr=False)

    def spec(self) -> dict:
        out = asdict(self)
        del out["texts"]
        return out


def _write(op: Op, directory: Path) -> Op:
    directory.mkdir(parents=True, exist_ok=True)
    for role, text in op.texts.items():
        path = directory / f"{role}.txt"
        path.write_text(text, encoding="utf-8")
        op.files[role] = str(path)
    op.files["out"] = str(directory / "out.txt")
    op.files["cover"] = str(directory / "cover.txt")
    return op


def _vpg_mds(rng: random.Random, k: int, density: str, n: int) -> Op:
    window = n if density == "dense" else 2 * n
    paths = gen.vpg_one_string(rng, n, window, n // 5)
    return Op(f"{density}-n{n}", "solve", n, {}, "mds-vpg", net_seed=k,
              floor=1.0 if density == "dense" else 0.2,
              texts={"inst": gen.instance_text("vpg", paths)})


def _vpg_mis(rng: random.Random, k: int, n: int) -> Op:
    paths = gen.vpg_mixed(rng, n, n, round(2.2 * n ** 0.5))
    return Op(f"n{n}", "solve", n, {}, "mis", floor=1.5, refusal="TooLarge",
              texts={"inst": gen.instance_text("vpg", paths)})


def _epg_line(rng: random.Random, k: int, family: str, n: int) -> Op:
    if family == "dc":
        paths = gen.epg_double_crossing(rng, n, n // 3, 4)
        text = gen.instance_text("epg", paths, vline=0, hline=0)
    else:
        paths = gen.epg_vertical_crossing(rng, n, n // 4, n // 4, 4, n // 8)
        text = gen.instance_text("epg", paths, vline=0)
    return Op(f"{family}-n{n}", "solve", n, {}, "mds-epg", floor=3.0, texts={"inst": text})


def _walk(rng: random.Random, k: int, n: int) -> Op:
    m = (7 * n) // 5
    edges = gen.degree3_graph(rng, n, m)
    return Op(f"walk-g{n}", "walk", 5 * n + 2 * m, {},
              texts={"graph": gen.graph_text(n, edges)})


def _desk(rng: random.Random, k: int, sizes: tuple) -> Op:
    """A batch of desk instances, one VPG and one companion EPG instance per
    size: texts "vpg<i>" and "epg<i>"."""
    texts = {}
    for i, n in enumerate(sizes):
        vpg = gen.vpg_one_string(rng, n, n, n)
        epg = gen.epg_double_crossing(rng, n, n // 3, 3)
        texts[f"vpg{i}"] = gen.instance_text("vpg", vpg)
        texts[f"epg{i}"] = gen.instance_text("epg", epg, vline=0, hline=0)
    return Op(f"batch{len(sizes)}", "desk", 2 * sum(sizes), {}, net_seed=k * len(sizes),
              floor=0.5, texts=texts)


# One cycle of strata per workload; a run measures whole cycles, so every
# run sees the same mix.  Strata costs are spread so that the median op falls
# inside one stratum rather than on the edge between two, where it would jump
# with the number of cycles.  The reasons for each workload are in NOTES.md.
WORKLOADS = {
    "vpg-mds": [(_vpg_mds, "sparse", 100), (_vpg_mds, "sparse", 150), (_vpg_mds, "dense", 200)],
    # n = 1000 three times: many n >= 3000 ops are refused and n = 2000 op
    # times are bimodal, so this keeps the median successful op in the narrow
    # n = 1000 stratum.
    "vpg-mis": [(_vpg_mis, n) for n in (1000, 1000, 1000, 2000, 3000, 4000)],
    "epg-mix": [(_epg_line, "dc", 1000), (_epg_line, "vc", 1000), (_walk, 100),
                (_epg_line, "dc", 2000), (_epg_line, "vc", 2000)],
    # One op solves a batch of 24 instances.  Single-instance times are
    # heavy-tailed (brute_hs takes 1 to 60 ms at these sizes), so the tail of
    # single instances moved by up to 20% between seeds; batch times do not.
    "desk-exact": [(_desk, (17, 20, 23) * 8)],
}


def make_op(workload: str, seed: int, k: int, directory: Path) -> Op:
    """Op k of a workload: a pure function of (workload, seed, k)."""
    maker, *params = WORKLOADS[workload][k % len(WORKLOADS[workload])]
    rng = random.Random(f"{workload}:{seed}:{k}")
    return _write(maker(rng, k, *params), directory)


# ---------------------------------------------------------------- execution

def _cli(argv: list) -> tuple:
    import gridpaths.cli  # looked up per call, so a traced pass sees its wrapper

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = gridpaths.cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _ids(ids) -> str:
    return "".join(f"{i}\n" for i in sorted(ids))


def _desk_calls(op: Op) -> dict:
    """Outputs of instance i of the batch under key str(i), by call."""
    from gridpaths import exact, geometry, instance_io, mds_epg, mds_vpg, mis, reduction

    batch = {}
    for i in range(len(op.texts) // 2):
        out = batch[str(i)] = {}
        rep = instance_io.parse_instance(_read(op.files[f"vpg{i}"])).rep
        graph = geometry.build_graph(rep)
        out["brute_mis"] = _ids(exact.brute_mis(graph))
        out["brute_mds"] = _ids(exact.brute_mds(graph))
        system = mds_vpg.build_set_system(rep)
        out["brute_hs"] = _ids(f"{system.universe[e].axis.value} {system.universe[e].owner}"
                               for e in exact.brute_hs(system))
        pos = {v: j for j, v in enumerate(graph.vertices)}
        simple = reduction.SimpleGraph(graph.n, tuple((pos[u], pos[v]) for u, v in graph.edges()))
        out["brute_vc"] = _ids(graph.vertices[j] for j in exact.brute_vc(simple, cap=graph.n))
        out["approx_mis"] = _ids(mis.approx_mis(rep))
        params = mds_vpg.NetParams(rng_seed=op.net_seed + i)
        out["approx_mds"] = _ids(mds_vpg.approx_mds_one_string(rep, params))
        erep = instance_io.parse_instance(_read(op.files[f"epg{i}"])).rep
        out["greedy"] = _ids(mds_epg.greedy_line_mds(erep))
    return batch


def execute(op: Op) -> tuple:
    """Run the op; returns (exit code, outputs, error text).  Only this
    function is inside the timed region."""
    try:
        return _execute(op)
    except Exception as exc:  # the op boundary: any failure is counted, not fatal
        return 1, {}, f"{type(exc).__name__}: {exc}"


def _execute(op: Op) -> tuple:
    f = op.files
    if op.kind == "solve":
        extra = ["--seed", str(op.net_seed)] if op.problem == "mds-vpg" else []
        rc, out, err = _cli(["solve", op.problem, "--input", f["inst"], *extra])
        return rc, {"stdout": out}, err
    if op.kind == "walk":
        gadget = str(Path(f["graph"]).with_name("gadget.txt"))
        steps = (
            ["reduce", "--input", f["graph"], "--output", gadget],
            ["solve", "mds-epg", "--input", gadget, "--output", f["out"]],
            ["map-back", "--input", gadget, "--graph", f["graph"], "--solution", f["out"],
             "--output", f["cover"]],
            ["verify", "--check", "reduction", "--input", gadget, "--graph", f["graph"]],
        )
        for argv in steps:
            rc, out, err = _cli(argv)
            if rc != 0:
                return rc, {}, f"{argv[0]}: {err}"
        return 0, {"gadget": _read(gadget), "ds": _read(f["out"]), "cover": _read(f["cover"]),
                   "verify": out}, ""
    return 0, _desk_calls(op), ""


def digest(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- checking

def _paths(text: str) -> list:
    return check.parse_paths(text)[1]


def _index(paths, text: str):
    return check.ids_to_index(paths, text.split())


def check_op(op: Op, outputs: dict) -> tuple:
    """(why the answer is wrong or "", approximation ratios, adjacency of the
    op's main instance)."""
    if op.kind == "walk":
        return _check_walk(op, outputs)
    if op.kind == "desk":
        return _check_desk(op, outputs)
    mode, paths, _ = check.parse_paths(op.texts["inst"])
    adj = check.adjacency(paths, mode)
    chosen = _index(paths, outputs["stdout"])
    if not chosen:
        return "unknown, repeated or no ids", [], adj
    if op.problem == "mis":
        if not check.is_independent(adj, chosen):
            return "dependent set", [], adj
        return "", [check.greedy_mis(adj) / len(chosen)], adj
    if not check.is_dominating(adj, chosen):
        return "not dominating", [], adj
    return "", [len(chosen) / check.packing_bound(adj)], adj


def _check_walk(op: Op, outputs: dict) -> tuple:
    lines = op.texts["graph"].split("\n")
    n = int(lines[0].split()[1])
    edges = [tuple(map(int, line.split()[1:])) for line in lines[1:] if line]
    paths = _paths(outputs["gadget"])
    adj = check.adjacency(paths, "epg")
    ds = _index(paths, outputs["ds"])
    cover = [int(v) for v in outputs["cover"].split()]
    if len(paths) != 5 * n + 2 * len(edges):
        return "gadget has the wrong number of paths", [], adj
    if not ds or not check.is_dominating(adj, ds):
        return "not dominating", [], adj
    if not check.is_vertex_cover(edges, cover) or len(cover) > len(ds) - n:
        return "map-back cover invalid or larger than |D| - n", [], adj
    if outputs["verify"] != "reduction: ok\n":
        return "verify did not report ok", [], adj
    return "", [len(ds) / check.packing_bound(adj)], adj


def _check_desk(op: Op, out: dict) -> tuple:
    """Every instance of the batch is checked; the adjacency returned is the
    disjoint union of the batch's VPG instances."""
    why, ratios, union = "", [], []
    for i in range(len(op.texts) // 2):
        wrong, found, vadj = _check_desk_instance(op.texts[f"vpg{i}"], op.texts[f"epg{i}"],
                                                  out[str(i)])
        why = why or (f"instance {i}: {wrong}" if wrong else "")
        ratios += found
        union += [[j + len(union) for j in a] for a in vadj]
    return why, ratios, union


def _check_desk_instance(vtext: str, etext: str, out: dict) -> tuple:
    """Oracle answers must be feasible and optimal against the checker's own
    exact search; approximate answers feasible, with ratios to the optimum."""
    vpaths, epaths = _paths(vtext), _paths(etext)
    vadj, eadj = check.adjacency(vpaths, "vpg"), check.adjacency(epaths, "epg")
    out = dict(out)
    hs = out.pop("brute_hs").splitlines()  # "<axis> <owner>" per hitting element
    sets = {k: _index(epaths if k == "greedy" else vpaths, v) for k, v in out.items()}
    sets["brute_hs"] = _index(vpaths, " ".join({line.split()[1] for line in hs}))
    if None in sets.values() or not sets["approx_mis"]:
        return "unknown, repeated or no ids", [], vadj
    alpha, gamma, gamma_e = check.exact_mis(vadj), check.exact_mds(vadj), check.exact_mds(eadj)
    edges = [(i, j) for i, a in enumerate(vadj) for j in a if i < j]
    s = sets
    feasible = {
        "brute_mis": check.is_independent(vadj, s["brute_mis"]) and len(s["brute_mis"]) == alpha,
        "brute_mds": check.is_dominating(vadj, s["brute_mds"]) and len(s["brute_mds"]) == gamma,
        # Owners of a hitting set dominate, and min HS lies in [mds, 2 mds].
        "brute_hs": check.is_dominating(vadj, s["brute_hs"]) and gamma <= len(hs) <= 2 * gamma,
        "brute_vc": check.is_vertex_cover(edges, s["brute_vc"])
        and len(s["brute_vc"]) == len(vpaths) - alpha,
        "approx_mis": check.is_independent(vadj, s["approx_mis"]),
        "approx_mds": check.is_dominating(vadj, s["approx_mds"]),
        "greedy": check.is_dominating(eadj, s["greedy"]),
    }
    wrong = [name for name, ok in feasible.items() if not ok]
    if wrong:
        return "wrong: " + ", ".join(wrong), [], vadj
    ratios = [alpha / len(s["approx_mis"]), len(s["approx_mds"]) / gamma,
              len(s["greedy"]) / gamma_e]
    return "", ratios, vadj


def crosscheck(corpus: list) -> list:
    """Disagreements between the package's instance predicates and the
    benchmark's own, on the corpus and on planted violations of it."""
    import gridpaths

    def rep(paths, mode, **lines):
        return gridpaths.parse_instance(gen.instance_text(mode, paths, **lines)).rep

    cases = []
    for op in corpus:
        for role, text in op.texts.items():
            mode, paths, lines = check.parse_paths(text)
            if mode == "vpg" and len(paths) <= 1000:
                cases.append(("is_one_string", paths, lambda p: gridpaths.is_one_string(rep(p, "vpg")),
                              check.is_one_string))
            elif lines.get("h") == 0:
                cases.append(("is_double_crossing", paths,
                              lambda p: gridpaths.is_double_crossing(rep(p, "epg"), 0, 0),
                              lambda p: check.is_double_crossing(p, 0, 0)))
            elif lines.get("v") == 0 and len(paths) <= 1000:
                cases.append(("is_vertical_crossing", paths,
                              lambda p: gridpaths.is_vertical_crossing(rep(p, "epg"), 0),
                              lambda p: check.is_vertical_crossing(p, 0)))
                cases.append(("check_non_containment", paths,
                              lambda p: gridpaths.check_non_containment(rep(p, "epg")),
                              check.non_containment))
    plant = {"is_one_string": gen.plant_double_crossing, "check_non_containment": gen.plant_containment}
    found = []
    for name, paths, theirs, ours in cases:
        variants = [paths, plant.get(name, gen.plant_off_lines)(paths)]
        for label, variant in zip(("corpus", "planted"), variants):
            if variant is not None and theirs(variant) != ours(variant):
                found.append(f"{name} on {label} instance of {len(variant)} paths: "
                             f"package says {theirs(variant)}, checker says {ours(variant)}")
    return found


# ---------------------------------------------------------------- measuring

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT / "benchmark")])
    return env


_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import gridpaths
t1 = time.perf_counter()
for name in sys.argv[1:]:
    with open(name, encoding="utf-8") as fh:
        text = fh.read()
    (gridpaths.parse_graph if name.endswith("graph.txt") else gridpaths.parse_instance)(text)
print(t1 - t0, time.perf_counter() - t0)
"""

_RSS_CHILD = """
import json, resource, sys
import gridpaths, run
run.execute(run.Op(**json.loads(sys.argv[1])))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _child(code: str, args: list) -> str:
    proc = subprocess.run([sys.executable, "-s", "-c", code, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"child process failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout.split()


class SetupTimer:
    """Times a fresh interpreter importing gridpaths and parsing every corpus
    file.  The samples are spread over the measured pass, so a slow spell of
    the machine skews few of them; the first start is unmeasured, so bytecode
    caches exist."""

    def __init__(self, corpus: list, speed: Speed):
        self.files = [f for op in corpus for role, f in op.files.items() if role in op.texts]
        self.speed = speed
        self.samples: list = []
        _child(_SETUP_CHILD, self.files)

    def sample(self) -> None:
        self.speed.sample()
        times = tuple(map(float, _child(_SETUP_CHILD, self.files)))
        self.speed.sample()
        self.samples.append(tuple(t * self.speed.scale() for t in times))

    def medians(self) -> tuple:
        """(import plus parse, import alone) in seconds."""
        return (statistics.median(s[1] for s in self.samples),
                statistics.median(s[0] for s in self.samples))


class Speed:
    """The host's current speed, from a fixed reference task timed around
    every op: the checker's adjacency scan of a fixed instance, which uses
    no code of the package.  A shared host runs fast and slow for spells of
    seconds to minutes, by up to 1.5x; op times divided by the reference
    time vary a few percent over the same spells."""

    def __init__(self):
        self.paths = gen.vpg_mixed(random.Random("reference"), 400, 400, 40)
        self.recent: deque = deque(maxlen=6)
        for _ in range(self.recent.maxlen):
            self.sample()

    def sample(self) -> None:
        t = perf_counter()
        check.adjacency(self.paths, "vpg")
        self.recent.append(perf_counter() - t)

    def scale(self) -> float:
        """Factor that turns seconds measured now into seconds at REFERENCE_S."""
        return REFERENCE_S / statistics.median(self.recent)


def measure_rss(op: Op) -> float:
    """Peak RSS in MiB of a fresh interpreter running the op once."""
    return float(_child(_RSS_CHILD, [json.dumps(op.spec())])[-1]) / 1024.0


@dataclass
class Record:
    stratum: str
    paths: int
    seconds: float  # scaled to the reference speed
    rc: int
    digest: str
    ok: bool = False
    refused: bool = False
    raw_seconds: float = 0.0
    ratios: list = field(default_factory=list)
    degree: float = 0.0
    edges: int = 0
    why: str = ""


def measure(workload: str, seed: int, budget: float, directory: Path, speed: Speed,
            count: int | None = None, tracer: Tracer | None = None,
            setup: SetupTimer | None = None) -> tuple:
    """Run ops 0, 1, ... in order.  Without `count`, keep going until the
    timed op seconds, at the reference speed, reach `budget`, always finishing the current cycle, and
    take the set-up samples at even steps of op time.  Untraced passes check
    every answer; a traced pass is compared with the untraced one by digest
    instead.  The reference task runs before and after every op, outside
    its timed region."""
    cycle = len(WORKLOADS[workload])
    records, gen_s, check_s = [], 0.0, 0.0
    spent = 0.0
    k = 0
    while (k < count) if count is not None else (k % cycle or spent < budget):
        if setup is not None and spent >= budget * len(setup.samples) / SETUP_REPEATS:
            setup.sample()
        t = perf_counter()
        op = make_op(workload, seed, k, directory / f"op{k}")
        gen_s += perf_counter() - t
        if tracer is not None:
            tracer.op = k
        speed.sample()
        t = perf_counter()
        rc, outputs, err = execute(op)
        elapsed = perf_counter() - t
        speed.sample()
        rec = Record(op.stratum, op.paths, elapsed * speed.scale(), rc, digest(outputs),
                     why=err.strip()[:200], raw_seconds=elapsed)
        spent += rec.seconds
        if tracer is None:
            t = perf_counter()
            if rc == 0:
                rec.why, rec.ratios, adj = check_op(op, outputs)
                rec.ok = not rec.why
            else:  # still record the density of the input that failed
                rec.refused = bool(op.refusal) and err.startswith(f"error: {op.refusal}:")
                mode, paths, _ = check.parse_paths(next(iter(op.texts.values())))
                adj = check.adjacency(paths, mode)
            rec.degree, rec.edges = check.mean_degree(adj), sum(map(len, adj)) // 2
            check_s += perf_counter() - t
        records.append(rec)
        shutil.rmtree(directory / f"op{k}")
        k += 1
    while setup is not None and len(setup.samples) < SETUP_REPEATS:
        setup.sample()
    return records, gen_s, check_s


def tail(values: list) -> tuple:
    """(value, percentile): the highest order statistic with at least ten
    samples above it, never below the median."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    rank = max(n - 11, n // 2)
    return values[rank], 100.0 * rank / max(1, n - 1)


def end_to_end(records: list) -> tuple:
    ok = [r for r in records if r.ok]
    times = [1000.0 * r.seconds for r in ok]
    tail_ms, tail_pct = tail(times)
    ratios = [x for r in ok for x in r.ratios]
    metrics = {
        "op_ms.p50": statistics.median(times) if times else 0.0,
        "op_ms.tail": tail_ms,
        "paths_per_s": sum(r.paths for r in ok) / sum(r.seconds for r in records),
        "ok_frac": len(ok) / len(records),
        "approx_ratio": statistics.fmean(ratios) if ratios else 0.0,
    }
    refused = sum(r.refused for r in records) / len(records)
    return metrics, {"tail_percentile": tail_pct, "samples": len(ok), "refused_frac": refused,
                     "fail_frac": 1.0 - metrics["ok_frac"] - refused}


END_TO_END_UNITS = {"op_ms.p50": "ms", "op_ms.tail": "ms", "paths_per_s": "1/s",
                    "ok_frac": "ratio", "approx_ratio": "ratio", "peak_rss_mib": "MiB",
                    "setup_s": "s"}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "ms" if name.endswith(".ms") else layers.UNITS[name.rsplit(".", 1)[-1]]


# ---------------------------------------------------------------- provenance

def provenance(workload: str, seed: int, records: list) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    strata: dict = {}
    for r in records:
        s = strata.setdefault(r.stratum, {"ops": 0, "failed": 0, "refused": 0, "paths": r.paths,
                                          "checked": [], "seconds": []})
        s["ops"] += 1
        s["seconds"].append(r.seconds)
        s["failed"] += not (r.ok or r.refused)
        s["refused"] += r.refused
        if r.paths and r.edges:
            s["checked"].append(r)
    for s in strata.values():
        checked = s.pop("checked")
        s["fail_frac"] = round(s["failed"] / s["ops"], 4)
        s["refused_frac"] = round(s["refused"] / s["ops"], 4)
        s["op_ms.p50"] = round(1000.0 * statistics.median(s.pop("seconds")), 2)
        if checked:
            s["mean_degree"] = round(statistics.fmean(r.degree for r in checked), 3)
            s["edges"] = round(statistics.fmean(r.edges for r in checked), 1)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "strata": strata,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------- main

def _import_package():
    if not (SRC / "gridpaths" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'gridpaths'}")
    sys.path.insert(0, str(SRC))
    import gridpaths

    if Path(gridpaths.__file__).resolve().parent != (SRC / "gridpaths").resolve():
        raise SetupError(f"imported gridpaths from {gridpaths.__file__}, not from {SRC}")


def run(workload: str, seed: int, seconds: float, traced: bool, directory: Path) -> tuple:
    cycle = len(WORKLOADS[workload])
    corpus = [make_op(workload, seed, k, directory / "corpus" / f"op{k}") for k in range(cycle)]
    for op in corpus:
        for role, text in op.texts.items():
            mode, paths, _ = check.parse_paths(text)
            degree = check.mean_degree(check.adjacency(paths, mode))
            if mode and degree < op.floor:
                raise SetupError(f"{workload} {op.stratum} {role}: mean degree {degree:.2f} "
                                 f"is below the floor {op.floor}")
    disagreements = crosscheck(corpus)
    details = {"disagreements": disagreements}
    rss = measure_rss(max(corpus, key=lambda op: op.paths))
    speed = Speed()
    setup = SetupTimer(corpus, speed)
    records, gen_s, check_s = measure(workload, seed, seconds / 2 if traced else seconds,
                                      directory, speed, setup=setup)
    setup_s, details["import_s"] = setup.medians()
    metrics, details["latency"] = end_to_end(records)
    metrics["peak_rss_mib"] = rss
    metrics["setup_s"] = setup_s
    wrong = [f"op {k} {r.stratum}: {r.why}" for k, r in enumerate(records) if r.rc == 0 and not r.ok]
    details["wrong"] = wrong[:20]
    details["errors"] = dict(Counter(r.why.replace("error: ", "").split(":")[0]
                                       for r in records if r.rc != 0))
    details["raw_op_ms.p50"] = 1000.0 * statistics.median(r.raw_seconds for r in records)
    details["speed_scale.p50"] = statistics.median(r.seconds / r.raw_seconds for r in records)
    correct = not wrong and not disagreements
    prov = provenance(workload, seed, records)

    if traced:
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced_records, _, _ = measure(workload, seed, 0.0, directory, speed, len(records),
                                           tracer)
        finally:
            tracer.unwrap_all()
        same = [a.digest == b.digest for a, b in zip(records, traced_records)]
        details["traced_outputs_identical"] = all(same)
        correct = correct and all(same)
        metrics = layers.per_layer(tracer, len(records))
        ok = [k for k, r in enumerate(records) if r.ok]
        base = statistics.median(records[k].seconds for k in ok) if ok else 0.0
        with_trace = statistics.median(traced_records[k].seconds for k in ok) if ok else 0.0
        metrics["bench.gen_s"] = gen_s / len(records)
        metrics["bench.check_s"] = check_s / len(records)
        metrics["trace.overhead_frac"] = (with_trace - base) / base if base else 0.0
        metrics["trace.absent"] = float(len(tracer.absent))
        details["absent"] = tracer.absent
        strip_peaks = tracer.peaks["strip"].values()
        prov["max_strip"] = max(strip_peaks) if strip_peaks else None

    failed = sum(not (r.ok or r.refused) for r in records)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    return {"provenance": prov, "details": details}, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        _import_package()
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), directory)
    except (SetupError, gen.GenerationError) as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
