"""Command-line front end.

Exit codes: 0 success, 1 infeasible input or failed validation, 2 usage or
parse error.  All solver and generator output is deterministic for a fixed
command line and input.
"""
from __future__ import annotations

import argparse
import functools
import sys
import time

from . import generators, mds_epg, mds_vpg, mis
from .errors import GridPathsError, ParseError
from .exact import (
    MAX_MDS_VERTICES,
    MAX_MIS_VERTICES,
    brute_mds,
    brute_mis,
    brute_vc,
    brute_hs,
)
from .geometry import Representation, build_graph, is_one_string, weak_general_position
from .instance_io import emit_graph, emit_instance, parse_graph, parse_instance
from .mds_vpg import NetParams, build_set_system
from .reduction import ReductionInstance, map_back, reduce_vc_to_mds, verify_reduction


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _id_lines(ids) -> str:
    return "".join(f"{i}\n" for i in sorted(ids))


def _count(text: str) -> int:
    """argparse type of a count option: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _cmd_gen_vpg(args) -> int:
    rep = generators.gen_vpg(args.n, args.seed, one_string=args.one_string)
    _write_out(args, emit_instance(rep))
    return 0


def _cmd_gen_epg(args) -> int:
    if args.family == "double-crossing":
        rep = generators.gen_epg_double_crossing(args.n, args.seed)
    else:
        rep = generators.gen_epg_vertical_crossing(args.n, args.seed)
    _write_out(args, emit_instance(rep))
    return 0


def _cmd_gen_graph(args) -> int:
    g = generators.gen_degree3_graph(args.n, args.m, args.seed)
    _write_out(args, emit_graph(g))
    return 0


def _approximate(problem: str, rep: Representation, seed: int) -> set[str]:
    """The approximation `solve` and `bench` run; seed is mds-vpg's net seed."""
    if problem == "mis":
        return mis.approx_mis(rep)
    if problem == "mds-vpg":
        return mds_vpg.approx_mds_one_string(rep, NetParams(rng_seed=seed))
    return mds_epg.greedy_line_mds(rep)


def _cmd_solve(args) -> int:
    inst = parse_instance(_read(args.input))
    _write_out(args, _id_lines(_approximate(args.problem, inst.rep, args.seed)))
    return 0


def _cmd_exact(args) -> int:
    if args.problem == "vc":
        g = parse_graph(_read(args.input))
        kwargs = {"cap": args.cap} if args.cap else {}
        _write_out(args, _id_lines(str(v) for v in brute_vc(g, **kwargs)))
        return 0
    inst = parse_instance(_read(args.input))
    if args.problem == "hs":
        system = build_set_system(inst.rep)
        kwargs = {"universe_cap": args.cap, "sets_cap": args.cap} if args.cap else {}
        chosen = brute_hs(system, **kwargs)
        lines = sorted(
            f"{system.universe[e].axis.value} {system.universe[e].owner}"
            for e in chosen
        )
        _write_out(args, "".join(line + "\n" for line in lines))
        return 0
    graph = build_graph(inst.rep)
    kwargs = {"cap": args.cap} if args.cap else {}
    solver = brute_mis if args.problem == "mis" else brute_mds
    _write_out(args, _id_lines(solver(graph, **kwargs)))
    return 0


def _cmd_reduce(args) -> int:
    g = parse_graph(_read(args.input))
    inst = reduce_vc_to_mds(g)
    _write_out(args, emit_instance(inst.rep, inst.labels))
    return 0


def _cmd_map_back(args) -> int:
    parsed = parse_instance(_read(args.input))
    g = parse_graph(_read(args.graph))
    solution = set(_read(args.solution).split())
    cover = map_back(solution, ReductionInstance(parsed.rep, parsed.labels), g)
    _write_out(args, _id_lines(str(v) for v in cover))
    return 0


def _cmd_verify(args) -> int:
    if args.check == "reduction":
        if not args.graph:
            print("verify --check reduction requires --graph", file=sys.stderr)
            return 2
        parsed = parse_instance(_read(args.input))
        g = parse_graph(_read(args.graph))
        ok = verify_reduction(ReductionInstance(parsed.rep, parsed.labels), g)
    else:
        rep = parse_instance(_read(args.input)).rep
        if args.check == "one-string":
            ok = is_one_string(rep)
        elif args.check == "general-position":
            ok = weak_general_position(rep)
        elif args.check == "non-containment":
            ok = mds_epg.check_non_containment(rep)
        elif args.check == "vertical-crossing":
            vline = rep.vline if rep.vline is not None else mds_epg.detect_vertical_line(rep)
            ok = vline is not None and mds_epg.is_vertical_crossing(rep, vline)
        else:  # double-crossing
            vline = rep.vline if rep.vline is not None else mds_epg.detect_vertical_line(rep)
            hline = rep.hline if rep.hline is not None else mds_epg.detect_horizontal_line(rep)
            ok = (
                vline is not None
                and hline is not None
                and mds_epg.is_double_crossing(rep, hline, vline)
            )
    print(f"{args.check}: {'ok' if ok else 'violated'}")
    return 0 if ok else 1


_FAMILY_FOR_ALGO = {
    "mis": ("vpg-one-string",),
    "mds-vpg": ("vpg-one-string",),
    "mds-epg": ("epg-double-crossing", "epg-vertical-crossing"),
}


def _bench_instance(family: str, n: int, seed: int) -> Representation:
    if family == "vpg-one-string":
        return generators.gen_vpg(n, seed, one_string=True)
    if family == "epg-double-crossing":
        return generators.gen_epg_double_crossing(n, seed)
    return generators.gen_epg_vertical_crossing(n, seed)


def _cmd_bench(args) -> int:
    if args.family not in _FAMILY_FOR_ALGO[args.algo]:
        print(
            f"algorithm {args.algo} cannot run on family {args.family}",
            file=sys.stderr,
        )
        return 2
    try:
        lo, hi = (int(part) for part in args.sizes.split(":"))
    except ValueError:
        print("--sizes expects LO:HI", file=sys.stderr)
        return 2
    if lo < 0:
        print("--sizes expects LO >= 0", file=sys.stderr)
        return 2
    rows = []
    for n in range(lo, hi + 1):
        for seed in range(args.seeds):
            rep = _bench_instance(args.family, n, seed)
            start = time.perf_counter()
            solution = _approximate(args.algo, rep, seed)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            size = len(solution)
            opt = ""
            ratio = ""
            # The graph has one vertex per path; it is built only for an oracle.
            if args.algo == "mis" and len(rep.paths) <= MAX_MIS_VERTICES:
                opt_size = len(brute_mis(build_graph(rep)))
                opt = str(opt_size)
                if size:
                    ratio = f"{opt_size / size:.4f}"
            elif args.algo != "mis" and len(rep.paths) <= MAX_MDS_VERTICES:
                opt_size = len(brute_mds(build_graph(rep)))
                opt = str(opt_size)
                if opt_size:
                    ratio = f"{size / opt_size:.4f}"
            instance_id = f"{args.family}-n{n:03d}-s{seed:04d}"
            rows.append(
                (instance_id, args.algo,
                 f"{instance_id},{n},{args.algo},{size},{opt},{ratio},{elapsed_ms:.2f}")
            )
    rows.sort(key=lambda r: (r[0], r[1]))
    csv_text = "instance_id,n,algo,size,opt,ratio,runtime_ms\n" + "".join(
        row + "\n" for _, _, row in rows
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


@functools.cache  # parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridpaths",
        description="Solvers, generators and checkers for single-bend grid path graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-vpg", help="generate a random VPG instance")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--one-string", action="store_true")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_gen_vpg)

    p = sub.add_parser("gen-epg", help="generate a restricted EPG instance")
    p.add_argument("--family", choices=("double-crossing", "vertical-crossing"),
                   required=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_gen_epg)

    p = sub.add_parser("gen-graph", help="generate a max-degree-3 graph")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--m", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_gen_graph)

    p = sub.add_parser("solve", help="run an approximation algorithm")
    p.add_argument("problem", choices=tuple(_FAMILY_FOR_ALGO))
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="net sampling seed (mds-vpg only)")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("exact", help="run a brute-force oracle")
    p.add_argument("problem", choices=("mis", "mds", "vc", "hs"))
    p.add_argument("--input", required=True)
    p.add_argument("--cap", type=int,
                   help="raise the oracle size cap (instances stay desk scale)")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("reduce", help="vertex cover to dominating set gadget")
    p.add_argument("--input", required=True, help="graph file")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("map-back", help="dominating set back to a vertex cover")
    p.add_argument("--input", required=True, help="labeled instance file")
    p.add_argument("--graph", required=True, help="original graph file")
    p.add_argument("--solution", required=True,
                   help="file of whitespace-separated path ids")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_map_back)

    p = sub.add_parser("verify", help="validate an instance property")
    p.add_argument("--check", required=True,
                   choices=("one-string", "general-position", "double-crossing",
                            "vertical-crossing", "non-containment", "reduction"))
    p.add_argument("--input", required=True)
    p.add_argument("--graph")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bench", help="ratio sweep, CSV per instance and algorithm")
    p.add_argument("--family",
                   choices=("vpg-one-string", "epg-double-crossing",
                            "epg-vertical-crossing"),
                   required=True)
    p.add_argument("--algo", choices=tuple(_FAMILY_FOR_ALGO), required=True)
    p.add_argument("--sizes", required=True, help="inclusive range LO:HI")
    p.add_argument("--seeds", type=_count, default=3)
    p.add_argument("--csv")
    p.set_defaults(handler=_cmd_bench)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GridPathsError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
