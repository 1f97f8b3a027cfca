"""The package's layers as the traced pass sees them: which module
attribute each pipeline calls through, the counts taken there, and the
per-layer metrics derived from the spans.  See NOTES.md for the mapping of
each metric to the end-to-end metric it should move."""
from __future__ import annotations

import statistics

from tracer import Tracer


def _graph(t, result, args):
    n = len(args[0].paths)
    t.counts["pairs"] += n * (n - 1) / 2
    t.counts["edges"] += sum(map(len, result.adjacency.values())) / 2


def _parse_bytes(t, result, args):
    t.counts["parse_bytes"] += len(args[0])


def _r(t, args):
    t.peak("r", int(1 / (2 * args[1])))


def _net_ok(t, result, args):
    _r(t, args)
    t.counts["consecutive_failures"] = 0


def _net_failed(t, exc, args):
    _r(t, args)
    if type(exc).__name__ == "NetFailure":
        t.counts["net_failures"] += 1
        t.counts["consecutive_failures"] += 1


def _round(t, result, args):
    if t.parent_name() != "mds_vpg.hitting":
        return
    t.counts["rounds"] += 1
    t.counts["verified"] += result is None
    if t.counts["consecutive_failures"] >= 2:  # both samplings failed: whole universe
        t.counts["fallbacks"] += 1
    t.counts["consecutive_failures"] = 0


def _prune(t, result, args):
    t.counts["prune_in"] += len(args[1])
    t.counts["prune_out"] += len(result)


def _strip(t, result, args):
    n = len(args[0].paths)
    t.counts["strips"] += 1
    t.counts["strip_paths"] += n
    t.peak("strip", n)


def _over_cap(t, exc, args):
    if type(exc).__name__ == "TooLarge":
        t.counts["over_cap"] += 1


def install(tracer: Tracer) -> None:
    """Wrap the module attributes each pipeline calls through."""
    from gridpaths import cli, exact, geometry, instance_io, mds_epg, mds_vpg, mis, reduction

    w = tracer.wrap
    w(cli, "run", "cli")
    for module in (cli, instance_io):
        w(module, "parse_instance", "instance_io.parse", after=_parse_bytes)
    w(cli, "parse_graph", "instance_io.parse", after=_parse_bytes)
    w(cli, "emit_instance", "instance_io.emit")
    for module, name in ((geometry, "geometry.build_graph"), (mds_vpg, "mds_vpg.graph"),
                         (mds_epg, "mds_epg.graph"), (reduction, "reduction.graph")):
        w(module, "build_graph", name, after=_graph)
    w(mds_vpg, "is_one_string", "geometry.is_one_string")
    w(mds_vpg, "approx_mds_one_string", "mds_vpg")
    w(mds_vpg, "build_set_system", "mds_vpg.set_system")
    w(mds_vpg, "bg_hitting_set", "mds_vpg.hitting")
    w(mds_vpg, "combined_net", "mds_vpg.nets", after=_net_ok, on_error=_net_failed)
    w(mds_vpg, "verify_hitting", "mds_vpg.verify", after=_round)
    w(mds_vpg, "_prune_hitting_set", "mds_vpg.prune", after=_prune)
    w(mis, "approx_mis", "mis")
    w(mis, "partition_LMR", "mis.partition")
    w(mis, "build_graph", "mis.strip_graph", after=_strip)
    w(mis, "brute_mis", "mis.strip_exact", on_error=_over_cap)
    w(mds_epg, "greedy_line_mds", "mds_epg")
    w(mds_epg, "order_paths", "mds_epg.order")
    w(cli, "reduce_vc_to_mds", "reduction.reduce")
    w(reduction, "gadget_graph", "reduction.gadget_graph")
    w(cli, "verify_reduction", "reduction.verify")
    w(cli, "map_back", "reduction.map_back")
    for name in ("brute_mis", "brute_mds", "brute_hs", "brute_vc"):
        w(exact, name, f"exact.{name}")


_GRAPH_SPANS = ("geometry.build_graph", "mds_vpg.graph", "mds_epg.graph", "reduction.graph")


def per_layer(tracer: Tracer, ops: int) -> dict:
    total, own, calls = tracer.totals()
    c = tracer.counts

    def ms(*names):
        return 1000.0 * sum(total[n] for n in names) / ops

    def self_ms(name):
        return 1000.0 * own[name] / ops

    def ratio(a, b):
        return a / b if b else 0.0

    def peak(name):
        values = tracer.peaks[name].values()
        return statistics.fmean(values) if values else 0.0

    out = {
        "geometry.build_graph.ms": ms(*_GRAPH_SPANS),
        "geometry.is_one_string.ms": ms("geometry.is_one_string"),
        "geometry.pairs": c["pairs"] / ops,
        "geometry.edges": c["edges"] / ops,
        "geometry.edge_yield": ratio(c["edges"], c["pairs"]),
        "mds_vpg.ms": ms("mds_vpg"),
        "mds_vpg.self.ms": self_ms("mds_vpg"),
        "mds_vpg.set_system.ms": ms("mds_vpg.set_system"),
        "mds_vpg.set_system.self.ms": self_ms("mds_vpg.set_system"),
        "mds_vpg.nets.ms": ms("mds_vpg.nets"),
        "mds_vpg.rounds": c["rounds"] / ops,
        "mds_vpg.r_max": peak("r"),
        "mds_vpg.net_failures": c["net_failures"] / ops,
        "mds_vpg.universe_fallbacks": c["fallbacks"] / ops,
        "mds_vpg.verify.ms": ms("mds_vpg.verify"),
        "mds_vpg.net_yield": ratio(c["verified"], c["rounds"]),
        "mds_vpg.hitting.self.ms": self_ms("mds_vpg.hitting"),
        "mds_vpg.prune.ms": ms("mds_vpg.prune"),
        "mds_vpg.prune_in": c["prune_in"] / ops,
        "mds_vpg.prune_out": c["prune_out"] / ops,
        "mis.ms": ms("mis"),
        "mis.self.ms": self_ms("mis"),
        "mis.partition.ms": ms("mis.partition"),
        "mis.partition.calls": calls["mis.partition"] / ops,
        "mis.strip_graph.ms": ms("mis.strip_graph"),
        "mis.strip_exact.ms": ms("mis.strip_exact"),
        "mis.strip.max": peak("strip"),
        "mis.strip.mean": ratio(c["strip_paths"], c["strips"]),
        "mis.strip_over_cap": c["over_cap"] / ops,
        "mds_epg.ms": ms("mds_epg"),
        "mds_epg.graph.ms": ms("mds_epg.graph"),
        "mds_epg.order.ms": ms("mds_epg.order"),
        "mds_epg.sweep.self.ms": self_ms("mds_epg"),
        "reduction.reduce.ms": ms("reduction.reduce"),
        "reduction.gadget_graph.ms": ms("reduction.gadget_graph"),
        "reduction.graph.ms": ms("reduction.graph"),
        "reduction.verify.ms": ms("reduction.verify"),
        "reduction.map_back.ms": ms("reduction.map_back"),
    }
    for name in ("brute_mis", "brute_mds", "brute_hs", "brute_vc"):
        out[f"exact.{name}.ms"] = ms(f"exact.{name}")
        out[f"exact.{name}.calls"] = calls[f"exact.{name}"] / ops
    out["instance_io.parse.ms"] = ms("instance_io.parse")
    out["instance_io.parse.bytes"] = c["parse_bytes"] / ops
    out["instance_io.emit.ms"] = ms("instance_io.emit")
    out["cli.self.ms"] = 1000.0 * ratio(own["cli"], calls["cli"])
    return out


UNITS = {  # per-layer unit by the last part of the metric name
    "pairs": "count", "edges": "count", "edge_yield": "ratio", "rounds": "count",
    "r_max": "count", "net_failures": "count", "universe_fallbacks": "count",
    "net_yield": "ratio", "prune_in": "count", "prune_out": "count", "calls": "count",
    "max": "count", "mean": "count", "strip_over_cap": "count", "bytes": "bytes",
    "gen_s": "s", "check_s": "s", "overhead_frac": "ratio", "absent": "count",
}
