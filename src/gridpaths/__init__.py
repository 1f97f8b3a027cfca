"""Approximation algorithms, exact oracles and generators for single-bend
grid path intersection graphs (B1-VPG and B1-EPG representations)."""

from .errors import (
    GeneralPositionViolation,
    GenerationExhausted,
    GridPathsError,
    Infeasible,
    LayoutFailure,
    NetFailure,
    NotDominating,
    NotHitting,
    NotOneString,
    ParseError,
    TooFewPaths,
    TooLarge,
    UnknownId,
    WrongMode,
    DegreeTooHigh,
)
from .geometry import (
    GridPath,
    GridPoint,
    IntersectionGraph,
    Mode,
    PathType,
    Representation,
    build_graph,
    classify_type,
    epg_adjacent,
    is_one_string,
    vpg_adjacent,
    weak_general_position,
)
from .mis import approx_mis, approx_mis_single_type, compute_xmed, partition_LMR, split_by_type
from .mds_vpg import (
    Axis,
    NetParams,
    Segment,
    SetSystem,
    approx_mds_one_string,
    axis_net,
    bg_hitting_set,
    build_set_system,
    combined_net,
    ds_to_hs,
    hs_to_ds,
    verify_hitting,
)
from .mds_epg import (
    check_non_containment,
    detect_horizontal_line,
    detect_vertical_line,
    greedy_line_mds,
    is_double_crossing,
    is_vertical_crossing,
    order_paths,
)
from .reduction import (
    ReductionInstance,
    SimpleGraph,
    gadget_graph,
    map_back,
    reduce_vc_to_mds,
    verify_reduction,
)
from .exact import brute_hs, brute_mds, brute_mis, brute_vc
from .generators import (
    gen_degree3_graph,
    gen_epg_double_crossing,
    gen_epg_vertical_crossing,
    gen_vpg,
)
from .instance_io import Instance, emit_graph, emit_instance, parse_graph, parse_instance

# The submodule names are public too: importing from a submodule binds it in
# the package namespace.
__all__ = [
    # errors
    "DegreeTooHigh",
    "GeneralPositionViolation",
    "GenerationExhausted",
    "GridPathsError",
    "Infeasible",
    "LayoutFailure",
    "NetFailure",
    "NotDominating",
    "NotHitting",
    "NotOneString",
    "ParseError",
    "TooFewPaths",
    "TooLarge",
    "UnknownId",
    "WrongMode",
    # geometry
    "GridPath",
    "GridPoint",
    "IntersectionGraph",
    "Mode",
    "PathType",
    "Representation",
    "build_graph",
    "classify_type",
    "epg_adjacent",
    "is_one_string",
    "vpg_adjacent",
    "weak_general_position",
    # mis
    "approx_mis",
    "approx_mis_single_type",
    "compute_xmed",
    "partition_LMR",
    "split_by_type",
    # mds_vpg
    "Axis",
    "NetParams",
    "Segment",
    "SetSystem",
    "approx_mds_one_string",
    "axis_net",
    "bg_hitting_set",
    "build_set_system",
    "combined_net",
    "ds_to_hs",
    "hs_to_ds",
    "verify_hitting",
    # mds_epg
    "check_non_containment",
    "detect_horizontal_line",
    "detect_vertical_line",
    "greedy_line_mds",
    "is_double_crossing",
    "is_vertical_crossing",
    "order_paths",
    # reduction
    "ReductionInstance",
    "SimpleGraph",
    "gadget_graph",
    "map_back",
    "reduce_vc_to_mds",
    "verify_reduction",
    # exact
    "brute_hs",
    "brute_mds",
    "brute_mis",
    "brute_vc",
    # generators
    "gen_degree3_graph",
    "gen_epg_double_crossing",
    "gen_epg_vertical_crossing",
    "gen_vpg",
    # instance_io
    "Instance",
    "emit_graph",
    "emit_instance",
    "parse_graph",
    "parse_instance",
    # submodules
    "errors",
    "exact",
    "generators",
    "geometry",
    "instance_io",
    "mds_epg",
    "mds_vpg",
    "mis",
    "reduction",
]
