"""The package's public names: `__all__` is a literal list, pinned here, so a
name leaves the public surface only by an edit to both."""
import gridpaths

PUBLIC = """
    Axis DegreeTooHigh GeneralPositionViolation GenerationExhausted GridPath
    GridPathsError GridPoint Infeasible Instance IntersectionGraph
    LayoutFailure Mode NetFailure NetParams NotDominating NotHitting
    NotOneString ParseError PathType ReductionInstance Representation Segment
    SetSystem SimpleGraph TooFewPaths TooLarge UnknownId WrongMode
    approx_mds_one_string approx_mis approx_mis_single_type axis_net
    bg_hitting_set brute_hs brute_mds brute_mis brute_vc build_graph
    build_set_system check_non_containment classify_type combined_net
    compute_xmed detect_horizontal_line detect_vertical_line ds_to_hs
    emit_graph emit_instance epg_adjacent errors exact gadget_graph
    gen_degree3_graph gen_epg_double_crossing gen_epg_vertical_crossing
    gen_vpg generators geometry greedy_line_mds hs_to_ds instance_io
    is_double_crossing is_one_string is_vertical_crossing map_back mds_epg
    mds_vpg mis order_paths parse_graph parse_instance partition_LMR
    reduce_vc_to_mds reduction split_by_type verify_hitting verify_reduction
    vpg_adjacent weak_general_position
""".split()


def test_all_is_pinned():
    assert len(set(gridpaths.__all__)) == len(gridpaths.__all__)
    assert sorted(gridpaths.__all__) == PUBLIC


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from gridpaths import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC
