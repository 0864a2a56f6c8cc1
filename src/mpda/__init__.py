"""Reachability toolkit for multi-pushdown systems with weak control."""

from .model import (
    Cancel,
    Configuration,
    InvalidFragment,
    InvalidWitness,
    Mpda,
    MpdaError,
    NotEnabled,
    StackSymbol,
    TransitionRule,
    Verdict,
    Witness,
    expand,
    flat_length,
    replay,
    start_occurrences,
    step,
    successors,
)
from .formats import (
    ParseError,
    parse_configuration,
    parse_mpda,
    parse_regset,
    parse_witness,
    serialize_configuration,
    serialize_mpda,
    serialize_regset,
    serialize_witness,
)
from .regsets import (
    Component,
    RegSet,
    StackNfa,
    TooLarge,
    complement,
    enumerate_members,
    intersect,
    is_empty,
    is_subset,
    meets,
    member,
    pre_image,
    singleton,
    union,
)
from .classify import is_normed, is_strongly_normed, is_weak, cancel_table
from .oracle import OracleBudget, bfs_reach, is_fully_active, shrink_source
from .marked import decide_marked, decide_regreg, mk_subwords, reach_marked, reconstruct
from .wqo import colored_leq, colored_successors, decide_wqo, reach_wqo
from .separator import backward_fixpoint, check_separator, decide_separator
from . import gadgets

__all__ = [name for name in dir() if not name.startswith("_")]
