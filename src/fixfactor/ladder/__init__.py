"""Countable compact ladder systems with exact symbolic orbit computation.

A ladder space is assembled from three constructors: a ``strand`` (one
two-sided orbit between an attracting and a repelling fixed endpoint),
``cat(T)`` (countably many copies of T glued end to end, each copy's top
identified with the next copy's base, plus one new top point), and
``ramp`` (a cat-style row whose m-th block is the (m+1)-fold cat of a
strand, so block difficulty grows without bound).

Degrees of the orbit hierarchy genuinely exceed zero here, including
transfinite values.  Base orbits have a closed form (a strand enters one
as a forward tail or whole, plus limit points), traces are computed
symbolically, and both are audited against finite window truncations.
"""

from .terms import LadderTerm, parse_term, term_stab, term_interior_merge
from .space import LadderSpace, build_ladder
from .sets import SymbolicSet, ladder_aorb0
from .trace import LadderTrace, SymPartition, ladder_trace
from .window import Window, window, window_check

__all__ = [
    "LadderTerm",
    "LadderSpace",
    "LadderTrace",
    "SymPartition",
    "SymbolicSet",
    "Window",
    "build_ladder",
    "ladder_aorb0",
    "ladder_trace",
    "parse_term",
    "term_interior_merge",
    "term_stab",
    "window",
    "window_check",
]
