"""Ladder term grammar and the degree bookkeeping derived from it.

Grammar::

    term ::= "strand" | "ramp" | "cat(" term ")"

Two ordinals are attached to every term.  ``term_stab`` is the degree at
which the trace becomes stationary; ``term_interior_merge`` is the degree
at which the half-open space (base included, top excluded) collapses to a
single class.  A strand merges immediately and its repelling top joins at
the same degree; each cat layer delays both by one successor step because
the copy tops (the glue points) only join once the copied system has
fully collapsed; a ramp's blocks grow in difficulty, so its interior only
merges at the first limit degree and its top one step later.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..errors import DepthError, TermError
from ..ordinals import OMEGA, OrdinalCNF

NESTING_CAP = 6
# Largest ramp block index a locator may name.  Block m nests m + 1 cat
# layers, and the recursive term helpers fail near m = 490 under the
# default recursion limit.
BLOCK_INDEX_CAP = 100


@dataclass(frozen=True)
class LadderTerm:
    kind: str  # "strand" | "cat" | "ramp"
    child: "LadderTerm | None" = None

    def __str__(self) -> str:
        if self.kind == "cat":
            return f"cat({self.child})"
        return self.kind


STRAND = LadderTerm("strand")
RAMP = LadderTerm("ramp")


def cat(child: LadderTerm) -> LadderTerm:
    return LadderTerm("cat", child)


@lru_cache(maxsize=None)
def cat_power(n: int) -> LadderTerm:
    """n-fold cat of a strand; cat_power(0) is the bare strand."""
    return STRAND if n == 0 else cat(cat_power(n - 1))


def ramp_block_term(m: int) -> LadderTerm:
    """The m-th ramp block, one cat layer harder than the previous one."""
    return cat_power(m + 1)


def parse_term(text: str) -> LadderTerm:
    s = text.replace(" ", "")
    term, rest = _parse(s, 0)
    if rest:
        raise TermError(f"trailing input {rest!r} in term {text!r}")
    return term


def _parse(s: str, depth: int) -> tuple[LadderTerm, str]:
    """Parse a term inside ``depth`` cat layers.  A ramp or cat that would
    nest past ``NESTING_CAP`` is refused before its argument is read."""
    if s.startswith("strand"):
        return STRAND, s[len("strand"):]
    if s.startswith(("ramp", "cat(")) and depth >= NESTING_CAP:
        raise DepthError(
            f"term nests more than {NESTING_CAP} levels, cap is {NESTING_CAP}")
    if s.startswith("ramp"):
        return RAMP, s[len("ramp"):]
    if s.startswith("cat("):
        inner, rest = _parse(s[len("cat("):], depth + 1)
        if not rest.startswith(")"):
            raise TermError(f"unbalanced parentheses near {rest!r}")
        return cat(inner), rest[1:]
    raise TermError(f"cannot parse term at {s!r}")


@lru_cache(maxsize=None)
def term_stab(term: LadderTerm) -> OrdinalCNF:
    """Degree at which the trace of the term's system is stationary."""
    if term.kind == "strand":
        return OrdinalCNF.from_int(0)
    if term.kind == "ramp":
        return OMEGA.successor()
    return term_stab(term.child).successor()


@lru_cache(maxsize=None)
def term_interior_merge(term: LadderTerm) -> OrdinalCNF:
    """Least degree at which the half-open space is a single class."""
    if term.kind == "strand":
        return OrdinalCNF.from_int(0)
    if term.kind == "ramp":
        return OMEGA
    return term_stab(term.child)
