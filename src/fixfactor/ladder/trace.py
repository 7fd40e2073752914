"""Degree-indexed symbolic partitions of ladder spaces.

The per-degree class structure follows the self-similar shape of the
term.  Within a cat node, nothing merges across copies until the copied
system has fully collapsed (its top joins only at its own stabilization
degree, and the tops are the glue points), so below that degree the
classes are the per-copy classes; at it, the copies chain together
through the glue; one degree later the node's own top joins.  Within a
ramp the m-th block needs degree m+1 to surrender its top, so degree d
shows an initial run of blocks 0..d merged (with the next glue point
excluded), per-block internal classes beyond, and the top still apart;
at the first limit degree the unions of all earlier classes cover the
interior, and one successor step later the top joins.

Class membership is decided by a key walk down the address; a partition
is rendered as the finite list of class families this walk produces.
Limit entries are the per-point unions of the earlier classes with the
equivalence regenerated, which is exactly what the key walk yields
at limit degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import DegreeCapError
from ..ordinals import OMEGA, OrdinalCNF
from .space import Addr, LadderSpace, TOP
from .terms import LadderTerm, ramp_block_term, term_interior_merge, term_stab

FINITE_RENDER_CAP = 8


def class_key(space: LadderSpace, degree: OrdinalCNF, addr: Addr) -> tuple:
    """Canonical identifier of the degree-d class containing the point."""
    space.validate(addr)
    return SymPartition(space, degree).key_of(addr)


class _KeyNode:
    """One term met by the key walk at a fixed degree.

    Whether the degree reaches the term's interior merge degree is
    decided once, when the node is built.  Below it, a cat node descends
    into its child and a ramp node, whose degree is then finite, into the
    block nodes it builds on first use.
    """

    __slots__ = ("merged", "child", "ramp_k", "blocks", "degree")

    def __init__(self, term: LadderTerm, degree: OrdinalCNF):
        self.merged = degree >= term_interior_merge(term)
        self.child: _KeyNode | None = None
        self.ramp_k: int | None = None
        if self.merged:
            return
        if term.kind == "cat":
            self.child = _KeyNode(term.child, degree)
        else:
            self.ramp_k = degree.as_int()
            self.blocks: dict[int, _KeyNode] = {}
            self.degree = degree

    def block(self, m: int) -> "_KeyNode":
        node = self.blocks.get(m)
        if node is None:
            node = self.blocks[m] = _KeyNode(ramp_block_term(m), self.degree)
        return node


def _interior_descriptor(term: LadderTerm, path_label: str, d: OrdinalCNF) -> dict:
    if d >= term_interior_merge(term):
        return {"kind": "subtree", "path": path_label or "(root)"}
    if term.kind == "cat":
        return {
            "kind": "copy-family",
            "path": path_label or "(root)",
            "from": 0,
            "member_classes": _interior_descriptor(
                term.child, f"{path_label}/copy*" if path_label else "copy*", d
            ),
        }
    k = d.as_int()
    return {
        "kind": "ramp",
        "path": path_label or "(root)",
        "merged_blocks_upto": k,
        "tail_blocks_from": k + 1,
        "tail_member_classes": (
            "per-block internal classes at this degree; block m carries "
            "m+1 nested copy levels of which the innermost collapsed"
        ),
    }


@dataclass(frozen=True)
class SymPartition:
    """Symbolic partition of a ladder space at one degree."""

    space: LadderSpace
    degree: OrdinalCNF

    @cached_property
    def _walk(self) -> _KeyNode | None:
        """Root of the key walk, or None when the whole space is one class."""
        if self.degree >= term_stab(self.space.term):
            return None
        return _KeyNode(self.space.term, self.degree)

    def key_of(self, addr: Addr) -> tuple:
        """Key of the class containing ``addr``, which must name a point of
        the space: the walk does not validate (``class_key`` does)."""
        node = self._walk
        if node is None:
            return ("all",)
        if addr == TOP:
            return ("top",)
        i = 0
        while not node.merged:
            step = addr[i]
            k = node.ramp_k
            if k is None:
                node = node.child
            elif step[1] <= k:
                return ("init", addr[:i], k)
            else:
                node = node.block(step[1])
            i += 1
        return ("sub", addr[:i])

    def same_class(self, a: Addr, b: Addr) -> bool:
        return self.key_of(a) == self.key_of(b)

    def class_count(self) -> int | None:
        """Number of classes, or None when countably infinite."""
        term = self.space.term
        if self.degree >= term_stab(term):
            return 1
        # the interior is one class from its merge degree on, and a cat or
        # ramp node below it has infinitely many
        return 2 if self.degree >= term_interior_merge(term) else None

    def descriptors(self) -> list[dict]:
        term = self.space.term
        if self.degree >= term_stab(term):
            return [{"kind": "whole-space"}]
        out = [_interior_descriptor(term, "", self.degree), {"kind": "top"}]
        return out

    def to_json(self) -> dict:
        return {
            "degree": str(self.degree),
            "classes": self.descriptors(),
            "class_count": self.class_count(),
        }


@dataclass(frozen=True)
class LadderTrace:
    space: LadderSpace
    entries: tuple[tuple[OrdinalCNF, SymPartition], ...]
    stabilization_degree: OrdinalCNF
    finite_degrees_truncated_at: int | None

    def partition_at(self, degree: OrdinalCNF | int) -> SymPartition:
        if isinstance(degree, int):
            degree = OrdinalCNF.from_int(degree)
        for d, p in self.entries:
            if d == degree:
                return p
        if degree >= self.stabilization_degree:
            return self.entries[-1][1]
        return SymPartition(self.space, degree)

    def to_json(self) -> dict:
        return {
            "term": str(self.space.term),
            "entries": [p.to_json() for _, p in self.entries],
            "stabilization_degree": str(self.stabilization_degree),
            "finite_degrees_truncated_at": self.finite_degrees_truncated_at,
        }


def trace_degrees(term: LadderTerm) -> tuple[list[OrdinalCNF], int | None]:
    stab = term_stab(term)
    if stab.is_finite():
        return [OrdinalCNF.from_int(d) for d in range(stab.as_int() + 2)], None
    degrees = [OrdinalCNF.from_int(d) for d in range(FINITE_RENDER_CAP + 1)]
    truncated = FINITE_RENDER_CAP
    d = OMEGA
    while True:
        degrees.append(d)
        if d > stab:
            break
        d = d.successor()
    return degrees, truncated


def ladder_trace(space: LadderSpace, max_degree: OrdinalCNF) -> LadderTrace:
    """Symbolic trace up to stationarity.

    Degrees recorded: every finite degree up to the render cap, then the
    limit and successor degrees through stabilization plus one witness.
    Raises if the trace is not stationary by ``max_degree``.
    """
    stab = term_stab(space.term)
    if max_degree < stab:
        raise DegreeCapError(
            f"trace of {space.term} is not stationary by degree {max_degree}; "
            f"it stabilizes at {stab}"
        )
    degrees, truncated = trace_degrees(space.term)
    entries = tuple((d, SymPartition(space, d)) for d in degrees)
    return LadderTrace(space, entries, stab, truncated)
