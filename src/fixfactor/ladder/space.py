"""Addresses, gluing, dynamics and convergence structure of ladder spaces.

A concrete point is a tuple of steps: family steps ``("copy", m)`` /
``("block", m)`` descending the term tree, ending in ``("A",)`` (the base
endpoint of a strand), ``("z", j)`` (an orbit point), or the sole
``("TOP",)`` of the whole space.

Gluing is by address canonicalization: the top of copy m *is* copy m+1's
base, so only base-shaped addresses exist below the root and every point
has exactly one name.  The dynamics shifts the innermost orbit index and
fixes every limit point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..errors import DepthError, LocatorError
from .terms import BLOCK_INDEX_CAP, LadderTerm, parse_term, ramp_block_term

Step = tuple
Addr = tuple

TOP: Addr = (("TOP",),)


def child_term(term: LadderTerm, step: Step) -> LadderTerm:
    if term.kind == "cat" and step[0] == "copy":
        return term.child
    if term.kind == "ramp" and step[0] == "block":
        return ramp_block_term(step[1])
    raise LocatorError(f"step {step} does not match term {term}")


@lru_cache(maxsize=None)
def base_addr(term: LadderTerm) -> Addr:
    if term.kind == "strand":
        return (("A",),)
    if term.kind == "cat":
        return (("copy", 0),) + base_addr(term.child)
    return (("block", 0),) + base_addr(ramp_block_term(0))


@dataclass(frozen=True)
class LadderSpace:
    term: LadderTerm

    def phi(self, addr: Addr) -> Addr:
        if addr[-1][0] == "z":
            return addr[:-1] + (("z", addr[-1][1] + 1),)
        return addr

    def validate(self, addr: Addr) -> None:
        if addr == TOP:
            return
        t = self.term
        i = 0
        while i < len(addr) and addr[i][0] in ("copy", "block"):
            if addr[i][1] < 0:
                raise LocatorError(f"negative family index in {addr}")
            t = child_term(t, addr[i])
            i += 1
        if t.kind != "strand" or i != len(addr) - 1 or addr[i][0] not in ("A", "z"):
            raise LocatorError(f"address {addr} does not name a point of {self.term}")

    # -- human-readable names ------------------------------------------

    def render(self, addr: Addr) -> str:
        if addr == TOP:
            return "top"
        return _render(self.term, addr)

    def parse_locator(self, text: str) -> Addr:
        """Parse a point name; the generic marker 'm' is handled by callers."""
        text = text.strip()
        addr = _parse_locator(self.term, text)
        try:
            self.validate(addr)
        except LocatorError:
            raise LocatorError(
                f"locator {text!r} does not name a point of {self.term}") from None
        return addr


def _render(term: LadderTerm, addr: Addr) -> str:
    if term.kind == "strand":
        step = addr[0]
        if step[0] == "A":
            return "A"
        return f"z:{step[1]}"
    if term.kind == "cat" and term.child.kind == "strand":
        m = addr[0][1]
        if addr[1][0] == "A":
            return f"c:{m}"
        return f"S:{m + 1}:{addr[1][1]}"
    if term.kind == "cat":
        return f"K{addr[0][1]}/" + _render(term.child, addr[1:])
    return f"B{addr[0][1]}/" + _render(ramp_block_term(addr[0][1]), addr[1:])


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise LocatorError(f"bad {what} index {text!r}") from None


def _parse_locator(term: LadderTerm, text: str) -> Addr:
    if text == "top":
        return TOP
    if term.kind == "strand":
        if text in ("A",):
            return (("A",),)
        if text == "R":
            return TOP  # the repelling endpoint is the strand's top point
        if text.startswith("z:"):
            return (("z", _parse_int(text[2:], "orbit")),)
        raise LocatorError(f"unknown strand point {text!r}")
    if term.kind == "cat" and term.child.kind == "strand":
        if text.startswith("c:"):
            return (("copy", _parse_int(text[2:], "chain")), ("A",))
        if text.startswith("S:"):
            parts = text.split(":")
            if len(parts) != 3:
                raise LocatorError(f"strand locator {text!r} needs S:<k>:<j>")
            k = _parse_int(parts[1], "strand family")
            if k < 1:
                raise LocatorError("strand families are numbered from 1")
            return (("copy", k - 1), ("z", _parse_int(parts[2], "orbit")))
        raise LocatorError(f"unknown chain point {text!r}")
    head, sep, rest = text.partition("/")
    prefix, axis = ("K", "copy") if term.kind == "cat" else ("B", "block")
    if not sep:
        raise LocatorError(f"locator {text!r} needs a {prefix}<m>/ prefix")
    if not head.startswith(prefix):
        raise LocatorError(f"expected {prefix}<m> prefix in {text!r}")
    m = _parse_int(head[1:], axis)
    if m < 0:
        raise LocatorError(f"negative family index in {text!r}")
    if term.kind == "cat":
        return ((axis, m),) + _parse_locator(term.child, rest)
    if m > BLOCK_INDEX_CAP:
        raise DepthError(f"block index {m} is above the cap {BLOCK_INDEX_CAP}")
    return ((axis, m),) + _parse_locator(ramp_block_term(m), rest)


def build_ladder(term: LadderTerm | str) -> LadderSpace:
    if isinstance(term, str):
        term = parse_term(term)
    return LadderSpace(term)
