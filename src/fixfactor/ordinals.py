"""Ordinals below w^w in Cantor normal form.

An ordinal is a finite sum  w^e1*c1 + w^e2*c2 + ... + w^0*ck  with strictly
decreasing natural exponents and positive natural coefficients.  The empty
sum is 0.  This is exactly enough to index trace degrees for the symbolic
ladder systems; multiplication and exponentiation are out of scope.

Literal grammar (canonical forms only, highest exponent first)::

    ordinal ::= "0" | term ("+" term)*
    term    ::= "w^" nat "*" nat | "w^" nat | "w*" nat | "w" | nat

``w`` abbreviates w^1 and a bare natural abbreviates w^0*n; the canonical
rendering never writes "w^1" or "w^0".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

from .errors import OrdinalError

_TERM_RE = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$")


@total_ordering
@dataclass(frozen=True)
class OrdinalCNF:
    """Cantor normal form: tuple of (exponent, coefficient) pairs."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        exps = [e for e, _ in self.terms]
        if any(e < 0 for e in exps) or any(c < 1 for _, c in self.terms):
            raise OrdinalError(f"invalid CNF terms {self.terms}")
        if exps != sorted(exps, reverse=True) or len(set(exps)) != len(exps):
            raise OrdinalError(f"exponents must strictly decrease: {self.terms}")

    @classmethod
    def from_int(cls, n: int) -> "OrdinalCNF":
        if n < 0:
            raise OrdinalError(f"ordinal cannot be negative: {n}")
        return cls(((0, n),)) if n else cls()

    @classmethod
    def omega(cls) -> "OrdinalCNF":
        return cls(((1, 1),))

    def is_finite(self) -> bool:
        return not self.terms or self.terms[0][0] == 0

    def as_int(self) -> int:
        if not self.is_finite():
            raise OrdinalError(f"{self} is not finite")
        return self.terms[0][1] if self.terms else 0

    def successor(self) -> "OrdinalCNF":
        if self.terms and self.terms[-1][0] == 0:
            e, c = self.terms[-1]
            return OrdinalCNF(self.terms[:-1] + ((e, c + 1),))
        return OrdinalCNF(self.terms + ((0, 1),))

    def _key(self) -> tuple:
        return tuple(self.terms)

    def __lt__(self, other: "OrdinalCNF") -> bool:
        if not isinstance(other, OrdinalCNF):
            return NotImplemented
        return self._key() < other._key()

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"OrdinalCNF({format_ordinal(self)!r})"


ZERO = OrdinalCNF()
ONE = OrdinalCNF.from_int(1)
OMEGA = OrdinalCNF.omega()


def parse_ordinal(text: str) -> OrdinalCNF:
    """Parse a canonical ordinal literal; reject anything non-canonical."""
    s = text.strip()
    if not s:
        raise OrdinalError("empty ordinal literal")
    if s == "0":
        return ZERO
    terms: list[tuple[int, int]] = []
    for chunk in s.split("+"):
        chunk = chunk.strip()
        m = _TERM_RE.match(chunk)
        if not m:
            raise OrdinalError(f"malformed ordinal term {chunk!r} in {text!r}")
        exp_s, coeff_s, nat_s = m.groups()
        if nat_s is not None:
            exp, coeff = 0, _nat(nat_s)
            if coeff == 0:
                raise OrdinalError(f"zero term not allowed inside sum: {text!r}")
        else:
            exp = _nat(exp_s) if exp_s is not None else 1
            coeff = _nat(coeff_s) if coeff_s is not None else 1
            if exp_s is not None and exp in (0, 1):
                raise OrdinalError(
                    f"non-canonical exponent in {chunk!r}; write 'w' or a natural"
                )
            if coeff_s is not None and coeff < 2:
                raise OrdinalError(f"non-canonical coefficient in {chunk!r}")
        terms.append((exp, coeff))
    exps = [e for e, _ in terms]
    if exps != sorted(exps, reverse=True) or len(set(exps)) != len(exps):
        raise OrdinalError(f"terms must have strictly decreasing exponents: {text!r}")
    return OrdinalCNF(tuple(terms))


def _nat(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than ``int`` converts
        raise OrdinalError(f"natural of {len(digits)} digits in ordinal literal") from None


def format_ordinal(o: OrdinalCNF) -> str:
    if not o.terms:
        return "0"
    parts = []
    for exp, coeff in o.terms:
        if exp == 0:
            parts.append(str(coeff))
        elif exp == 1:
            parts.append("w" if coeff == 1 else f"w*{coeff}")
        else:
            parts.append(f"w^{exp}" if coeff == 1 else f"w^{exp}*{coeff}")
    return "+".join(parts)
