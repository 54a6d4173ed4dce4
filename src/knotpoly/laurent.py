"""Integer Laurent polynomials in one variable t: exact products and quotients.

A polynomial is stored sparsely as an exponent -> coefficient map with no
zero coefficients, so equal values always have equal representations.
The text format is the one the command line tools speak:

    t^3 - t^2 + 1 - t^-2 + t^-3

Coefficients of magnitude one are left implicit, other magnitudes are
printed as ``3*t^2``; the parser is whitespace-insensitive and accepts
everything the printer emits.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping

from . import _Frozen, join_terms, parse_terms


class NonExactDivision(ValueError):
    """Raised when a quotient in Z[t, t^-1] would need a remainder."""


class NotSymmetrizable(ValueError):
    """Raised when no unit times a power of t makes the input palindromic
    with positive value at t = 1."""


# a sign, then a coefficient, a power of t, or both: "*" only joins the two
_TERM = re.compile(r"([+-]?)(?:(\d+)(?:\*(?=t))?)?(t(?:\^(-?\d+))?)?\Z")


def _term(chunk: str) -> tuple[int, int]:
    m = _TERM.match(chunk)
    if not m or not (m[2] or m[3]):
        raise ValueError(f"cannot parse polynomial term {chunk!r}")
    sign, coeff, var, exp = m.groups()
    c = int(coeff) if coeff else 1
    e = (int(exp) if exp else 1) if var else 0
    return e, -c if sign == "-" else c


class LaurentPoly(_Frozen):
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[int, int] = {}
        for e, c in items:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"exponent must be an integer, got {e!r}")
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficient must be an integer, got {c!r}")
            c = clean.get(e, 0) + c
            if c:
                clean[e] = c
            else:
                clean.pop(e, None)
        _Frozen.__init__(self, clean)

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the printed form back into a polynomial.

        >>> LaurentPoly.parse("t - 1 + t^-1") == LaurentPoly({1: 1, 0: -1, -1: 1})
        True
        """
        return cls(parse_terms(text, _term))

    # ------- Views -------

    def items(self) -> Iterator[tuple[int, int]]:
        """Terms in descending exponent order."""
        for e in sorted(self._terms, reverse=True):
            yield e, self._terms[e]

    def as_dict(self) -> dict[int, int]:
        return dict(self._terms)

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def span(self) -> tuple[int, int]:
        """(lowest, highest) exponent carrying a nonzero coefficient."""
        if not self._terms:
            raise ValueError("the zero polynomial has no span")
        return min(self._terms), max(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    # ------- Ring operations -------

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int) or isinstance(other, bool):
                return NotImplemented
            other = LaurentPoly({0: other})
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        return _raw(out)

    __rmul__ = __mul__

    def dilate(self, w: int) -> "LaurentPoly":
        """Substitute t -> t^w for an integer w >= 1."""
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise ValueError(f"dilation factor must be an integer >= 1, got {w!r}")
        return _raw({e * w: c for e, c in self._terms.items()})

    def exact_divide(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Quotient self / divisor when the division is exact in Z[t, t^-1].

        Runs leading-term elimination from the top exponent down and raises
        NonExactDivision as soon as a remainder (or a non-integer quotient
        coefficient) is forced.
        """
        if not isinstance(divisor, LaurentPoly):
            raise TypeError(f"cannot divide by {divisor!r}")
        if not divisor:
            raise NonExactDivision("division by zero polynomial")
        if not self._terms:
            return LaurentPoly()
        top = max(divisor._terms)
        top_c = divisor._terms[top]
        # Exact quotients have exponents no lower than the valuation gap.
        floor = min(self._terms) - min(divisor._terms)
        rem = dict(self._terms)
        quo: dict[int, int] = {}
        while rem:
            e = max(rem)
            c = rem[e]
            qe = e - top
            if qe < floor:
                raise NonExactDivision("division leaves a remainder")
            if c % top_c:
                raise NonExactDivision(
                    f"leading coefficient {c} not divisible by {top_c}"
                )
            qc = c // top_c
            quo[qe] = qc
            for de, dc in divisor._terms.items():
                ne = qe + de
                nc = rem.get(ne, 0) - qc * dc
                if nc:
                    rem[ne] = nc
                else:
                    rem.pop(ne, None)
        return _raw(quo)

    def symmetrize(self) -> "LaurentPoly":
        """The unit multiple u * t^k * self with r(t) = r(1/t) and r(1) > 0.

        Raises NotSymmetrizable when no such normalization exists (odd total
        span, non-palindromic coefficients, or value 0 at t = 1).
        """
        if not self._terms:
            raise NotSymmetrizable("the zero polynomial cannot be symmetrized")
        lo, hi = self.span()
        if (lo + hi) % 2:
            raise NotSymmetrizable("span endpoints have odd sum; no centering power of t exists")
        shift = -(lo + hi) // 2
        centered = {e + shift: c for e, c in self._terms.items()}
        for e, c in centered.items():
            if centered.get(-e, 0) != c:
                raise NotSymmetrizable("coefficients are not palindromic")
        total = sum(centered.values())
        if total == 0:
            raise NotSymmetrizable("value at t = 1 is zero; sign cannot be normalized")
        if total < 0:
            centered = {e: -c for e, c in centered.items()}
        return _raw(centered)

    # ------- Printing -------

    def __str__(self) -> str:
        parts = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(("- " if c < 0 else "+ ") + body)
        return join_terms(parts)


def _raw(terms: dict[int, int]) -> LaurentPoly:
    # Internal fast path: terms dict is already clean (no zeros).
    poly = LaurentPoly.__new__(LaurentPoly)
    _Frozen.__init__(poly, terms)
    return poly
