"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is integer numerators `nums`, keyed by exponent tuples over a
fixed, ordered variable list, over one denominator `den` > 0.  The form is
canonical (gcd(den, *nums) = 1, and zero has den 1), so `==` and `hash` are
structural, and every operation works on ints.  `fractions.Fraction` stays
at the edges: the public constructor and the JSON reader accept it,
`evaluate` returns it, and `terms` and `__str__` show coefficients in it.
`evaluate_int` divides the integer sum over the terms by den exactly.
`newton_coefficients` writes a polynomial in one variable's binomial
basis, by v^e = sum_k surj(e, k) binom(v, k), and `box_witness`, in all
of them, decides whether a polynomial is zero, or integer valued, and
turns a failure into a concrete integer point.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cache
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import NonIntegralValue, ParseError

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]

# JSON transports integers beyond this magnitude as decimal strings.
_INT64_MAX = 2**63 - 1


def xy_variables(x_count: int, y_count: int) -> tuple[str, ...]:
    """Variable names x1..x_a followed by y1..y_b, in evaluation order."""
    xs = tuple(f"x{i + 1}" for i in range(x_count))
    ys = tuple(f"y{i + 1}" for i in range(y_count))
    return xs + ys


class MultiPoly:
    """A polynomial in a fixed tuple of named variables: `nums` over `den`.

    Instances are treated as immutable; arithmetic returns new objects.
    The zero polynomial has no terms and `den` 1.
    """

    __slots__ = ("variables", "den", "nums", "_rows", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Scalar]):
        width = len(variables := tuple(variables))
        clean: dict[Exponents, Scalar] = {}
        den = 1
        for exps, coef in terms.items():
            exps = tuple(map(operator.index, exps))
            if len(exps) != width:
                raise ValueError(f"exponent vector {exps} does not match {width} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coef = coef if isinstance(coef, Fraction) else operator.index(coef)
            clean[exps] = clean.get(exps, 0) + coef
            den = math.lcm(den, coef.denominator)
        self._set(variables, den, {e: (c * den).numerator for e, c in clean.items()})

    def _set(self, variables, den: int, nums: Mapping[Exponents, int]) -> "MultiPoly":
        g = math.gcd(den, *nums.values())
        self.variables, self.den = variables, den // g
        self.nums = {e: c // g for e, c in nums.items() if c}
        self._rows = self._terms = None
        return self

    @classmethod
    def _from(cls, variables, den: int, nums: Mapping[Exponents, int]) -> "MultiPoly":
        """Trusted: int numerators over den > 0; drops zero terms, reduces by one gcd."""
        return object.__new__(cls)._set(variables, den, nums)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "MultiPoly":
        return cls._from(tuple(variables), 1, {})

    @classmethod
    def constant(cls, variables: Iterable[str], value: Scalar) -> "MultiPoly":
        value = value if isinstance(value, Fraction) else operator.index(value)
        variables = tuple(variables)
        return cls._from(variables, value.denominator, {(0,) * len(variables): value.numerator})

    @classmethod
    def variable(cls, variables: Iterable[str], index: int) -> "MultiPoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[index] = 1
        return cls._from(variables, 1, {tuple(exps): 1})

    # ------------------------------------------------------------------
    # ring operations

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError("polynomials over different variable tuples")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.variables, other)
        return None

    def _plus(self, other: "MultiPoly", scale: int) -> "MultiPoly":
        """self + scale * other, for an int scale."""
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, scale * (den // other.den)
        out = {e: c * a for e, c in self.nums.items()}
        for e, c in other.nums.items():
            out[e] = out.get(e, 0) + c * b
        return MultiPoly._from(self.variables, den, out)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        return NotImplemented if other is None else self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from(self.variables, self.den, {e: -c for e, c in self.nums.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        return NotImplemented if other is None else self._plus(other, -1)

    def __rsub__(self, other) -> "MultiPoly":
        return -(self - other)

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Exponents, int] = {}
        for e1, c1 in self.nums.items():
            for e2, c2 in other.nums.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly._from(self.variables, self.den * other.den, out)

    __rmul__ = __mul__

    def __truediv__(self, d: int) -> "MultiPoly":
        """p / d for a nonzero int d: the denominator is scaled."""
        if d < 0:
            return -self / -d
        if d == 0:
            raise ZeroDivisionError("polynomial divided by zero")
        return MultiPoly._from(self.variables, self.den * d, self.nums)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = MultiPoly.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.variables, self.den, self.nums) == (other.variables, other.den, other.nums)

    def __hash__(self):
        return hash((self.variables, self.den, frozenset(self.nums.items())))

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """Each exponent vector's coefficient as a Fraction, a read-only view."""
        if self._terms is None:
            self._terms = MappingProxyType({e: Fraction(c, self.den) for e, c in self.nums.items()})
        return self._terms

    # ------------------------------------------------------------------
    # evaluation

    def _scaled_sum(self, values: Sequence[Scalar]) -> Scalar:
        """den times the value at the point; an int for int input."""
        if len(values) != len(self.variables):
            raise ValueError(f"expected {len(self.variables)} values, got {len(values)}")
        if self._rows is None:  # each term's numerator and the variables it reads
            self._rows = tuple(
                (c, tuple((i, e) for i, e in enumerate(exps) if e)) for exps, c in self.nums.items()
            )
        total = 0
        for num, factors in self._rows:
            for i, e in factors:
                num *= values[i] if e == 1 else values[i] ** e
            total += num
        return total

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        """Exact value at the given point (ints or Fractions): scaled sum over den."""
        return Fraction(self._scaled_sum(values), self.den)

    def evaluate_int(self, values: Sequence[Scalar]) -> int:
        """Exact value, required to be an integer: divmod of the scaled sum by den."""
        total = self._scaled_sum(values)
        value, remainder = divmod(total, self.den)
        if remainder:
            raise NonIntegralValue(
                f"{self} evaluated at {tuple(values)} gives non-integer {Fraction(total, self.den)}"
            )
        return value

    # ------------------------------------------------------------------
    # structural operations

    def substitute(self, assignment: Mapping[int, int]) -> "MultiPoly":
        """Fix the listed variable indices to integers (variables kept)."""
        out: dict[Exponents, int] = {}
        for exps, c in self.nums.items():
            new = list(exps)
            for i, value in assignment.items():
                if exps[i]:
                    c *= value ** exps[i]
                new[i] = 0
            key = tuple(new)
            out[key] = out.get(key, 0) + c
        return MultiPoly._from(self.variables, self.den, out)

    def compose(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute images[i] for variable i; the result uses the images' variables.

        Each image's powers are computed once, as far as a term needs them.
        """
        if not images or len(images) != len(self.variables):
            raise ValueError(f"expected {len(self.variables)} images, got {len(images)}")
        one = MultiPoly.constant(images[0].variables, 1)
        powers = [[one] for _ in images]  # powers[i][e] = images[i] ** e
        out = MultiPoly.zero(one.variables)
        for exps, c in self.nums.items():
            term = one
            for i, e in enumerate(exps):
                if e:
                    row = powers[i]
                    while len(row) <= e:
                        row.append(row[-1] * images[i])
                    term = row[e] if term is one else term * row[e]
            out = out._plus(term, c)
        return out / self.den

    def project(self, keep: Sequence[int], new_variables: Iterable[str]) -> "MultiPoly":
        """Re-express over `new_variables` = old variables at `keep` indices.

        Every dropped variable must be absent from all terms.
        """
        new_variables = tuple(new_variables)
        if len(keep) != len(new_variables):
            raise ValueError("keep list and new variable list differ in length")
        keep_set = set(keep)
        out: dict[Exponents, int] = {}
        for exps, c in self.nums.items():
            for i, e in enumerate(exps):
                if e and i not in keep_set:
                    raise ValueError(
                        f"variable {self.variables[i]} appears in a term being projected away"
                    )
            out[tuple(exps[i] for i in keep)] = c
        return MultiPoly._from(new_variables, self.den, out)

    def embed(self, new_variables: Iterable[str], index_map: Sequence[int]) -> "MultiPoly":
        """Re-express over a wider variable tuple; old index i becomes index_map[i]."""
        new_variables = tuple(new_variables)
        if len(index_map) != len(self.variables):
            raise ValueError("index map must cover every old variable")
        out: dict[Exponents, int] = {}
        for exps, c in self.nums.items():
            new = [0] * len(new_variables)
            for i, e in enumerate(exps):
                new[index_map[i]] = e
            out[tuple(new)] = c
        return MultiPoly._from(new_variables, self.den, out)

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self.nums

    def total_degree(self) -> int:
        return max(map(sum, self.nums), default=0)

    def variable_degree(self, index: int) -> int:
        return max((e[index] for e in self.nums), default=0)

    def newton_coefficients(self, index: int) -> list["MultiPoly"]:
        """q_0..q_d with p = sum_k q_k * binom(v, k), v the variable at `index`.

        Each q_k is free of v, and d = variable_degree(index).  The q_k(x)
        are the Newton differences Delta^k p(x, 0) in v, from
        v^e = sum_k surj(e, k) * binom(v, k).
        """
        coefficients = [{} for _ in range(self.variable_degree(index) + 1)]
        for exps, c in self.nums.items():
            e = exps[index]
            rest = exps[:index] + (0,) + exps[index + 1 :]
            # surj(e, 0) = 0 for e > 0, so k runs over 1..e, or is 0 if e = 0.
            for k in range(min(e, 1), e + 1):
                terms = coefficients[k]
                terms[rest] = terms.get(rest, 0) + c * _surjections(e, k)
        return [MultiPoly._from(self.variables, self.den, terms) for terms in coefficients]

    def __str__(self) -> str:
        parts = []
        for exps, c in sorted(self.terms.items(), reverse=True):
            body = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in zip(self.variables, exps) if e
            )
            parts.append(({1: "", -1: "-"}.get(c, f"{c}*") if body else str(c)) + body)
        return " + ".join(parts).replace("+ -", "- ") or "0"

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def box_witness(
    p: MultiPoly, integral: bool = False
) -> tuple[tuple[int, ...], Fraction] | None:
    """A point of p's degree box where p is nonzero, and p's value there.

    With integral=True, a point where p is not an integer.  p is written in
    the binomial basis, p = sum b_K * prod(binom(x_i, k_i)), using
    x^e = sum_k surj(e, k) * binom(x, k); the work is proportional to the
    terms' exponent products, not to the size of the box.  p = 0 iff every
    b_K is 0, and p is integer valued iff every b_K is an integer (Polya),
    so None is a proof.  Otherwise the least failing K is the witness:
    every smaller b_J is 0 (or an integer), so p(K) = b_K (or b_K mod 1).
    Each b_K is kept as den * b_K: it is 0 iff b_K is, and den divides it
    iff b_K is an integer.
    """
    scaled: dict[Exponents, int] = {}
    for exps, c in p.nums.items():
        # surj(e, 0) = 0 for e > 0, so k_i runs over 1..e_i, or is 0 if e_i = 0.
        for k in itertools.product(*(range(1, e + 1) if e else (0,) for e in exps)):
            weight = math.prod(_surjections(e, j) for e, j in zip(exps, k))
            scaled[k] = scaled.get(k, 0) + c * weight
    failing = [k for k, b in scaled.items() if (b % p.den if integral else b)]
    if not failing:
        return None
    point = min(failing, key=lambda k: (sum(k), k))
    return point, p.evaluate(point)


@cache
def _surjections(n: int, k: int) -> int:
    """The number of maps from n onto k elements, k! * Stirling2(n, k), computed once."""
    return sum((-1) ** (k - i) * math.comb(k, i) * i**n for i in range(k + 1))


# ----------------------------------------------------------------------
# JSON monomial encoding shared by group laws and cocycles.
#
# A polynomial in variables x1..xa, y1..yb is a list of monomials:
#   {"coef": [num, den], "x_exps": [...], "y_exps": [...]}
# Integers beyond 64 bits travel as decimal strings.


def _encode_json_int(v: int):
    return str(v) if abs(v) > _INT64_MAX else v


def _int_literal(text: str, what: str) -> int:
    """text as an int, if it is an optional "-" and then ASCII digits.

    That is what `_encode_json_int` writes, and documents and the command
    line read integers by this one rule.  Other text raises ParseError
    naming `what`; text past 40 characters is named by its length, not
    quoted whole.
    """
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:  # past the int-to-str digit limit
            pass
    shown = repr(text) if len(text) <= 40 else f"of {len(text)} characters"
    raise ParseError(f"bad {what} {shown}")


def _int_text(value: int) -> str:
    """value in decimal, or by its bit length past Python's int-to-str limit."""
    try:
        return str(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def _quoted(value) -> str:
    """repr(value), or past 40 characters its JSON type and length, as `_int_literal` does."""
    text = _int_text(value) if isinstance(value, int) else repr(value)
    if len(text) <= 40:
        return text
    for kind, name, unit in ((str, "a string", "characters"), (list, "an array", "items"),
                             (dict, "an object", "keys")):
        if isinstance(value, kind):
            return f"{name} of {len(value)} {unit}"
    return f"a number of {len(text)} characters"


def _decode_json_int(v) -> int:
    if isinstance(v, bool):
        raise ParseError(f"expected an integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return _int_literal(v, "integer literal")
    raise ParseError(f"expected an integer or decimal string, got {_quoted(v)}")


def poly_to_monomials(p: MultiPoly, x_count: int, y_count: int) -> list[dict]:
    if len(p.variables) != x_count + y_count:
        raise ValueError("variable split does not match the polynomial")
    out = []
    for exps, c in sorted(p.nums.items(), reverse=True):
        g = math.gcd(c, p.den)
        out.append(
            {
                "coef": [_encode_json_int(c // g), _encode_json_int(p.den // g)],
                "x_exps": list(exps[:x_count]),
                "y_exps": list(exps[x_count:]),
            }
        )
    return out


def poly_from_monomials(monomials, x_count: int, y_count: int) -> MultiPoly:
    variables = xy_variables(x_count, y_count)
    if not isinstance(monomials, list):
        raise ParseError("polynomial must be a list of monomials")
    terms: dict[Exponents, Fraction] = {}
    for mono in monomials:
        if not isinstance(mono, dict):
            raise ParseError(f"monomial must be an object, got {_quoted(mono)}")
        try:
            raw_coef = mono["coef"]
            x_exps = mono["x_exps"]
            y_exps = mono["y_exps"]
        except KeyError as exc:
            raise ParseError(f"monomial missing key {exc}") from exc
        if not (isinstance(raw_coef, list) and len(raw_coef) == 2):
            raise ParseError(f"coef must be a [num, den] pair, got {_quoted(raw_coef)}")
        num = _decode_json_int(raw_coef[0])
        den = _decode_json_int(raw_coef[1])
        if den == 0:
            raise ParseError("zero denominator in coefficient")
        if not (isinstance(x_exps, list) and isinstance(y_exps, list)):
            raise ParseError(
                f"x_exps and y_exps must be lists, got {_quoted(x_exps)} and {_quoted(y_exps)}"
            )
        if len(x_exps) != x_count or len(y_exps) != y_count:
            raise ParseError(
                f"exponent lists must have lengths {x_count} and {y_count}"
            )
        exps = tuple(_decode_json_int(e) for e in x_exps + y_exps)
        if any(e < 0 for e in exps):
            raise ParseError(f"negative exponent in {exps}")
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(num, den)
    return MultiPoly(variables, terms)
