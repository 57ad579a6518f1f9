"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` and exponent vectors are tuples
indexed by a fixed, ordered variable list.  Every polynomial this package
evaluates on group elements is integer valued even when its coefficients
are not, so evaluation has one scaled-integer path: the coefficients are
cleared to a common denominator `den` once, and a point's value is
`scaled_sum / den`, where `scaled_sum` sums the integer numerators times
the powers of the variables that actually occur.  `evaluate` returns that
quotient as a Fraction; `evaluate_int` divides exactly and never builds a
Fraction for integer input.  The same sum is exact for Fraction inputs.
`newton_coefficients` writes a polynomial in one variable's binomial
basis, by v^e = sum_k surj(e, k) binom(v, k), and `box_witness`, in all
of them, decides whether a polynomial is zero, or integer valued, and
turns a failure into a concrete integer point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import NonIntegralValue, ParseError

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]
# (den, ((num, ((i, e), ...)), ...)): den times the polynomial as integer
# terms, each listing only the variables with a nonzero exponent.
ScaledForm = tuple[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]]

# JSON transports integers beyond this magnitude as decimal strings.
_INT64_MAX = 2**63 - 1


def xy_variables(x_count: int, y_count: int) -> tuple[str, ...]:
    """Variable names x1..x_a followed by y1..y_b, in evaluation order."""
    xs = tuple(f"x{i + 1}" for i in range(x_count))
    ys = tuple(f"y{i + 1}" for i in range(y_count))
    return xs + ys


class MultiPoly:
    """A polynomial in a fixed tuple of named variables.

    Instances are treated as immutable; arithmetic returns new objects.
    The zero polynomial has an empty term map.
    """

    __slots__ = ("variables", "terms", "_scaled")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Scalar]):
        self.variables = tuple(variables)
        width = len(self.variables)
        clean: dict[Exponents, Fraction] = {}
        for exps, coef in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != width:
                raise ValueError(f"exponent vector {exps} does not match {width} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = Fraction(coef)
            if c == 0:
                continue
            clean[exps] = clean.get(exps, Fraction(0)) + c
            if clean[exps] == 0:
                del clean[exps]
        self.terms = clean
        self._scaled: ScaledForm | None = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Iterable[str], value: Scalar) -> "MultiPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Iterable[str], index: int) -> "MultiPoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[index] = 1
        return cls(variables, {tuple(exps): 1})

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

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return MultiPoly(self.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return -(self - other)

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(self.variables, out)

    __rmul__ = __mul__

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
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # evaluation

    def _scaled_form(self) -> ScaledForm:
        if self._scaled is None:
            den = self.denominator_lcm()
            rows = tuple(
                (
                    c.numerator * (den // c.denominator),
                    tuple((i, e) for i, e in enumerate(exps) if e),
                )
                for exps, c in sorted(self.terms.items())
            )
            self._scaled = (den, rows)
        return self._scaled

    def _scaled_sum(self, values: Sequence[Scalar]) -> tuple[int, Scalar]:
        """`(den, den * value)` at the point; the sum is an int for int input."""
        if len(values) != len(self.variables):
            raise ValueError(
                f"expected {len(self.variables)} values, got {len(values)}"
            )
        den, rows = self._scaled_form()
        total = 0
        for num, factors in rows:
            for i, e in factors:
                num *= values[i] if e == 1 else values[i] ** e
            total += num
        return den, total

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        """Exact value at the given point (ints or Fractions): scaled sum over den."""
        den, total = self._scaled_sum(values)
        return Fraction(total, den)

    def evaluate_int(self, values: Sequence[Scalar]) -> int:
        """Exact value, required to be an integer: divmod of the scaled sum by den."""
        den, total = self._scaled_sum(values)
        value, remainder = divmod(total, den)
        if remainder:
            raise NonIntegralValue(
                f"{self} evaluated at {tuple(values)} gives non-integer {Fraction(total, den)}"
            )
        return value

    # ------------------------------------------------------------------
    # structural operations

    def substitute(self, assignment: Mapping[int, Scalar]) -> "MultiPoly":
        """Fix the listed variable indices to constants (variables kept)."""
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            factor = c
            new = list(exps)
            for i, value in assignment.items():
                e = exps[i]
                if e:
                    factor *= Fraction(value) ** e
                new[i] = 0
            if factor == 0:
                continue
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + factor
        return MultiPoly(self.variables, out)

    def compose(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute images[i] for variable i; the result uses the images' variables."""
        if not images or len(images) != len(self.variables):
            raise ValueError(f"expected {len(self.variables)} images, got {len(images)}")
        out = MultiPoly.zero(images[0].variables)
        for exps, c in self.terms.items():
            term = MultiPoly.constant(out.variables, c)
            for image, e in zip(images, exps):
                if e:
                    term = term * image**e
            out = out + term
        return out

    def project(self, keep: Sequence[int], new_variables: Iterable[str]) -> "MultiPoly":
        """Re-express over `new_variables` = old variables at `keep` indices.

        Every dropped variable must be absent from all terms.
        """
        new_variables = tuple(new_variables)
        if len(keep) != len(new_variables):
            raise ValueError("keep list and new variable list differ in length")
        keep_set = set(keep)
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            for i, e in enumerate(exps):
                if e and i not in keep_set:
                    raise ValueError(
                        f"variable {self.variables[i]} appears in a term being projected away"
                    )
            out[tuple(exps[i] for i in keep)] = c
        return MultiPoly(new_variables, out)

    def embed(self, new_variables: Iterable[str], index_map: Sequence[int]) -> "MultiPoly":
        """Re-express over a wider variable tuple; old index i becomes index_map[i]."""
        new_variables = tuple(new_variables)
        if len(index_map) != len(self.variables):
            raise ValueError("index map must cover every old variable")
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            new = [0] * len(new_variables)
            for i, e in enumerate(exps):
                new[index_map[i]] = e
            out[tuple(new)] = c
        return MultiPoly(new_variables, out)

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def variable_degree(self, index: int) -> int:
        if not self.terms:
            return 0
        return max(e[index] for e in self.terms)

    def newton_coefficients(self, index: int) -> list["MultiPoly"]:
        """q_0..q_d with p = sum_k q_k * binom(v, k), v the variable at `index`.

        Each q_k is free of v, and d = variable_degree(index).  The q_k(x)
        are the Newton differences Delta^k p(x, 0) in v, from
        v^e = sum_k surj(e, k) * binom(v, k).
        """
        coefficients = [{} for _ in range(self.variable_degree(index) + 1)]
        for exps, c in self.terms.items():
            e = exps[index]
            rest = exps[:index] + (0,) + exps[index + 1 :]
            # surj(e, 0) = 0 for e > 0, so k runs over 1..e, or is 0 if e = 0.
            for k in range(min(e, 1), e + 1):
                terms = coefficients[k]
                terms[rest] = terms.get(rest, Fraction(0)) + c * _surjections(e, k)
        return [MultiPoly(self.variables, terms) for terms in coefficients]

    def denominator_lcm(self) -> int:
        den = 1
        for c in self.terms.values():
            den = math.lcm(den, c.denominator)
        return den

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items(), reverse=True):
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        joined = " + ".join(parts)
        return joined.replace("+ -", "- ")

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
    """
    coefficients: dict[Exponents, Fraction] = {}
    for exps, c in p.terms.items():
        # surj(e, 0) = 0 for e > 0, so k_i runs over 1..e_i, or is 0 if e_i = 0.
        for k in itertools.product(*(range(1, e + 1) if e else (0,) for e in exps)):
            weight = math.prod(_surjections(e, j) for e, j in zip(exps, k))
            coefficients[k] = coefficients.get(k, Fraction(0)) + c * weight
    failing = [
        k for k, b in coefficients.items() if (b.denominator != 1 if integral else b != 0)
    ]
    if not failing:
        return None
    point = min(failing, key=lambda k: (sum(k), k))
    return point, p.evaluate(point)


def _surjections(n: int, k: int) -> int:
    """The number of maps from n onto k elements, k! * Stirling2(n, k)."""
    return sum((-1) ** (k - i) * math.comb(k, i) * i**n for i in range(k + 1))


# ----------------------------------------------------------------------
# JSON monomial encoding shared by group laws and cocycles.
#
# A polynomial in variables x1..xa, y1..yb is a list of monomials:
#   {"coef": [num, den], "x_exps": [...], "y_exps": [...]}
# Integers beyond 64 bits travel as decimal strings.


def _encode_json_int(v: int):
    return str(v) if abs(v) > _INT64_MAX else v


def _decode_json_int(v) -> int:
    if isinstance(v, bool):
        raise ParseError(f"expected an integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError as exc:
            raise ParseError(f"bad integer literal {v!r}") from exc
    raise ParseError(f"expected an integer or decimal string, got {v!r}")


def poly_to_monomials(p: MultiPoly, x_count: int, y_count: int) -> list[dict]:
    if len(p.variables) != x_count + y_count:
        raise ValueError("variable split does not match the polynomial")
    out = []
    for exps, c in sorted(p.terms.items(), reverse=True):
        out.append(
            {
                "coef": [_encode_json_int(c.numerator), _encode_json_int(c.denominator)],
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
            raise ParseError(f"monomial must be an object, got {mono!r}")
        try:
            raw_coef = mono["coef"]
            x_exps = mono["x_exps"]
            y_exps = mono["y_exps"]
        except KeyError as exc:
            raise ParseError(f"monomial missing key {exc}") from exc
        if not (isinstance(raw_coef, list) and len(raw_coef) == 2):
            raise ParseError(f"coef must be a [num, den] pair, got {raw_coef!r}")
        num = _decode_json_int(raw_coef[0])
        den = _decode_json_int(raw_coef[1])
        if den == 0:
            raise ParseError("zero denominator in coefficient")
        if not (isinstance(x_exps, list) and isinstance(y_exps, list)):
            raise ParseError(
                f"x_exps and y_exps must be lists, got {x_exps!r} and {y_exps!r}"
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
