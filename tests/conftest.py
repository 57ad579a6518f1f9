"""Shared helpers: a third boundary map, unitary factories, a witness parser,
the pointwise promotion of a skinny cocycle, a Fraction specialization, the
pair-by-pair defect measurement and the size-by-size exact winding pairing.

The helpers here are deliberately written against the public definitions
rather than against library internals, so they can serve as oracles.  The
one exception, `record_kernel_calls`, is a probe, not an oracle: it
records what `build_rho` hands its residue kernel.
"""

from __future__ import annotations

import ast
import functools
import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np

from nilstab import representation
from nilstab.cohomology import (
    Chain2,
    KernelCocycle,
    PolyCocycle,
    pair_cocycle_cycle,
    skinny_check,
)
from nilstab.errors import (
    NotCoprime,
    NotSkinny,
    PairingMismatch,
    TermOutOfRange,
)
from nilstab.extensions import CentralExtension
from nilstab.groups import Element, MalcevGroup
from nilstab.obstruction import SUMMED_WORD, CertificateRun
from nilstab.representation import (
    DefectResult,
    PhaseShiftMatrix,
    build_rho,
    difference_norms,
)


def boundary3(group: MalcevGroup, triples) -> Chain2:
    """d[a|b|c] = [b|c] - [ab|c] + [a|bc] - [a|b], extended linearly.

    The output of this map is always a 2-cycle, and every 2-cocycle pairs
    to zero against it; tests use both facts.
    """
    terms = []
    for coef, a, b, c in triples:
        a, b, c = group.element(a), group.element(b), group.element(c)
        terms.append((coef, b, c))
        terms.append((-coef, group.multiply(a, b), c))
        terms.append((coef, a, group.multiply(b, c)))
        terms.append((-coef, a, b))
    return Chain2.build(terms)


def specialize_first_by_fractions(sigma: PolyCocycle, x) -> tuple[int, tuple[int, ...]]:
    """(den, c_0..c_d) with p(x, t) = sum(c_e t^e)/den, summed in Fractions.

    den is the smallest such denominator, the row's scale.  The oracles
    build their rows from this monomial form, independently of the
    library's rows, which come from the cocycle's Newton coefficients.
    """
    x = sigma.group.element(x)
    m = sigma.group.hirsch
    by_degree: dict[int, Fraction] = {}
    for exps, coef in sigma.poly.terms.items():
        c = coef
        for v, e in zip(x, exps[:m]):
            if e:
                c *= v**e
        d = exps[m]
        by_degree[d] = by_degree.get(d, Fraction(0)) + c
    degree = max(by_degree, default=0)
    den = 1
    for c in by_degree.values():
        den = math.lcm(den, c.denominator)
    coeffs = tuple(
        int(by_degree.get(e, Fraction(0)) * den) for e in range(degree + 1)
    )
    return den, coeffs


def newton_differences_by_fractions(sigma: PolyCocycle, x) -> list[Fraction]:
    """Delta^k p(x, 0) for k = 0..d, differenced from Fraction values p(x, 0..d).

    d is the cocycle's degree in y1; the oracle for the cocycle's Newton
    coefficients (`PolyCocycle.newton`).
    """
    x = sigma.group.element(x)
    degree = sigma.poly.variable_degree(sigma.group.hirsch)
    values = [sigma.poly.evaluate(x + (t,)) for t in range(degree + 1)]
    differences = []
    for _ in range(degree + 1):
        differences.append(values[0])
        values = [v - u for u, v in zip(values, values[1:])]
    return differences


def record_kernel_calls(monkeypatch) -> list[list[int]]:
    """The Newton differences of each `_residues` call from now on, one list per call."""
    calls = []
    kernel = representation._residues

    def recording(n, differences):
        calls.append(list(differences))
        return kernel(n, differences)

    monkeypatch.setattr(representation, "_residues", recording)
    return calls


# A float norm passes its proved bound when it is at most the bound times
# 1 + ROUNDING_SLACK.  The float chord and bound each carry a few ulp of
# rounding (under 4.5 ulp together at every size tested, from 17 to
# 2^1023 + 1), and the true chord never exceeds the true bound, so 8 ulp
# of 1 admits rounding only, at any n.
ROUNDING_SLACK = 8 * sys.float_info.epsilon


def assert_within_bounds(row: DefectResult) -> None:
    """Both measured norms of row are within their proved bounds, to rounding."""
    assert row.frobenius <= row.frobenius_bound * (1 + ROUNDING_SLACK), row
    assert row.operator <= row.operator_bound * (1 + ROUNDING_SLACK), row


def defects_by_pairs(sigma: PolyCocycle, sizes, pairs) -> tuple[list[int], list]:
    """`representation.defects` pair by pair: the reference oracle.

    For an admitted cocycle, whose values are integers.  Each pair is
    prepared on its own (`multiply`, sigma(x, y) and the Fraction
    specialization of x*y, x and y), and each row's residues come from
    Python-int values p(g, j) for j = 0..n-1, so neither the columnar
    evaluation, nor the residue kernel, nor the cocycle identity that
    `defects` reads its gaps from is used.  The norms compare x*y's
    phase-shift matrix with the product of x's and y's (`compose`,
    `difference_norms`), and each is asserted to be within its proved
    bound up to the relative rounding `ROUNDING_SLACK`.

    Returns the shape `defects` returns: each pair's sigma(x, y), and per
    size the size's NotCoprime, or a dict from each distinct sigma(x, y),
    in order of first occurrence, to the DefectResult of the first pair
    with it.  Every pair is measured, and a later pair with the same value
    must measure the same norms, to the dense rounding (1e-11 relative).
    """
    group = sigma.group
    den = sigma.poly.den
    prepared = []
    for x, y in pairs:
        x, y = group.element(x), group.element(y)
        triple = (group.multiply(x, y), x, y)
        rows = [(g, *specialize_first_by_fractions(sigma, g)) for g in triple]
        prepared.append((sigma(x, y), rows))
    by_size = []
    for n in sizes:
        if math.gcd(n, den) != 1:
            by_size.append(
                NotCoprime(f"n = {n} shares a factor with the coefficient denominator {den}")
            )
            continue
        results = {}
        j = np.arange(n, dtype=object)
        for s, rows in prepared:
            matrices = []
            for g, scale, coeffs in rows:
                # scale * p(g, j) for j = 0..n-1, in Python ints.
                values = np.zeros(n, dtype=object)
                for c in reversed(coeffs):
                    values = values * j + c
                residues = (values // scale % n).astype(np.int64)
                matrices.append(PhaseShiftMatrix(n, g[0], residues))
            rho_xy, rho_x, rho_y = matrices
            fro, op = difference_norms(rho_xy, rho_x.compose(rho_y))
            op_bound = 2 * math.pi * (abs(s) / n)
            fro_bound = op_bound * math.sqrt(n)
            row = DefectResult(n, s, fro, fro_bound, op, op_bound)
            assert_within_bounds(row)
            first = results.setdefault(s, row)
            assert math.isclose(row.frobenius, first.frobenius, rel_tol=1e-11), (row, first)
            assert math.isclose(row.operator, first.operator, rel_tol=1e-11), (row, first)
        by_size.append(results)
    return [s for s, _ in prepared], by_size


def defect_ulps(n: int, sigma_xy: int, frobenius: float, operator: float) -> float:
    """The larger error of a defect's two norms, in ulps of the true values.

    The true operator norm is 2 |sin(pi sigma / n)| and the Frobenius norm
    sqrt(n) times it, from mpmath at 80 bits past n's bit length, with the
    residue sigma mod n reduced in Python ints, so no digit is lost at any n.
    """
    with mpmath.workprec(n.bit_length() + 80):
        chord = 2 * abs(mpmath.sin(mpmath.pi * mpmath.mpf(sigma_xy % n) / n))
        return max(
            float(abs(mpmath.mpf(value) - true)) / math.ulp(float(true))
            for value, true in ((operator, chord), (frobenius, chord * mpmath.sqrt(n)))
        )


def random_unitary_near_identity(
    rng: np.random.Generator, dim: int, radius: float
) -> np.ndarray:
    """exp(S) for a random skew-adjoint S of operator norm exactly `radius`.

    ||exp(S) - I|| <= ||S|| for skew-adjoint S, so the result stays within
    `radius` of the identity.
    """
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    skew = (raw - raw.conj().T) / 2
    top = np.max(np.abs(np.linalg.eigvalsh(1j * skew)))
    skew *= radius / top
    return exact_expm(skew)


def exact_expm(matrix: np.ndarray) -> np.ndarray:
    """Reference exponential via the Hermitian spectral theorem.

    Only valid for skew-adjoint input; written out here so that the
    library's `matrix_exp` is checked against the definition, not itself.
    """
    herm = 1j * matrix
    eigenvalues, vectors = np.linalg.eigh(herm)
    return (vectors * np.exp(-1j * eigenvalues)) @ vectors.conj().T


def witness_blocks(witness: str) -> dict[str, tuple[int, ...]]:
    """The integer blocks named in a witness, e.g. 'x=(1, 0), y=(0, 2)'."""
    return {
        name: ast.literal_eval(block)
        for name, block in re.findall(r"\b([xyz])=(\([-\d, ]*\))", witness)
    }


def extension_skinny_cocycle(ext: CentralExtension) -> KernelCocycle:
    """The promoted cocycle evaluated point by point: the reference oracle.

    A skinny cocycle omega on the extension group with <omega, c_k> = k,
    c_k = central_commutator_cycle(ext, k).  The construction splits
    the extension group E as a semidirect product (Z x K) x| Z, where K is
    the kernel of alpha in the base, alpha reads the first coordinate, and
    the two Z factors are the central fiber and the image of alpha.
    Concretely, with a = (1, 0, ..., 0) in E, every g in E factors uniquely
    as

        g = psi(t, kappa) * a^w,   w = alpha(project(g)) = g_1,

    where psi(t, kappa) = (kappa_1..kappa_m, t) pairs the fiber value t
    with a kernel element kappa.  Conjugation by a induces an automorphism
    gamma of Z x K, and the auxiliary group B = (Z x Z x K) x| Z twisted by

        eta(u, t, kappa) = (u + t, gamma(t, kappa))

    is a central extension of E by the leading Z.  The section used here
    lifts a^w * kernel-part multiplicatively (power first), which makes the
    resulting omega(g, h) depend on h only through h_1; omega is the fiber
    cocycle of that section, read off the leading Z coordinate.
    """
    base, total = ext.base, ext.total
    m = base.hirsch
    a = total.basis(1)

    skinny = skinny_check(ext.cocycle)
    if not skinny.ok:
        raise NotSkinny(
            "the input cocycle is not skinny:\n" + skinny.summary()
        )

    a_inv = total.inverse(a)
    kernel_identity = base.identity

    def decompose(g: Element) -> tuple[int, Element, int]:
        """g = psi(t, kappa) * a^w with w = g_1; returns (t, kappa, w)."""
        w = g[0]
        rest = total.multiply(g, total.power(a, -w))
        assert rest[0] == 0, f"decomposition failed for {g}"
        return rest[m], rest[:m], w

    def psi(t: int, kappa: Element) -> Element:
        return tuple(kappa) + (t,)

    def gamma(t: int, kappa: Element) -> tuple[int, Element]:
        conj = total.multiply(total.multiply(a, psi(t, kappa)), a_inv)
        t2, k2, w2 = decompose(conj)
        assert w2 == 0
        return t2, k2

    def gamma_inv(t: int, kappa: Element) -> tuple[int, Element]:
        conj = total.multiply(total.multiply(a_inv, psi(t, kappa)), a)
        t2, k2, w2 = decompose(conj)
        assert w2 == 0
        return t2, k2

    # Elements of B are (u, t, kappa, w): u and t integers, kappa in K,
    # w the semidirect exponent.  V = (u, t, kappa) is the direct factor.

    def v_add(v1, v2):
        return (v1[0] + v2[0], v1[1] + v2[1], base.multiply(v1[2], v2[2]))

    def v_neg(v):
        return (-v[0], -v[1], base.inverse(v[2]))

    def eta(v):
        t2, k2 = gamma(v[1], v[2])
        return (v[0] + v[1], t2, k2)

    def eta_inv(v):
        t2, k2 = gamma_inv(v[1], v[2])
        return (v[0] - t2, t2, k2)

    def eta_pow(v, j: int):
        step = eta if j >= 0 else eta_inv
        for _ in range(abs(j)):
            v = step(v)
        return v

    def b_mul(p, q):
        return (v_add(p[0], eta_pow(q[0], p[1])), p[1] + q[1])

    def b_inv(p):
        return (v_neg(eta_pow(p[0], -p[1])), -p[1])

    def gamma_pow(j: int, t: int, kappa: Element) -> tuple[int, Element]:
        step = gamma if j >= 0 else gamma_inv
        for _ in range(abs(j)):
            t, kappa = step(t, kappa)
        return t, kappa

    # section is pure in g, so the cache is exact; it lives as long as omega.
    @functools.cache
    def section(g: Element):
        t, kappa, w = decompose(g)
        t0, k0 = gamma_pow(-w, t, kappa)
        return b_mul(((0, 0, kernel_identity), w), ((0, t0, k0), 0))

    def omega(g: Element, h: Element) -> int:
        word = b_mul(
            b_mul(section(g), section(h)),
            b_inv(section(total.multiply(g, h))),
        )
        (u, t, kappa), w = word
        # Everything except the leading coordinate must cancel; a survivor
        # means the bookkeeping above is wrong.
        if t != 0 or w != 0 or kappa != kernel_identity:
            raise AssertionError(
                f"section word did not land in the fiber: {word}"
            )
        return u

    return KernelCocycle(
        total, omega, name=f"promoted({ext.cocycle.name})"
    )


def exact_run_by_words(
    group: MalcevGroup, sigma: PolyCocycle, chain: Chain2, n: int
) -> CertificateRun:
    """The exact winding at one size, word by word: the reference oracle.

    Builds each support element's phase-shift unitary with `build_rho`
    and forms the summed word rho(ab) rho(b)* rho(a)* of every term with
    `compose` and `adjoint`, without the cocycle identity that the
    certificate reads its words from.  Applies the ball test
    6 |centred(r_j)| < n and the sum coef * sum_j centred(r_j) / n to its
    residues, with the checks and messages of `certify_nonperturbability`.
    """
    rho = {g: build_rho(sigma, n, g) for g in chain.support(group)}
    terms = []
    margin = n
    for index, (coef, a, b) in enumerate(chain.terms):
        ab = group.multiply(a, b)
        word = rho[ab].compose(rho[b].adjoint()).compose(rho[a].adjoint())
        if word.shift != 0:
            raise TermOutOfRange(
                f"term {index}: {SUMMED_WORD} shifts by {word.shift}", term_index=index
            )
        r = word.residues
        c = np.where(2 * r > n, r - n, r)
        worst = int(np.argmax(np.abs(c)))
        term_margin = n - 6 * abs(int(c[worst]))
        if term_margin <= 0:
            raise TermOutOfRange(
                f"term {index}: {SUMMED_WORD} has residue {int(c[worst])} mod {n} at "
                f"index {worst}, outside the log's convergence ball (6|r| < n)",
                term_index=index,
            )
        margin = min(margin, term_margin)
        terms.append(coef * Fraction(int(np.sum(c)), n))
    winding = sum(terms, Fraction(0))
    return CertificateRun(n, winding, margin, tuple(terms))


def certificate_runs_by_words(
    group: MalcevGroup, sigma: PolyCocycle, chain: Chain2, n_list
) -> list[CertificateRun]:
    """The runs of a certificate, one size at a time (see `exact_run_by_words`).

    Raises the first failing size's error, PairingMismatch included.
    """
    s = pair_cocycle_cycle(sigma, chain)
    runs = []
    for n in n_list:
        run = exact_run_by_words(group, sigma, chain, n)
        if run.winding != -s:
            raise PairingMismatch(
                f"at n={n} the winding is {run.winding}, expected {-s}"
            )
        runs.append(run)
    return runs
