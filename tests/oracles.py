"""Reference implementations the tests trust instead of the package.

Everything here is written for obviousness, not speed: dense list
polynomials, Fraction linear algebra, exhaustive enumeration.  None of it
imports from c4quartic, so agreement between package and oracle is evidence
rather than tautology.  The two exceptions are built from the package's
validating public entry points alone: ``is_monogenic_reference``, the slow
reference for the single pass inside ``is_monogenic``, and
``factor_discriminant_reference``, which factors d and b^2 - 4d apart with
the public ``factor`` and merges them, the reference for the one count
table inside ``factor_discriminant``, and ``oracle_check_reference``, which
runs both public index tests on every pair that ``oracle_check`` samples.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import isqrt

# ---------------------------------------------------------------------------
# integer polynomials, coefficients lowest degree first


def poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_deriv(a):
    return [i * c for i, c in enumerate(a)][1:]


def _frac_rem(a, b):
    a = [Fraction(c) for c in a]
    while len(a) >= len(b) and poly_trim(a):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a = poly_trim(a)
        if not a:
            break
    return a


def sylvester_resultant(f, g):
    """Res(f, g) as the determinant of the Sylvester matrix, exactly."""
    f, g = poly_trim(f), poly_trim(g)
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    fr = [Fraction(c) for c in reversed(f)]
    gr = [Fraction(c) for c in reversed(g)]
    rows = [[Fraction(0)] * i + fr + [Fraction(0)] * (n - 1 - i) for i in range(n)]
    rows += [[Fraction(0)] * j + gr + [Fraction(0)] * (m - 1 - j) for j in range(m)]

    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] / rows[col][col]
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    assert det.denominator == 1
    return int(det)


def discriminant_via_resultant(f):
    """disc(f) = (-1)^(n(n-1)/2) * Res(f, f') / lc(f)."""
    f = poly_trim(f)
    n = len(f) - 1
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    num = sign * sylvester_resultant(f, poly_deriv(f))
    quo, rem = divmod(num, f[-1])
    assert rem == 0
    return quo


def _signed_divisors(n):
    n = abs(n)
    out = []
    for k in range(1, math.isqrt(n) + 1):
        if n % k == 0:
            out += [k, -k, n // k, -(n // k)]
    return sorted(set(out))


def reducible_bruteforce(b, d):
    """Exhaustive search for a monic factorization of x^4 + b*x^2 + d over Z.

    By Gauss's lemma rational reducibility gives monic integer factors, and
    any factorization contains a linear factor or splits into quadratics.
    Linear factors have roots dividing d; a quadratic split must look like
    (x^2 + p*x + q)(x^2 - p*x + s) to kill the x^3 term, with q*s = d and
    p^2 = q + s - b bounding |p|.  Candidate products are compared in full.
    """
    if d == 0:
        return True
    for r in _signed_divisors(d):
        if r**4 + b * r**2 + d == 0:
            return True
    f = [d, 0, b, 0, 1]
    p_bound = math.isqrt(abs(b) + 2 * abs(d)) + 1
    for q in _signed_divisors(d):
        s = d // q
        for p in range(-p_bound, p_bound + 1):
            if poly_mul([q, p, 1], [s, -p, 1]) == f:
                return True
    return False


def count_real_roots_sturm(f):
    """Distinct real roots of a squarefree integer polynomial, by Sturm chains."""
    chain = [[Fraction(c) for c in poly_trim(f)]]
    chain.append([Fraction(c) for c in poly_deriv(chain[0])])
    while len(chain[-1]) > 1:
        rem = _frac_rem(chain[-2], chain[-1])
        if not rem:
            raise ValueError("polynomial is not squarefree")
        chain.append([-c for c in rem])

    def variations(at_plus_inf):
        signs = []
        for p in chain:
            lead = p[-1] if at_plus_inf else p[-1] * (-1) ** (len(p) - 1)
            signs.append(1 if lead > 0 else -1)
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    return variations(False) - variations(True)


# ---------------------------------------------------------------------------
# naive GF(q) arithmetic on coefficient tuples, lowest degree first


def nmod_trim(q, a):
    a = tuple(c % q for c in a)
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def nmod_mul(q, a, b):
    a, b = nmod_trim(q, a), nmod_trim(q, b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return nmod_trim(q, out)


def nmod_divmod(q, a, b):
    a, b = list(nmod_trim(q, a)), nmod_trim(q, b)
    assert b, "division by zero"
    inv = pow(b[-1], -1, q)
    quo = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        factor = a[-1] * inv % q
        shift = len(a) - len(b)
        quo[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % q
        a = list(nmod_trim(q, a))
        if not a:
            break
    return nmod_trim(q, quo), nmod_trim(q, a)


def nmod_gcd(q, a, b):
    """Monic gcd by Euclid's algorithm; gcd(0, 0) = 0."""
    a, b = nmod_trim(q, a), nmod_trim(q, b)
    while b:
        a, b = b, nmod_divmod(q, a, b)[1]
    return nmod_mul(q, a, (pow(a[-1], -1, q),)) if a else ()


def monic_polys(q, degree):
    """Every monic polynomial of the given degree over GF(q), lexicographic."""
    for lower in itertools.product(range(q), repeat=degree):
        yield lower + (1,)


def nmod_factor(q, a):
    """Factor into monic irreducibles by trial division, smallest first.

    Once every monic divisor of degree below k has been divided out, a
    cofactor of degree below 2k has no proper factor left: it is irreducible.
    """
    a = nmod_trim(q, a)
    assert a, "cannot factor zero"
    out = {}
    k = 0
    while len(a) > 1:
        k += 1
        if len(a) - 1 < 2 * k:
            g = nmod_mul(q, a, (pow(a[-1], -1, q),))
            out[g] = out.get(g, 0) + 1
            break
        for g in monic_polys(q, k):
            while True:
                quo, rem = nmod_divmod(q, a, g)
                if rem:
                    break
                out[g] = out.get(g, 0) + 1
                a = quo
            if len(a) == 1:
                break
    return sorted(out.items(), key=lambda ge: (len(ge[0]), ge[0]))


def dedekind_bruteforce(b, d, q):
    """Dedekind's criterion for x^4 + b*x^2 + d at the prime q, from the full factorization.

    f mod q = prod g_i^e_i by trial division.  With g = prod g_i and
    h = prod g_i^(e_i - 1) lifted with coefficients in [0, q), only
    F = (f - g*h)/q mod q is needed, so g*h is formed mod q^2.  q divides
    the index exactly when some g_i with e_i >= 2 divides F mod q.
    """
    f = (d, 0, b, 0, 1)
    factors = nmod_factor(q, f)
    gh = (1,)
    for g, e in factors:
        for _ in range(e):
            gh = nmod_mul(q * q, gh, g)
    assert len(gh) == len(f), "the factors must multiply back to a quartic"
    defect = []
    for fc, c in zip(f, gh):
        quo, rem = divmod((fc - c) % (q * q), q)
        assert rem == 0, "g*h must reduce to f mod q"
        defect.append(quo)
    return any(e >= 2 and not nmod_divmod(q, defect, g)[1] for g, e in factors)


def trial_factorization(n):
    """Prime factorization by undiluted trial division; n must be nonzero."""
    assert n != 0
    m = abs(n)
    out = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


# ---------------------------------------------------------------------------
# closed-form local criterion: valuations and one table mod 4

# (b mod 4, d mod 4) classes where 2 divides the index
FAILING_CLASSES_MOD_4 = frozenset(
    {(0, 0), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)}
)


def odd_primes_squared(n):
    """The odd primes q with q^2 | n, n nonzero, by trial division to the cube root.

    Once no prime below k divides the cofactor m and k^3 > m, m has at most
    two prime factors, so it is 1, a prime, a product of two distinct primes,
    or a prime squared; only the last is a perfect square.
    """
    assert n != 0
    m = abs(n)
    while m % 2 == 0:
        m //= 2
    out = []
    k = 3
    while k * k * k <= m:
        if m % k == 0:
            v = 0
            while m % k == 0:
                m //= k
                v += 1
            if v >= 2:
                out.append(k)
        k += 2
    r = isqrt(m)
    if m > 1 and r * r == m:
        out.append(r)
    return out


def closed_form_divides_index(b, d, q):
    """Whether the prime q divides the index of an irreducible x^4 + b*x^2 + d.

    2 divides it exactly on the classes in FAILING_CLASSES_MOD_4.  An odd
    prime q divides it exactly when q^2 | d, or when q does not divide d and
    q^2 | e = b^2 - 4d.  Both depend only on (b, d) mod q^2.
    """
    if q == 2:
        return (b % 4, d % 4) in FAILING_CLASSES_MOD_4
    qq = q * q
    return d % qq == 0 or (d % q != 0 and (b * b - 4 * d) % qq == 0)


def monogenic_closed_form(b, d):
    """Monogenicity of an irreducible x^4 + b*x^2 + d from valuations alone.

    Only 2 and the odd q with q^2 dividing d or e = b^2 - 4d can divide the
    index, so ``closed_form_divides_index`` runs on those alone.  The cost is
    the cube roots of |d| and |e|.
    """
    candidates = {2, *odd_primes_squared(d), *odd_primes_squared(b * b - 4 * d)}
    return not any(closed_form_divides_index(b, d, q) for q in candidates)


# ---------------------------------------------------------------------------
# brute-force cyclic quartic scan: tests the square condition at every cell

# residues mod 256 that perfect squares can take; rejects most non-squares
# before paying for an integer square root
_SQ256 = bytearray(256)
for _i in range(256):
    _SQ256[(_i * _i) & 255] = 1
del _i


def scan_c4_bruteforce(b_min, b_max, d_min, d_max):
    """All (b, d) in the box with cyclic quartic Galois group, (b, d)-ascending.

    x^4 + b*x^2 + d is cyclic quartic exactly when d and e = b^2 - 4d are
    non-squares while d*e is a perfect square; every cell is tested.
    """
    out = []
    for b in range(b_min, b_max + 1):
        bb = b * b
        for d in range(d_min, d_max + 1):
            e = bb - 4 * d
            p = d * e
            # a positive square product forces d > 0 and e > 0
            if p <= 0:
                continue
            if not _SQ256[p & 255]:
                continue
            r = isqrt(p)
            if r * r != p:
                continue
            r = isqrt(d)
            if r * r == d:
                continue
            r = isqrt(e)
            if r * r == e:
                continue
            out.append((b, d))
    return out


# ---------------------------------------------------------------------------
# multi-pass monogenicity report, built from the public validating functions


def factor_discriminant_reference(t):
    """disc(t) = 16 * d * e^2 factored as two public ``factor`` calls, merged.

    ``factor(d)`` runs before ``factor(e)``, each on its own budget (the
    package's ``intarith._MAX_EFFORT``, which a test can patch), so a give-up
    names the same number with the same message as the package.
    """
    from c4quartic.intarith import Factorization, factor

    d = t.d
    e = t.b * t.b - 4 * d
    if d == 0 or e == 0:
        raise ValueError(f"disc({t}) = 0 has no prime factorization")
    counts = {2: 4}
    fd = factor(d)
    for p, k in fd.factors:
        counts[p] = counts.get(p, 0) + k
    for p, k in factor(e).factors:
        counts[p] = counts.get(p, 0) + 2 * k
    return Factorization(fd.sign, tuple(sorted(counts.items())))


def is_monogenic_reference(t):
    """The monogenicity report built from public, validating functions only.

    Every invariant is recomputed by its public function, the discriminant is
    factored by ``factor_discriminant_reference``, and every prime goes
    through the fully checked ``prime_index_test``.
    """
    from c4quartic.index_criterion import PrimeVerdict, prime_index_test
    from c4quartic.monogenic import DegenerateTrinomialError, MonogenicityReport
    from c4quartic.trinomial import discriminant, is_c4, is_irreducible, signature

    if t.d == 0:
        raise DegenerateTrinomialError(f"{t} has d = 0; its root generates no quartic order")
    disc = discriminant(t)
    if not is_irreducible(t):
        fact = None if disc == 0 else factor_discriminant_reference(t)
        return MonogenicityReport(t, False, False, disc, fact, (), False, None, None)

    fact = factor_discriminant_reference(t)
    verdicts = []
    blocked = False
    for q in fact.primes():
        if blocked:
            verdicts.append(PrimeVerdict.skipped(q))
        else:
            v = prime_index_test(t, q)
            verdicts.append(v)
            blocked = v.divides_index
    return MonogenicityReport(
        trinomial=t,
        irreducible=True,
        c4=is_c4(t),
        disc=disc,
        disc_factored=fact,
        verdicts=tuple(verdicts),
        monogenic=not blocked,
        field_disc=disc if not blocked else None,
        signature=signature(t),
    )


def oracle_check_reference(samples, seed, b_min, b_max, d_min, d_max, prime_cap=97):
    """``oracle_check`` as a plain loop: both public index tests on every pair.

    Draws the same seeded samples as the package, but runs
    ``prime_index_test`` and ``dedekind_divides_index`` afresh on each
    (t, q) pair, with no reuse of a verdict across pairs.
    """
    import random

    from c4quartic.dedekind import dedekind_divides_index
    from c4quartic.index_criterion import prime_index_test
    from c4quartic.intarith import primes_upto
    from c4quartic.search import Disagreement, OracleCheckResult
    from c4quartic.trinomial import Trinomial, discriminant, is_irreducible

    rng = random.Random(seed)
    sampled = agreements = 0
    disagreements = []
    for _ in range(max(1000, 200 * samples)):
        if sampled >= samples:
            break
        t = Trinomial(rng.randint(b_min, b_max), rng.randint(d_min, d_max))
        if not is_irreducible(t):
            continue
        sampled += 1
        disc = discriminant(t)
        for q in primes_upto(prime_cap):
            if disc % q:
                continue
            engine = prime_index_test(t, q)
            oracle = dedekind_divides_index(t, q)
            if engine.divides_index == oracle:
                agreements += 1
            else:
                disagreements.append(Disagreement(t, q, engine, oracle))
    return OracleCheckResult(samples, sampled, agreements, tuple(disagreements))
