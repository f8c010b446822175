"""Finite-dimensional supercommutative local algebras with normal-form arithmetic.

An algebra is presented inside a truncated ambient: polynomials in ``k`` even
generators ``t1..tk`` and ``l`` odd generators ``z1..zl`` where every monomial
of total degree ``>= s`` vanishes, further quotiented by a graded ideal.  The
ideal is stored as a reduced row-echelon basis over the ambient monomials,
each row a sorted tuple of (ambient index, coefficient) pairs for its
non-zero entries (pivot = leading monomial under degree-lex order, even
generators before odd);
the non-pivot monomials form the quotient basis and every product reduces to a
coefficient vector over it.

Each ambient shape also packs its monomials into integer codes: the even
exponents in fields of (2s-1).bit_length() bits above the l odd bits.  A
product of two monomials of total degree < s then has the code c1 + c2 | o1 | o2
with no carry between fields (Monagan & Pearce, CASC 2007), so the product
table is filled from int arithmetic and one dict lookup per entry.

Every such algebra splits as scalars plus a nilpotent graded ideal, which is
what makes truncated-Taylor evaluation of smooth functions terminate.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import AlgebraError, ParityError
from .fields import RATIONAL, Field, check_power
from .linalg import intersect_row_spaces, rref_desc

MAX_AMBIENT_DIM = 10_000

EVEN, ODD, MIXED, ZERO = "even", "odd", "mixed", "zero"


class Monomial(NamedTuple):
    """t^nu z^J with nu a tuple of even exponents and J an odd-index bitmask."""

    nu: tuple
    odd: int

    def degree(self):
        return sum(self.nu) + self.odd.bit_count()

    def parity(self):
        return self.odd.bit_count() & 1

    def odd_indices(self):
        """Ascending 1-based odd generator indices."""
        return tuple(j + 1 for j in range(self.odd.bit_length()) if self.odd >> j & 1)

    def is_one(self):
        return not self.odd and not any(self.nu)


class _Unit(tuple):
    """A product-table entry ((monomial, sign),): sign times one quotient basis
    monomial.  The class marks it for the product kernel, which multiplies in
    no sign; read as pairs it is a normal form like any other entry.  A bare
    tuple subclass, so building one costs no Python-level call."""

    __slots__ = ()


def merge_sign(mask_a, mask_b):
    """Sign (+1/-1) from sorting the concatenation of two ascending odd blocks.

    Counts transpositions, i.e. pairs (a, b) with a in the first block, b in
    the second and a > b.
    """
    count = 0
    m = mask_b
    while m:
        j = (m & -m).bit_length() - 1
        count += (mask_a >> (j + 1)).bit_count()
        m &= m - 1
    return -1 if count & 1 else 1


def _sort_key(m, l):
    bits = tuple((m.odd >> j) & 1 for j in range(l))
    return (m.degree(), m.nu, bits)


_COUNT_LIMIT = 10 ** 12  # ambient_dim counts exactly up to here, then stops


def ambient_dim(k, l, s):
    """Number of monomials of total degree < s, without listing them: j odd
    generators leave degree s-1-j to k even ones.  The count stops once it
    passes _COUNT_LIMIT and is then None, so a huge shape costs a few steps:
    comb(n, r) with r and n - r both above 40 is at least comb(82, 41), past
    the limit, and every other binomial takes at most 40 steps."""
    total = 0
    for j in range(min(l, s - 1) + 1):
        if min(j, l - j) > 40 or min(k, s - 1 - j) > 40:
            return None
        total += comb(l, j) * comb(k + s - 1 - j, k)
        if total > _COUNT_LIMIT:
            return None
    return total


def _ambient_monomials(k, l, s):
    """All monomials of total degree < s, ascending in the monomial order."""
    out = []
    for odd_count in range(min(l, s - 1) + 1):
        for odd_combo in combinations(range(l), odd_count):
            mask = 0
            for j in odd_combo:
                mask |= 1 << j
            budget = s - 1 - odd_count
            for nu in exponents_up_to(k, budget):
                out.append(Monomial(nu, mask))
    out.sort(key=lambda m: _sort_key(m, l))
    return out


@lru_cache(maxsize=64)  # distinct (k, l, s) shapes kept; the battery meets 38
def _ambient(k, l, s):
    """(basis tuple, {monomial: index}, {monomial: (code, odd, degree)},
    {code | odd: monomial}) of the ambient of shape (k, l, s), shared by every
    algebra of that shape and never written.  A code holds the even exponents
    in fields of w bits, shifted left by l; an exponent sum of two ambient
    monomials is at most 2s - 2, so w = (2s-1).bit_length() bits hold it."""
    basis = tuple(_ambient_monomials(k, l, s))
    w = (2 * s - 1).bit_length()
    codes = {}
    for m in basis:
        code = 0
        for e in m.nu:
            code = code << w | e
        codes[m] = (code << l, m.odd, m.degree())
    by_code = {c | o: m for m, (c, o, _) in codes.items()}
    return basis, {m: i for i, m in enumerate(basis)}, codes, by_code


def exponents_up_to(k, budget):
    """Every k-tuple of non-negative exponents with sum <= budget, in lex order."""
    if k == 0:
        yield ()
        return
    for head in range(budget + 1):
        for tail in exponents_up_to(k - 1, budget - head):
            yield (head,) + tail


def _monomials_of_degree(k, l, d):
    for odd_count in range(min(l, d) + 1):
        rest = d - odd_count
        for odd_combo in combinations(range(l), odd_count):
            mask = 0
            for j in odd_combo:
                mask |= 1 << j
            for nu in exponents_up_to(k, rest):
                if sum(nu) == rest:
                    yield Monomial(nu, mask)


class SuperWeilAlgebra:
    """A quotient of the degree-truncated super polynomial ring.

    Instances are immutable after construction; build them through
    :func:`make_truncated`, :func:`make_grassmann`, :func:`quotient`,
    :func:`tensor` or :func:`join`.
    """

    def __init__(self, field, k, l, s, ideal_rows):
        if s < 1:
            raise AlgebraError("invalid truncation order: need s >= 1")
        if k < 0 or l < 0:
            raise AlgebraError("generator counts must be non-negative")
        self.field = field
        self.k = k
        self.l = l
        self.s = s
        ambient = ambient_dim(k, l, s)
        if ambient is None or ambient > MAX_AMBIENT_DIM:
            size = f"above {_COUNT_LIMIT}" if ambient is None else ambient
            raise AlgebraError(f"ambient dimension {size} exceeds the ambient cap {MAX_AMBIENT_DIM}")
        if k + l > MAX_AMBIENT_DIM:
            # at s = 1 the ambient has dimension 1 whatever k and l are, but
            # the enumeration still walks every generator
            raise AlgebraError(f"more generators than the ambient cap {MAX_AMBIENT_DIM}")
        self.ambient_basis, self._ambient_index, self._codes, self._by_code = _ambient(k, l, s)
        ideal_rows, pivots = rref_desc(ideal_rows, field)
        self.ideal_rows = tuple(tuple(sorted(r.items())) for r in ideal_rows)
        self.pivot_cols = tuple(pivots)
        if self._ambient_index.get(Monomial((0,) * k, 0)) in self.pivot_cols:
            raise AlgebraError("ideal contains a unit; the quotient collapses")
        # a reduced row says pivot + rest = 0 with the rest on basis monomials,
        # so -rest is the normal form of the pivot monomial
        self._reduction = {}
        for row, col in zip(self.ideal_rows, self.pivot_cols):
            if len({self.ambient_basis[i].parity() for i, _ in row}) > 1:
                raise ParityError("ideal row is not parity-homogeneous")
            self._reduction[self.ambient_basis[col]] = {
                self.ambient_basis[i]: -c for i, c in row if i != col
            }
        self.quotient_basis = tuple(
            m for m in self.ambient_basis if m not in self._reduction
        )
        self.basis_index = {m: i for i, m in enumerate(self.quotient_basis)}
        # the product table: _products[m1][m2] is _product_entry(m1, m2),
        # filled on first use from the shape's monomial codes
        self._products = {}
        self._signature = (field.name, k, l, s, self.ideal_rows)

    # -- basic structure ------------------------------------------------

    @property
    def dim(self):
        return len(self.quotient_basis)

    def signature(self):
        return self._signature

    def __eq__(self, other):
        return (
            isinstance(other, SuperWeilAlgebra)
            and self._signature == other._signature
        )

    def __hash__(self):
        return hash(self._signature)

    def __repr__(self):
        return (
            f"SuperWeilAlgebra(k={self.k}, l={self.l}, s={self.s}, "
            f"dim={self.dim}, field={self.field.name})"
        )

    def same_presentation(self, other):
        return (
            self.field is other.field
            and self.k == other.k
            and self.l == other.l
            and self.s == other.s
        )

    def monomial_name(self, m):
        if m.is_one():
            return "1"
        parts = []
        for i, e in enumerate(m.nu):
            if e == 1:
                parts.append(f"t{i + 1}")
            elif e > 1:
                parts.append(f"t{i + 1}^{e}")
        for j in m.odd_indices():
            parts.append(f"z{j}")
        return "".join(parts)

    # -- elements ---------------------------------------------------------

    def element(self, coeffs):
        coerce, basis_index = self.field.coerce, self.basis_index
        clean = {}
        for m, c in coeffs.items():
            c = coerce(c)
            if m not in basis_index:
                raise AlgebraError(f"monomial {self.monomial_name(m)} is not in the quotient basis")
            if c:  # a scalar is zero exactly when it is falsy, see Field.is_zero
                clean[m] = c
        return AlgebraElement(self, clean)

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return self.scalar(1)

    def scalar(self, c):
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return self.zero()
        return AlgebraElement(self, {Monomial((0,) * self.k, 0): c})

    def gen_even(self, i):
        if not 1 <= i <= self.k:
            raise AlgebraError(f"even generator index {i} out of range 1..{self.k}")
        nu = tuple(1 if j == i - 1 else 0 for j in range(self.k))
        return self._reduced_monomial_element(Monomial(nu, 0))

    def gen_odd(self, j):
        if not 1 <= j <= self.l:
            raise AlgebraError(f"odd generator index {j} out of range 1..{self.l}")
        return self._reduced_monomial_element(Monomial((0,) * self.k, 1 << (j - 1)))

    def generators(self):
        return [self.gen_even(i) for i in range(1, self.k + 1)] + [
            self.gen_odd(j) for j in range(1, self.l + 1)
        ]

    def _reduced_monomial_element(self, m):
        return AlgebraElement(self, dict(self._normal_form(m)))

    # -- normal forms ------------------------------------------------------

    def _normal_form(self, m):
        """Normal form of an ambient monomial as {quotient monomial: coeff}."""
        if m.degree() >= self.s:
            return {}
        if m in self.basis_index:
            return {m: self.field.one}
        return self._reduction[m]

    def _product_entry(self, m1, m2):
        """m1 * m2 of two ambient monomials as a product-table entry, a tuple
        of (quotient monomial, coefficient) pairs: () when it is zero, a _Unit
        when it is +-(one basis monomial), else its signed normal form."""
        c1, o1, d1 = self._codes[m1]
        c2, o2, d2 = self._codes[m2]
        if o1 & o2 or d1 + d2 >= self.s:  # a z repeats, or past the truncation
            return ()
        prod = self._by_code[c1 + c2 | o1 | o2]
        sign = merge_sign(o1, o2) if o1 and o2 else 1
        if prod in self.basis_index:
            return _Unit(((prod, sign),))
        # an ambient monomial is a basis monomial or a pivot
        nf = self._reduction[prod]
        if not nf:
            return ()
        return tuple(nf.items()) if sign == 1 else tuple((m, -c) for m, c in nf.items())

    # -- derived structure ---------------------------------------------------

    def nil_monomials(self):
        return [m for m in self.quotient_basis if not m.is_one()]

    def is_purely_even(self):
        return all(m.parity() == 0 for m in self.quotient_basis)

    @cached_property
    def _bases_by_parity(self):
        """The quotient basis filtered as ``battery.rand_element`` draws from
        it: None (all of it), "nil" (all but 1, which comes first), EVEN, ODD."""
        basis = self.quotient_basis
        even = tuple(m for m in basis if not m.parity())
        odd = tuple(m for m in basis if m.parity())
        return {None: basis, "nil": basis[1:], EVEN: even, ODD: odd}

    @cached_property
    def _power_dims(self):
        """Dimensions of nil, nil^2, ... down to the last non-zero power.

        nil^r is the image of m^r, which the ambient monomials of degree >= r
        span.  A basis monomial is its own image, and a pivot p's image is
        -tail(p), its stored row without p.  So nil^r is spanned by the basis
        monomials of degree >= r and the tails of the pivots of degree >= r,
        and dim nil^r is the number of those basis monomials plus the rank
        of those tails restricted to the columns of degree < r (the
        Hilbert-Samuel function of the algebra; Greuel & Pfister, *A Singular
        Introduction to Commutative Algebra*, 2nd ed.).  Columns ascend in
        degree, so a row whose lowest entry has its pivot's degree adds
        nothing; every row of a graded ideal is such a row, and a graded
        algebra's dimensions are counts of basis monomials.  nil^s = 0 in a
        degree-s truncation.
        """
        basis = self.ambient_basis
        # (lowest degree, pivot degree, [(column, degree, coefficient)]) of
        # each row with an entry below its pivot's degree
        mixed = []
        for row in self.ideal_rows:
            low, top = basis[row[0][0]].degree(), basis[row[-1][0]].degree()
            if low < top:
                mixed.append((low, top, [(i, basis[i].degree(), c) for i, c in row]))
        degrees = [m.degree() for m in self.quotient_basis]
        dims = []
        for r in range(1, self.s):
            tails = [{i: c for i, d, c in row if d < r} for low, top, row in mixed if low < r <= top]
            n = sum(d >= r for d in degrees) + (len(rref_desc(tails, self.field)[0]) if tails else 0)
            if not n:
                break
            dims.append(n)
        return tuple(dims)

    def height(self):
        """Smallest r such that the (r+1)-st power of the nilpotent ideal is 0."""
        return len(self._power_dims)

    def width(self):
        """Dimension of nil modulo nil^2."""
        dims = self._power_dims + (0, 0)
        return dims[0] - dims[1]


class AlgebraElement:
    """Sparse coefficient vector over an algebra's quotient basis (normal form)."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = coeffs

    # -- ring operations --------------------------------------------------

    def _check_same(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraError("elements live in different algebras")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            other = self.algebra.scalar(other)
        self._check_same(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            old = out.get(m)
            if old is None:
                out[m] = c
            else:
                v = old + c
                if not v:
                    del out[m]
                else:
                    out[m] = v
        return AlgebraElement(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.algebra, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            other = self.algebra.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + self.algebra.scalar(other)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._check_same(other)
        algebra = self.algebra
        products = algebra._products
        right = other.coeffs.items()
        out = {}
        # a zero entry costs no coefficient arithmetic, a unit entry one
        # product and no multiply by +-1; a slot's first term is stored as is,
        # and a sum is zero exactly when it is falsy (see Field.is_zero)
        for m1, c1 in self.coeffs.items():
            row = products.get(m1)
            if row is None:
                row = products[m1] = {}
            for m2, c2 in right:
                entry = row.get(m2)
                if entry is None:
                    entry = row[m2] = algebra._product_entry(m1, m2)
                if not entry:
                    continue
                c12 = c1 * c2
                unit = entry.__class__ is _Unit
                for m, c in entry:
                    v = (c12 if c == 1 else -c12) if unit else c12 * c
                    old = out.get(m)
                    if old is not None:
                        v = old + v
                        if not v:
                            del out[m]
                            continue
                    elif not v:
                        continue
                    out[m] = v
        return AlgebraElement(algebra, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.algebra.field.coerce(c)
        if self.algebra.field.is_zero(c):
            return self.algebra.zero()
        # a float product can underflow to zero; like __mul__, keep no zero
        # (a scalar is zero exactly when it is falsy, see Field.is_zero)
        items = self.coeffs.items()
        return AlgebraElement(self.algebra, {m: cv for m, v in items if (cv := c * v)})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("element powers need a non-negative integer exponent")
        check_power(self.body(), n)
        result = self.algebra.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra == other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        name = self.algebra.monomial_name
        parts = []
        for m in sorted(self.coeffs, key=lambda m: _sort_key(m, self.algebra.l)):
            c = self.coeffs[m]
            parts.append(f"{c}" if m.is_one() else f"{c}*{name(m)}")
        return " + ".join(parts)

    # -- structure maps ----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, m):
        return self.coeffs.get(m, self.algebra.field.zero)

    def body(self):
        """Scalar part: the coefficient of 1."""
        return self.coefficient(Monomial((0,) * self.algebra.k, 0))

    def soul(self):
        """Nilpotent part: the element minus its body."""
        one = Monomial((0,) * self.algebra.k, 0)
        return AlgebraElement(
            self.algebra, {m: c for m, c in self.coeffs.items() if m != one}
        )

    def parity(self):
        if not self.coeffs:
            return ZERO
        parities = {m.parity() for m in self.coeffs}
        if parities == {0}:
            return EVEN
        if parities == {1}:
            return ODD
        return MIXED

    def even_part(self):
        return AlgebraElement(
            self.algebra, {m: c for m, c in self.coeffs.items() if m.parity() == 0}
        )

    def odd_part(self):
        return AlgebraElement(
            self.algebra, {m: c for m, c in self.coeffs.items() if m.parity() == 1}
        )

    def inverse(self):
        """Multiplicative inverse via the finite geometric series on the soul.

        The soul's s-th power vanishes in a degree-s truncation, so the series
        has at most s-1 terms after the 1.
        """
        field = self.algebra.field
        if self.parity() not in (EVEN, ZERO):
            raise ParityError("only even elements with non-zero body are invertible")
        b = self.body()
        if field.is_zero(b):
            raise AlgebraError("element with zero body is not invertible")
        u = self.soul().scale(1 / b)
        inv = self.algebra.one()
        term = self.algebra.one()
        for _ in range(self.algebra.s - 1):
            term = term * (-u)
            if term.is_zero():
                break
            inv = inv + term
        return inv.scale(1 / b)

    def norm(self):
        field = self.algebra.field
        return max((field.norm(c) for c in self.coeffs.values()), default=0.0)


def invert(a):
    return a.inverse()


def body(a):
    return a.body()


def soul(a):
    return a.soul()


def parity(a):
    return a.parity()


def height(algebra):
    return algebra.height()


def width(algebra):
    return algebra.width()


# -- constructors ------------------------------------------------------------


def make_truncated(k, l, s, field: Field = RATIONAL):
    """Polynomials in k even and l odd generators with all degree >= s monomials killed."""
    return SuperWeilAlgebra(field, k, l, s, [])


def make_grassmann(q, field: Field = RATIONAL):
    """Exterior algebra on q odd generators (dimension 2^q)."""
    if q < 0:
        raise AlgebraError("Grassmann algebra needs q >= 0")
    return make_truncated(0, q, q + 1, field)


def make_dual_numbers(field: Field = RATIONAL):
    """K[t]/t^2: one even generator squaring to zero."""
    return make_truncated(1, 0, 2, field)


def make_super_dual_numbers(field: Field = RATIONAL):
    """K[t,z]/<t^2, tz, z^2>; basis {1, t, z}, height 1."""
    return make_truncated(1, 1, 2, field)


def quotient(ambient, gens):
    """Quotient of ``ambient`` by the graded ideal generated by ``gens``.

    Each generator must be parity-homogeneous and have zero body.  The ideal
    is spanned linearly by generator-times-monomial products; row reduction
    picks leading monomials as pivots and the remaining monomials form the new
    quotient basis.  Returns ``(quotient_algebra, projection_morphism)``.
    """
    field = ambient.field
    one = field.one
    rows = [dict(r) for r in ambient.ideal_rows]
    for g in gens:
        if g.algebra != ambient:
            raise AlgebraError("quotient generator is not an ambient element")
        p = g.parity()
        if p == MIXED:
            raise ParityError("quotient generator is not parity-homogeneous")
        if not field.is_zero(g.body()):
            raise AlgebraError(
                "quotient generator has non-zero body; the ideal would contain a unit"
            )
        if p == ZERO:
            continue
        # g * (pivot monomial) is a combination of g * (basis monomials) modulo
        # the ambient rows already included, so the quotient basis suffices;
        # it ascends in degree, and from deg(m) = s - (lowest degree in g) on
        # every term of g * m has degree >= s and is structurally zero
        cutoff = ambient.s - min(m.degree() for m in g.coeffs)
        for m in ambient.quotient_basis:
            if m.degree() >= cutoff:
                break
            prod = g * AlgebraElement(ambient, {m: one})
            if not prod.is_zero():
                rows.append({ambient._ambient_index[m]: c for m, c in prod.coeffs.items()})
    quo = SuperWeilAlgebra(field, ambient.k, ambient.l, ambient.s, rows)
    return quo, _generator_map(ambient, quo)


def tensor(a, b):
    """Graded tensor product with its two canonical inclusions.

    Generators are the disjoint union, a's block first, so a's odd indices
    stay below b's: a joint monomial is m_a * m_b with sign +1 and reduces
    to NF_a(m_a) * NF_b(m_b), and the sign rule (x ⊗ y)(x' ⊗ y') =
    (-1)^{p(y)p(x')} xx' ⊗ yy' falls out of the merge sign.  One row
    m - NF(m) per m outside basis_a x basis_b spans the ideal, each already
    reduced with pivot m because degree-lex order is multiplicative.
    """
    if a.field is not b.field:
        raise AlgebraError("tensor factors must share a scalar field")
    # built first, so that the ambient cap is checked before any enumeration
    joint = make_truncated(a.k + b.k, a.l + b.l, a.s + b.s - 1, a.field)
    index, low = joint._ambient_index, (1 << a.l) - 1
    rows = []
    for col, m in enumerate(joint.ambient_basis):
        m_a, m_b = Monomial(m.nu[:a.k], m.odd & low), Monomial(m.nu[a.k:], m.odd >> a.l)
        if m_a in a.basis_index and m_b in b.basis_index:
            continue
        row = {col: a.field.one}
        for x, c in a._normal_form(m_a).items():
            for y, d in b._normal_form(m_b).items():
                row[index[Monomial(x.nu + y.nu, x.odd | y.odd << a.l)]] = -(c * d)
        rows.append(row)
    prod = SuperWeilAlgebra(a.field, joint.k, joint.l, joint.s, rows)
    return prod, _generator_map(a, prod), _generator_map(b, prod, a.k, a.l)


def join(a1, a2):
    """Smallest common refinement of two quotients of one truncated ambient.

    Both arguments must be presented over the same (k, l, s, field); the
    result quotients the ambient by the intersection of the two ideal
    subspaces and comes with the surjections onto each input.
    """
    if not a1.same_presentation(a2):
        raise AlgebraError("join needs both algebras over one common ambient")
    field = a1.field
    rows = intersect_row_spaces(
        [dict(r) for r in a1.ideal_rows],
        [dict(r) for r in a2.ideal_rows],
        len(a1.ambient_basis),
        field,
    )
    # the intersection of graded subspaces is graded: split rows by parity
    graded = []
    for row in rows:
        for want in (0, 1):
            part = {i: c for i, c in row.items() if a1.ambient_basis[i].parity() == want}
            if part:
                graded.append(part)
    joined = SuperWeilAlgebra(field, a1.k, a1.l, a1.s, graded)
    return joined, _generator_map(joined, a1), _generator_map(joined, a2)


# -- morphisms ----------------------------------------------------------------


class AlgebraMorphism:
    """Unital parity-preserving algebra map fixed by generator images."""

    __slots__ = ("source", "target", "even_images", "odd_images", "_cache")

    def __init__(self, source, target, even_images, odd_images):
        self.source = source
        self.target = target
        self.even_images = tuple(even_images)
        self.odd_images = tuple(odd_images)
        self._cache = {}

    def __call__(self, elem):
        return apply_morphism(self, elem)

    def __repr__(self):
        return f"AlgebraMorphism({self.source!r} -> {self.target!r})"

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.even_images == other.even_images
            and self.odd_images == other.odd_images
        )

    def monomial_image(self, m):
        cached = self._cache.get(m)
        if cached is None:
            cached = self.target.one()
            for i, e in enumerate(m.nu):
                if e:
                    cached = cached * self.even_images[i] ** e
            for j in m.odd_indices():
                cached = cached * self.odd_images[j - 1]
            self._cache[m] = cached
        return cached


def make_morphism(source, target, even_images, odd_images):
    """The unique unital algebra map sending generators to the given images.

    Images must parity-match, have zero body, and kill every source relation
    (ideal rows plus all monomials at the truncation degree); this is checked
    by evaluation at construction.
    """
    even_images = [as_element(target, v) for v in even_images]
    odd_images = [as_element(target, v) for v in odd_images]
    if len(even_images) != source.k or len(odd_images) != source.l:
        raise AlgebraError("generator image counts do not match the source")
    if source.field is not target.field:
        raise AlgebraError("morphism endpoints must share a scalar field")
    rho = AlgebraMorphism(source, target, even_images, odd_images)
    field = target.field
    for v in even_images:
        if v.parity() not in (EVEN, ZERO):
            raise ParityError("image of an even generator must be even")
        if not field.is_zero(v.body()):
            raise AlgebraError("generator images must have zero body")
    for v in odd_images:
        if v.parity() not in (ODD, ZERO):
            raise ParityError("image of an odd generator must be odd")
    magnitude = None if field.exact else _image_magnitudes(rho)

    def violated(img, terms):
        # img is the image of the sum of c * m over terms; on float fields its
        # rounding error is bounded, up to a small multiple of the unit
        # roundoff, by the same sum of products taken on magnitudes
        if magnitude is None:
            return not img.is_zero()
        bound = sum(field.norm(c) * max(magnitude(m).values(), default=0.0) for c, m in terms)
        return img.norm() > 1e-9 * bound

    for m in _monomials_of_degree(source.k, source.l, source.s):
        if violated(rho.monomial_image(m), [(field.one, m)]):
            raise AlgebraError(
                f"images violate the truncation relation {source.monomial_name(m)} = 0"
            )
    for row, pivot in zip(source.ideal_rows, source.pivot_cols):
        terms = [(c, source.ambient_basis[i]) for i, c in row]
        acc = target.zero()
        for c, m in terms:
            acc = acc + rho.monomial_image(m).scale(c)
        if violated(acc, terms):
            name = source.monomial_name(source.ambient_basis[pivot])
            raise AlgebraError(f"images are incompatible with a source relation: the row with pivot {name}")
    return rho


def _image_magnitudes(rho):
    """m -> the image of the source monomial m under ``rho`` with every
    coefficient, the target's normal forms included, replaced by its
    absolute value, as {quotient monomial: magnitude}; memoized."""
    target = rho.target
    norm = target.field.norm
    gens = [{m: norm(c) for m, c in v.coeffs.items()} for v in rho.even_images + rho.odd_images]
    k = rho.source.k
    cache = {Monomial((0,) * k, 0): {Monomial((0,) * target.k, 0): 1.0}}

    def magnitude(m):
        got = cache.get(m)
        if got is None:
            # split off one generator: the highest odd one, else the last even
            if m.odd:
                j = m.odd.bit_length() - 1
                rest, factor = Monomial(m.nu, m.odd ^ (1 << j)), gens[k + j]
            else:
                i = max(i for i, e in enumerate(m.nu) if e)
                nu = m.nu[:i] + (m.nu[i] - 1,) + m.nu[i + 1:]
                rest, factor = Monomial(nu, 0), gens[i]
            got = cache[m] = {}
            for m1, c1 in magnitude(rest).items():
                for m2, c2 in factor.items():
                    for mm, c in target._product_entry(m1, m2):
                        got[mm] = got.get(mm, 0.0) + c1 * c2 * norm(c)
        return got

    return magnitude


def _generator_map(source, target, even_offset=0, odd_offset=0):
    """The canonical map sending t_i to t_(i + even_offset) and z_j to
    z_(j + odd_offset); the constructors build it to satisfy every source
    relation, so it is not checked against them."""
    return AlgebraMorphism(
        source,
        target,
        [target.gen_even(i + even_offset) for i in range(1, source.k + 1)],
        [target.gen_odd(j + odd_offset) for j in range(1, source.l + 1)],
    )


def as_element(algebra, value):
    """``value`` as an element of ``algebra``: scalars are embedded, elements
    of another algebra are rejected."""
    if isinstance(value, AlgebraElement):
        if value.algebra != algebra:
            raise AlgebraError(f"element {value!r} lives in the wrong algebra")
        return value
    return algebra.scalar(value)


def apply_morphism(rho, elem):
    """Image of an element: substitute generator images and reduce in the target."""
    if elem.algebra != rho.source:
        raise AlgebraError("element does not belong to the morphism's source")
    out = rho.target.zero()
    for m, c in elem.coeffs.items():
        out = out + rho.monomial_image(m).scale(c)
    return out


def compose_morphisms(outer, inner):
    """outer ∘ inner (apply ``inner`` first)."""
    if inner.target != outer.source:
        raise AlgebraError("morphisms are not composable")
    return AlgebraMorphism(
        inner.source,
        outer.target,
        [outer(v) for v in inner.even_images],
        [outer(v) for v in inner.odd_images],
    )


def identity_morphism(algebra):
    return _generator_map(algebra, algebra)


def scalar_projection(algebra):
    """The body map onto the trivial algebra K (all generators to zero)."""
    target = make_truncated(0, 0, 1, algebra.field)
    return AlgebraMorphism(
        algebra, target, [target.zero()] * algebra.k, [target.zero()] * algebra.l
    )
