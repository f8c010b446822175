"""JSON forms for every value kind, plus the named-object workspace.

All encodings are deterministic: monomial keys follow the basis order,
rationals print as "num/den" strings, floats as plain JSON numbers, complex
scalars as [re, im] pairs.  Domains carrying a predicate cannot be encoded.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from numbers import Rational, Real

from . import expr as ex
from .algebra import AlgebraElement, Monomial, SuperWeilAlgebra, make_truncated
from .apoints import APoint, DomainMorphism, make_apoint, make_domain_morphism
from .calculus import Derivation, Distribution, TangentVector, make_derivation, make_distribution
from .errors import ParseError
from .fields import RATIONAL, field_by_name, read_int
from .nattrans import TruncatedFormalSeries
from .superfunc import Section, SuperDomain, section

WORKSPACE_SCHEMA = 1

_MONOMIAL_TOKEN = re.compile(r"(t|z)(\d+)(?:\^(\d+))?")


def parse_monomial_key(algebra, key):
    if key == "1":
        return Monomial((0,) * algebra.k, 0)
    nu = [0] * algebra.k
    mask = 0
    pos = 0
    for tok in _MONOMIAL_TOKEN.finditer(key):
        if tok.start() != pos:
            raise ParseError(f"bad monomial key {key!r}")
        pos = tok.end()
        kind, idx, power = tok.groups()
        bound = algebra.k if kind == "t" else algebra.l
        idx = read_int(idx, f"generator {kind} in {key[:16]!r}", 1, bound)
        if kind == "t":
            exponent = read_int(power, f"power in {key[:16]!r}", 0, algebra.s) if power else 1
            nu[idx - 1] += exponent
        else:
            if power:
                raise ParseError(f"odd generators cannot carry powers: {key!r}")
            bit = 1 << (idx - 1)
            if mask & bit:
                raise ParseError(f"odd generator z{idx} repeated in {key!r}")
            mask |= bit
    if pos != len(key):
        raise ParseError(f"bad monomial key {key!r}")
    if sum(nu) + mask.bit_count() >= algebra.s:
        raise ParseError(f"monomial {key!r} is at or beyond the truncation degree {algebra.s}")
    m = Monomial(tuple(nu), mask)
    # only the names algebra_to_json writes: a reordered or repeated form
    # would lose a reordering sign or collide with another key
    name = algebra.monomial_name(m)
    if key != name:
        raise ParseError(f"monomial key {key!r} is not canonical; write {name!r}")
    return m


def coeff_map_to_json(elem: AlgebraElement):
    algebra = elem.algebra
    field = algebra.field
    out = {}
    for m in algebra.quotient_basis:
        if m in elem.coeffs:
            out[algebra.monomial_name(m)] = field.to_json(elem.coeffs[m])
    return out


def coeff_map_from_json(algebra, obj):
    field = algebra.field
    coeffs = {}
    for key, value in obj.items():
        coeffs[parse_monomial_key(algebra, key)] = field.from_json(value)
    return algebra.element(coeffs)


def algebra_to_json(algebra: SuperWeilAlgebra):
    field = algebra.field
    rows = [
        {algebra.monomial_name(algebra.ambient_basis[i]): field.to_json(c) for i, c in row}
        for row in algebra.ideal_rows
    ]
    return {
        "field": field.name,
        "k": algebra.k,
        "l": algebra.l,
        "s": algebra.s,
        "ideal": rows,
    }


def algebra_from_json(obj):
    """The algebra with the reduced ideal rows that :func:`algebra_to_json`
    wrote.  The rows must span an ideal: a list that only generates one is
    rejected, not closed."""
    field = field_by_name(_typed(obj, "field", str, "algebra"))
    k, l, s = (_typed(obj, key, int, "algebra") for key in ("k", "l", "s"))
    ambient = make_truncated(k, l, s, field)
    rows = [
        {ambient._ambient_index[parse_monomial_key(ambient, key)]: field.from_json(value)
         for key, value in entry.items()}
        for entry in _typed_list(obj, "ideal", dict, "algebra")
    ]
    algebra = SuperWeilAlgebra(field, ambient.k, ambient.l, ambient.s, rows)
    _check_spans_ideal(algebra)
    return algebra


def _check_spans_ideal(algebra):
    """Every ideal row times every generator reduces to zero; on float fields,
    to within 1e-9 of the largest summand."""
    field, basis = algebra.field, algebra.ambient_basis
    for row, pivot in zip(algebra.ideal_rows, algebra.pivot_cols):
        for g in (m for m in basis if m.degree() == 1):
            acc, scale = {}, 0.0
            for i, c in row:
                for m, v in algebra._product_entry(basis[i], g):
                    acc[m] = acc.get(m, field.zero) + c * v
                    scale = max(scale, field.norm(c * v))
            if any(v if field.exact else field.norm(v) > 1e-9 * scale for v in acc.values()):
                name = algebra.monomial_name
                raise ParseError(f"ideal rows do not span an ideal: the row with pivot "
                                 f"{name(basis[pivot])} times {name(g)} is not in their span")


def domain_to_json(domain: SuperDomain):
    if domain.predicate is not None:
        raise ParseError("domains with a predicate cannot be serialized")
    box = None
    if domain.box is not None:
        box = [None if iv is None else [_end_to_json(end) for end in iv] for iv in domain.box]
    return {"p": domain.p, "q": domain.q, "box": box}


def _end_to_json(end):
    """A box end as a JSON float, or "num/den" for a rational no float equals."""
    if not isinstance(end, Rational):
        return None if end is None else float(end)
    with contextlib.suppress(OverflowError):
        value = float(end)
        if value == end:
            return value
    return RATIONAL.to_json(end)


def domain_from_json(obj):
    p, q = (_typed(obj, key, int, "domain") for key in ("p", "q"))
    box = obj.get("box")
    if box is not None:
        box = tuple(_interval(iv) for iv in _typed(obj, "box", list, "domain"))
    return SuperDomain(p, q, box)


def _interval(iv):
    """A domain box entry: null, or [lo, hi] with each end a real number, a
    "num/den" string or null."""
    if iv is None:
        return None
    if not isinstance(iv, list) or len(iv) != 2 or not all(
        v is None or isinstance(v, (Real, str)) and not isinstance(v, bool) for v in iv
    ):
        raise ParseError(f"domain 'box' entry {iv!r} is not a [lo, hi] pair of numbers, "
                         '"num/den" strings or nulls')
    try:
        return tuple(RATIONAL.parse(v) if isinstance(v, str) else v for v in iv)
    except ParseError as exc:
        raise ParseError(f"domain 'box' entry {iv!r}: {exc}") from None


def section_to_json(s: Section):
    return {"domain": domain_to_json(s.domain), "expr": ex.to_text(s.expr)}


def section_from_json(obj):
    domain = domain_from_json(_lookup(obj, "domain", "section"))
    return section(domain, _typed(obj, "expr", str, "section"))


def apoint_to_json(x: APoint):
    return {
        "domain": domain_to_json(x.domain),
        "algebra": algebra_to_json(x.algebra),
        "even": [coeff_map_to_json(v) for v in x.even_vals],
        "odd": [coeff_map_to_json(v) for v in x.odd_vals],
    }


def apoint_from_json(obj, algebra=None, domain=None):
    if algebra is None:
        algebra = algebra_from_json(_lookup(obj, "algebra", "point"))
    if domain is None:
        domain = domain_from_json(_lookup(obj, "domain", "point"))
    even, odd = (_elements(algebra, obj, key, "point") for key in ("even", "odd"))
    return make_apoint(domain, algebra, even, odd)


def domain_morphism_to_json(phi: DomainMorphism):
    return {
        "source": domain_to_json(phi.source),
        "target": domain_to_json(phi.target),
        "pullbacks": [ex.to_text(pb.expr) for pb in phi.pullbacks],
    }


def domain_morphism_from_json(obj):
    source = domain_from_json(_lookup(obj, "source", "morphism"))
    target = domain_from_json(_lookup(obj, "target", "morphism"))
    return make_domain_morphism(source, target, _typed_list(obj, "pullbacks", str, "morphism"))


def tangent_to_json(tv: TangentVector, field):
    return {
        "domain": domain_to_json(tv.domain),
        "base": [field.to_json(field.coerce(v)) for v in tv.base],
        "v_even": [field.to_json(field.coerce(v)) for v in tv.v_even],
        "v_odd": [field.to_json(field.coerce(v)) for v in tv.v_odd],
    }


def tangent_from_json(obj, field):
    return TangentVector(
        domain_from_json(_lookup(obj, "domain", "tangent")),
        *(_scalars(field, obj, key, "tangent") for key in ("base", "v_even", "v_odd")),
    )


def derivation_to_json(d: Derivation):
    return {
        "at": apoint_to_json(d.at),
        "f_even": [coeff_map_to_json(c) for c in d.f_even],
        "f_odd": [coeff_map_to_json(c) for c in d.f_odd],
        "parity": d.parity,
    }


def derivation_from_json(obj):
    at = apoint_from_json(_lookup(obj, "at", "derivation"))
    f_even, f_odd = (_elements(at.algebra, obj, key, "derivation") for key in ("f_even", "f_odd"))
    return make_derivation(at, f_even, f_odd, _typed(obj, "parity", str, "derivation"))


def distribution_to_json(dist: Distribution, field):
    return {
        "domain": domain_to_json(dist.domain),
        "base": [field.to_json(field.coerce(v)) for v in dist.base],
        "order": dist.order,
        "coeffs": [
            {"nu": list(nu), "J": list(indices), "a": field.to_json(field.coerce(a))}
            for (nu, indices), a in dist.coeffs
        ],
    }


def distribution_from_json(obj, field):
    coeffs = {}
    for entry in _typed_list(obj, "coeffs", dict, "distribution"):
        nu, js = (tuple(_typed_list(entry, key, int, "distribution coefficient"))
                  for key in ("nu", "J"))
        coeffs[(nu, js)] = field.from_json(_lookup(entry, "a", "distribution coefficient"))
    return make_distribution(
        domain_from_json(_lookup(obj, "domain", "distribution")),
        _scalars(field, obj, "base", "distribution"),
        _typed(obj, "order", int, "distribution"),
        coeffs,
    )


def series_to_json(series: TruncatedFormalSeries):
    slots = []
    for cmap in series.coeffs:
        entries = [
            {"nu": list(nu), "J": list(indices), "expr": ex.to_text(e)}
            for (nu, indices), e in sorted(cmap.items())
        ]
        slots.append(entries)
    return {
        "source": list(series.source_dims),
        "target": list(series.target_dims),
        "order": series.order,
        "slots": slots,
    }


def series_from_json(obj):
    (p, q), target = (_series_dims(obj, key) for key in ("source", "target"))
    slots = []
    for entries in _typed_list(obj, "slots", list, "series"):
        cmap = {}
        for i in range(len(entries)):
            entry = _typed(entries, i, dict, "series slot entry")
            nu, indices = (tuple(_typed_list(entry, k, int, "series entry")) for k in ("nu", "J"))
            cmap[(nu, indices)] = ex.parse_expr(_typed(entry, "expr", str, "series entry"), p, None)
        slots.append(cmap)
    order = _typed(obj, "order", int, "series")
    return TruncatedFormalSeries((p, q), target, order, tuple(slots))


def _series_dims(obj, key):
    dims = _typed_list(obj, key, int, "series")
    if len(dims) != 2:
        raise ParseError(f"series {key!r} must be a [p, q] pair, got {dims!r}")
    return tuple(dims)


def _named(registry, entry, field, what):
    """The registered object that ``entry[field]`` names."""
    return _lookup(registry, _lookup(entry, field, what), f"the workspace ({what} {field})")


def _lookup(obj, key, what):
    """``obj[key]`` of decoded JSON or of a workspace registry; a ParseError
    naming ``what`` when it is absent."""
    try:
        return obj[key]
    except (KeyError, IndexError, TypeError):
        raise ParseError(f"{what} has no {key!r}") from None


def _typed(obj, key, kind, what):
    """:func:`_lookup`, and a ParseError naming ``what`` and ``key`` unless
    the value is a ``kind`` (a JSON true or false is no int)."""
    value = _lookup(obj, key, what)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{what} {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _typed_list(obj, key, kind, what):
    """The list ``obj[key]``, every entry checked by :func:`_typed`."""
    items = _typed(obj, key, list, what)
    return [_typed(items, i, kind, f"{what} {key!r} entry") for i in range(len(items))]


def _scalars(field, obj, key, what):
    return tuple(field.from_json(v) for v in _typed(obj, key, list, what))


def _elements(algebra, obj, key, what):
    return [coeff_map_from_json(algebra, m) for m in _typed_list(obj, key, dict, what)]


def _registry(obj, key):
    """A workspace's named ``key`` entries as (name, entry) pairs; none when absent."""
    return _typed(obj, key, dict, "workspace").items() if key in obj else ()


# -- workspace ---------------------------------------------------------------------


class Workspace:
    """Named registry of algebras, domains, sections, points, morphisms, series.

    Serialization stores cross-references by name: a point's algebra and
    domain must be registered (structural equality counts) or saving fails.
    """

    def __init__(self):
        self.algebras = {}
        self.domains = {}
        self.sections = {}
        self.points = {}
        self.morphisms = {}
        self.series = {}

    def __eq__(self, other):
        return isinstance(other, Workspace) and all(
            getattr(self, slot) == getattr(other, slot) for slot in _WS_SLOTS
        )

    def _find_name(self, registry, value, kind):
        for name, known in registry.items():
            if known == value:
                return name
        raise ParseError(f"unresolved cross-reference: {kind} is not registered")

    def to_json(self):
        out = {"schema": WORKSPACE_SCHEMA}
        out["algebras"] = {n: algebra_to_json(a) for n, a in self.algebras.items()}
        out["domains"] = {n: domain_to_json(d) for n, d in self.domains.items()}
        out["sections"] = {
            n: {
                "domain": self._find_name(self.domains, s.domain, "section domain"),
                "expr": ex.to_text(s.expr),
            }
            for n, s in self.sections.items()
        }
        out["points"] = {
            n: {
                "domain": self._find_name(self.domains, x.domain, "point domain"),
                "algebra": self._find_name(self.algebras, x.algebra, "point algebra"),
                "even": [coeff_map_to_json(v) for v in x.even_vals],
                "odd": [coeff_map_to_json(v) for v in x.odd_vals],
            }
            for n, x in self.points.items()
        }
        out["morphisms"] = {
            n: {
                "source": self._find_name(self.domains, phi.source, "morphism source"),
                "target": self._find_name(self.domains, phi.target, "morphism target"),
                "pullbacks": [ex.to_text(pb.expr) for pb in phi.pullbacks],
            }
            for n, phi in self.morphisms.items()
        }
        out["series"] = {n: series_to_json(f) for n, f in self.series.items()}
        return out

    @classmethod
    def from_json(cls, obj):
        schema = _lookup(obj, "schema", "workspace")
        if schema != WORKSPACE_SCHEMA:
            raise ParseError(f"unsupported workspace schema {schema!r}")
        ws = cls()
        ws.algebras = {n: algebra_from_json(a) for n, a in _registry(obj, "algebras")}
        ws.domains = {n: domain_from_json(d) for n, d in _registry(obj, "domains")}
        for n, entry in _registry(obj, "sections"):
            domain = _named(ws.domains, entry, "domain", f"section {n}")
            ws.sections[n] = section(domain, _typed(entry, "expr", str, f"section {n}"))
        for n, entry in _registry(obj, "points"):
            domain = _named(ws.domains, entry, "domain", f"point {n}")
            algebra = _named(ws.algebras, entry, "algebra", f"point {n}")
            even, odd = (_elements(algebra, entry, key, f"point {n}") for key in ("even", "odd"))
            ws.points[n] = make_apoint(domain, algebra, even, odd)
        for n, entry in _registry(obj, "morphisms"):
            ws.morphisms[n] = make_domain_morphism(
                _named(ws.domains, entry, "source", f"morphism {n}"),
                _named(ws.domains, entry, "target", f"morphism {n}"),
                _typed_list(entry, "pullbacks", str, f"morphism {n}"),
            )
        ws.series = {n: series_from_json(f) for n, f in _registry(obj, "series")}
        return ws

    def save(self, path):
        """Write the workspace to ``path`` as JSON.  The text goes to a
        temporary file beside ``path`` that then replaces it, so a save that
        fails leaves an existing file as it was."""
        text = json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(read_json(fh.read(), path))


def read_json(text, source):
    """Decoded JSON ``text``.  Malformed JSON, and an integer too long for
    Python to convert (str-to-int is capped at 4,300 digits), is a ParseError
    naming ``source``."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"{source}: {exc}") from None


_WS_SLOTS = ("algebras", "domains", "sections", "points", "morphisms", "series")
