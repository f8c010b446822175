"""Parity-tracked symbolic expressions in even and odd coordinates.

Even coordinates are written ``x1..xp``, odd ones ``theta1..thetaq``.  Each
node carries its parity ("even", "odd" or "mixed"); analytic nodes (exp, log,
sin, cos, reciprocal, integer powers) accept even operands only, which is
checked at construction.
"""

from __future__ import annotations

import math
import re
import weakref
from fractions import Fraction
from functools import partial

from .algebra import merge_sign
from .errors import ParityError, ParseError
from .fields import ANALYTIC_FUNCTIONS, RATIONAL, REAL, read_int, scalar_pow

EVEN, ODD, MIXED = "even", "odd", "mixed"


class Expr:
    """Base expression node.  Operators build trees with constant folding.

    A node has ``arity`` children, ``a`` then ``b``; :func:`fold` is the one
    walk over them.  Nodes are immutable and hash-consed: constructing a node
    equal in class, payload and child identities to a live one returns that
    node, so a DAG holds each structure once and a walk memoized by node
    identity costs the number of distinct structures.  Equality and hashing
    stay structural (``Const(1.0) == Const(Fraction(1))``), so two distinct
    nodes may still compare equal.
    """

    __slots__ = ("parity", "__weakref__")
    arity = 0

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return int_pow(self, n)

    def __eq__(self, other):
        if self is other:
            return True
        number = partial(_number_of, {})
        return isinstance(other, Expr) and fold(self, number) == fold(other, number)

    def __hash__(self):
        return fold(self, _hash_of)

    def __reduce__(self):
        # a node class's slots are its constructor's arguments, in order, so
        # unpickling and copying construct, and so re-intern, the node
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        return f"Expr({to_text(self)})"


# every live node as a weak reference, keyed by (class, payload, child ids); a
# child's id is unique while the node holding it lives, and a dead node's
# entry goes with it.  A node enters only once its fields are set, so a
# thread never finds a half built one; two threads racing on one key build
# two equal nodes.  A plain dict of refs: WeakValueDictionary's Python-level
# get and set cost as much as building the node.
_NODES = {}


def _dead():
    """What a missing entry dereferences to, like the ref of a dead node."""
    return None


def _drop(key, ref):
    """Removal callback of a node's entry: a node built for the same key after
    this one died may already hold the entry, so only ``ref`` itself goes."""
    if _NODES.get(key) is ref:
        _NODES.pop(key, None)


def _number_key(v):
    """A key equal for two numbers only when they are identical, in type and
    in the sign of every zero part: 1.0 and Fraction(1), or 0.0 and -0.0,
    stay apart.  A rational keys by its two ints, which hash far faster than
    a Fraction."""
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    if isinstance(v, float):
        return float, v, math.copysign(1.0, v)
    if isinstance(v, complex):
        return complex, v, math.copysign(1.0, v.real), math.copysign(1.0, v.imag)
    return type(v), v


def _check_index(kind, i):
    # an int, so that the key (class, i) names one node: 1.0 == 1 would
    # otherwise hand back x1 for x1.0, or store x1.0 as x1
    if not isinstance(i, int) or i < 1:
        raise ParseError(f"{kind} coordinate index {i!r} must be an int >= 1")


def _enter(key, cls, fields, parity):
    """Build the node ``cls(*fields)`` of ``parity`` and enter it under
    ``key``: every constructor's path when no live node has that key."""
    node = object.__new__(cls)
    # one or two slots, set unrolled: a zip() loop made new nodes measurably
    # slower (CPython 3.11)
    names = cls.__slots__
    setattr(node, names[0], fields[0])
    if len(fields) == 2:
        setattr(node, names[1], fields[1])
    node.parity = parity
    _NODES[key] = weakref.ref(node, partial(_drop, key))
    return node


def _even_operand(what, a):
    """EVEN, the parity of an analytic node, once its operand is even."""
    if a.parity != EVEN:
        raise ParityError(f"{what} needs an even operand, got {a.parity}")
    return EVEN


# Each constructor checks its arguments, then returns the live node of its
# key or else enters a new one (a node is never falsy); parity and operand
# checks run on the new node only.


class EvenCoord(Expr):
    __slots__ = ("i",)

    def __new__(cls, i):
        _check_index("even", i)
        key = (cls, i)
        return _NODES.get(key, _dead)() or _enter(key, cls, (i,), EVEN)


class OddCoord(Expr):
    __slots__ = ("j",)

    def __new__(cls, j):
        _check_index("odd", j)
        key = (cls, j)
        return _NODES.get(key, _dead)() or _enter(key, cls, (j,), ODD)


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        if isinstance(value, int):
            value = Fraction(value)
        key = (cls, _number_key(value))
        return _NODES.get(key, _dead)() or _enter(key, cls, (value,), EVEN)


class Add(Expr):
    __slots__ = ("a", "b")
    arity = 2

    def __new__(cls, a, b):
        key = (cls, id(a), id(b))
        return _NODES.get(key, _dead)() or _enter(
            key, cls, (a, b), a.parity if a.parity == b.parity else MIXED
        )


class Mul(Expr):
    __slots__ = ("a", "b")
    arity = 2

    def __new__(cls, a, b):
        key = (cls, id(a), id(b))
        return _NODES.get(key, _dead)() or _enter(
            key, cls, (a, b),
            MIXED if MIXED in (a.parity, b.parity) else ODD if a.parity != b.parity else EVEN,
        )


class Neg(Expr):
    __slots__ = ("a",)
    arity = 1

    def __new__(cls, a):
        key = (cls, id(a))
        return _NODES.get(key, _dead)() or _enter(key, cls, (a,), a.parity)


class ScalarMul(Expr):
    __slots__ = ("c", "a")
    arity = 1

    def __new__(cls, c, a):
        if isinstance(c, int):
            c = Fraction(c)
        key = (cls, _number_key(c), id(a))
        return _NODES.get(key, _dead)() or _enter(key, cls, (c, a), a.parity)


class Apply(Expr):
    """Analytic unary node: exp, log, sin, cos or reciprocal."""

    __slots__ = ("fn", "a")
    arity = 1

    def __new__(cls, fn, a):
        if fn not in ANALYTIC_FUNCTIONS:
            raise ParseError(f"unknown analytic function {fn!r}")
        key = (cls, fn, id(a))
        return _NODES.get(key, _dead)() or _enter(key, cls, (fn, a), _even_operand(fn, a))


class IntPow(Expr):
    __slots__ = ("a", "n")
    arity = 1

    def __new__(cls, a, n):
        if not isinstance(n, int) or n < 0:
            raise ParseError("integer power needs a non-negative int exponent")
        key = (cls, id(a), n)
        return _NODES.get(key, _dead)() or _enter(
            key, cls, (a, n), _even_operand("integer power", a)
        )


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction, float, complex)):
        return Const(v)
    raise ParseError(f"cannot interpret {v!r} as an expression")


def is_zero_const(e):
    return isinstance(e, Const) and not e.value


# -- folding constructors ------------------------------------------------------


def add(a, b):
    if is_zero_const(a):
        return b
    if is_zero_const(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def mul(a, b):
    if is_zero_const(a) or is_zero_const(b):
        return ZERO
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        return scalar_mul(a.value, b)
    if isinstance(b, Const):
        return scalar_mul(b.value, a)
    return Mul(a, b)


def scalar_mul(c, a):
    if isinstance(c, int):
        c = Fraction(c)
    if not c:
        return ZERO
    if c == 1:
        return a
    if isinstance(a, Const):
        return Const(c * a.value)
    if isinstance(a, ScalarMul):
        return scalar_mul(c * a.c, a.a)
    return ScalarMul(c, a)


def int_pow(a, n):
    if n == 0:
        return ONE
    if n == 1:
        return a
    if isinstance(a, Const):
        return Const(scalar_pow(a.value, n))
    return IntPow(a, n)


# -- the one traversal ---------------------------------------------------------


def fold(e, visit, done=None):
    """``visit(node, *child results)`` at every node of ``e``, children first,
    left to right; returns the result at ``e``.

    Results at inner nodes are memoized by node identity, so a shared
    subterm is visited once and a DAG costs its number of distinct nodes,
    not the size of the tree it unfolds to.  Leaves are cheap and are
    visited at each occurrence.  The memo is this call's own unless ``done``,
    a dict from node ids to results, is passed to share it across calls of
    the same ``visit``; the caller must keep every node it has seen alive as
    long as ``done``, since a freed node's id is reused.
    """
    if not e.arity:
        return visit(e)
    # a module-level helper, not a closure: a self-referencing closure would
    # be a reference cycle that keeps the memo alive until a GC pass
    return _fold(e, visit, {} if done is None else done)


def _fold(node, visit, done):
    arity = node.arity
    if not arity:
        return visit(node)
    key = id(node)
    if key in done:
        return done[key]
    if arity == 1:
        out = visit(node, _fold(node.a, visit, done))
    else:
        out = visit(node, _fold(node.a, visit, done), _fold(node.b, visit, done))
    done[key] = out
    return out


def unknown_node(node):
    return ParseError(f"unknown expression node {type(node).__name__}")


def _number_of(table, n, *kids):
    """Number of ``n``'s structure in ``table``: nodes with equal numbers are
    structurally equal, so a DAG is compared in its number of distinct nodes."""
    return table.setdefault(_key_of(n, *kids), len(table))


def _hash_of(n, *kids):
    return hash(_key_of(n, *kids))


def _key_of(n, *keys):
    """``n``'s structure from its children's keys: its class, the values of
    its slots that hold no child, then ``keys``."""
    return (type(n), *[getattr(n, s) for s in n.__slots__ if s not in ("a", "b")], *keys)


def max_indices(e):
    """Largest even and odd coordinate indices used by the tree."""
    return fold(e, _max_indices_of)


def _max_indices_of(n, *kids):
    if isinstance(n, EvenCoord):
        return n.i, 0
    if isinstance(n, OddCoord):
        return 0, n.j
    if len(kids) == 2:
        (pa, qa), (pb, qb) = kids
        return max(pa, pb), max(qa, qb)
    return kids[0] if kids else (0, 0)


def substitute(e, even_map, odd_map):
    """Replace coordinates by expressions (parity is re-checked on rebuild)."""

    def visit(n, *kids):
        if isinstance(n, EvenCoord):
            return even_map[n.i]
        if isinstance(n, OddCoord):
            return odd_map[n.j]
        if isinstance(n, Const):
            return n
        if isinstance(n, Add):
            return add(*kids)
        if isinstance(n, Mul):
            return mul(*kids)
        if isinstance(n, Neg):
            return neg(*kids)
        if isinstance(n, ScalarMul):
            return scalar_mul(n.c, *kids)
        if isinstance(n, Apply):
            return Apply(n.fn, *kids)
        if isinstance(n, IntPow):
            return int_pow(*kids, n.n)
        raise unknown_node(n)

    return fold(e, visit)


# -- canonical polynomial form -------------------------------------------------


def poly_dict(e):
    """Canonical form {(even exponents, odd mask): Fraction} or None if analytic.

    Exact over rational constants; float/complex constants propagate as-is.
    The odd mask merges with the usual transposition sign, so two polynomial
    expressions are semantically equal iff their dicts are equal.
    """
    return fold(e, _poly_of)


def _poly_of(n, *kids):
    if isinstance(n, Apply) or None in kids:
        return None
    if isinstance(n, Const):
        return {} if not n.value else {((), 0): n.value}
    if isinstance(n, EvenCoord):
        return {(((n.i, 1),), 0): Fraction(1)}
    if isinstance(n, OddCoord):
        return {((), 1 << (n.j - 1)): Fraction(1)}
    if isinstance(n, Add):
        pa, pb = kids
        out = dict(pa)
        for key, c in pb.items():
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return out
    if isinstance(n, Neg):
        return {k: -c for k, c in kids[0].items()}
    if isinstance(n, ScalarMul):
        return {k: n.c * c for k, c in kids[0].items()} if n.c else {}
    if isinstance(n, Mul):
        return _poly_mul(*kids)
    if isinstance(n, IntPow):
        out = {((), 0): Fraction(1)}
        for _ in range(n.n):
            out = _poly_mul(out, kids[0])
        return out
    raise unknown_node(n)


def _poly_mul(pa, pb):
    out = {}
    for (ea, ma), ca in pa.items():
        da = dict(ea)
        for (eb, mb), cb in pb.items():
            if ma & mb:
                continue
            sign = merge_sign(ma, mb)
            exps = dict(da)
            for i, p in eb:
                exps[i] = exps.get(i, 0) + p
            key = (tuple(sorted(exps.items())), ma | mb)
            v = out.get(key, 0) + sign * ca * cb
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


# -- text form ------------------------------------------------------------------
#
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := atom ('^' INT)?
# atom   := NAME | NUMBER | FUNC '(' expr ')' | '(' expr ')'
# NUMBER := INT('/'INT)? | decimal/scientific literal
#
# The grammar is shared: what NAME, NUMBER and FUNC mean comes from the
# semantics handed to :func:`parse`.  For expressions NAME is x<i> or
# theta<j> and FUNC is exp, log, sin, cos or inv.

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+(?:/\d+)?)"
    r"|(?P<name>[a-zA-Z_][a-zA-Z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)

_FUNC_NAMES = {"exp": "exp", "log": "log", "sin": "sin", "cos": "cos", "inv": "reciprocal"}

# parenthesis depth the parser accepts; each level costs four interpreter
# frames, so this keeps deep input a ParseError well inside the default
# recursion limit
MAX_NESTING = 100


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ParseError(f"bad token at {tail[:12]!r}")
        pos = m.end()
        out.append((m.lastgroup, m.group(m.lastgroup)))
    out.append(("end", ""))
    return out


class _Parser:
    """Recursive descent over the tokens; operators are applied with Python's
    arithmetic operators to whatever the semantics builds."""

    def __init__(self, tokens, semantics):
        self.tokens = tokens
        self.pos = 0
        self.semantics = semantics
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, op):
        """Take the next token if it is the operator ``op``."""
        if self.tokens[self.pos] == ("op", op):
            self.pos += 1
            return True
        return False

    def expect_op(self, op):
        if not self.accept(op):
            raise ParseError(f"expected {op!r}, found {self.peek()[1]!r}")

    def parse(self):
        e = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}")
        return e

    def expr(self):
        negate = self.accept("-")
        e = self.term()
        if negate:
            e = -e
        while True:
            if self.accept("+"):
                e = e + self.term()
            elif self.accept("-"):
                e = e - self.term()
            else:
                return e

    def term(self):
        e = self.factor()
        while self.accept("*"):
            e = e * self.factor()
        return e

    def factor(self):
        e = self.atom()
        if self.accept("^"):
            kind, val = self.take()
            if kind != "num":
                raise ParseError(f"exponent must be a non-negative integer, got {val!r}")
            e = e ** read_int(val, "exponent", 0)
        return e

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return self.semantics.number(val)
        if kind == "op" and val == "(":
            return self.group()
        if kind == "name":
            fn = self.semantics.functions.get(val)
            if fn is None:
                return self.semantics.name(val)
            self.expect_op("(")
            return fn(self.group())
        raise ParseError(f"unexpected token {val!r}")

    def group(self):
        """The sub-expression after an opening parenthesis, and its ')'."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
        e = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return e


class _ExprSemantics:
    """Expression leaves; coordinate ranges checked when p, q are given."""

    functions = {name: partial(Apply, fn) for name, fn in _FUNC_NAMES.items()}

    def __init__(self, p, q):
        self.p = p
        self.q = q

    def number(self, text):
        # decimal and scientific literals stay floats so text round-trips
        # exactly; integers and num/den literals are exact rationals
        field = REAL if "." in text or "e" in text or "E" in text else RATIONAL
        return Const(field.parse(text))

    def name(self, text):
        m = re.fullmatch(r"(x|theta)(\d+)", text)
        if not m:
            raise ParseError(f"unknown name {text!r}")
        even = m.group(1) == "x"
        idx = read_int(m.group(2), f"coordinate {m.group(1)}", 1, self.p if even else self.q)
        return EvenCoord(idx) if even else OddCoord(idx)


def parse(text, semantics):
    """Parse the grammar above into the values ``semantics`` builds.

    ``semantics`` has ``number(text)`` and ``name(text)`` for the leaves and
    ``functions``, a map from a function name to a one-argument callable;
    ``+ - * ^`` act on the built values through Python's operators.
    """
    return _Parser(_tokenize(text), semantics).parse()


def parse_expr(text, p=None, q=None):
    """Parse the expression grammar; coordinate ranges checked when p, q given."""
    return parse(text, _ExprSemantics(p, q))


_FUNC_TEXT = {v: k for k, v in _FUNC_NAMES.items()}

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def to_text(e):
    """Render to the expression grammar (parses back to the same tree semantics)."""
    return fold(e, _render)[0]


def _render(n, *kids):
    """(text, precedence) of a node, from those of its children."""
    if isinstance(n, Const):
        return _const_text(n.value)
    if isinstance(n, EvenCoord):
        return f"x{n.i}", _PREC_ATOM
    if isinstance(n, OddCoord):
        return f"theta{n.j}", _PREC_ATOM
    if isinstance(n, Add):
        text = f"{_wrap(kids[0], _PREC_ADD)} + {_wrap(kids[1], _PREC_ADD + 1)}"
        return text, _PREC_ADD
    if isinstance(n, Neg):
        return f"-{_wrap(kids[0], _PREC_MUL + 1)}", _PREC_ADD
    if isinstance(n, Mul):
        text = f"{_wrap(kids[0], _PREC_MUL)}*{_wrap(kids[1], _PREC_MUL + 1)}"
        return text, _PREC_MUL
    if isinstance(n, ScalarMul):
        text = f"{_wrap(_const_text(n.c), _PREC_MUL)}*{_wrap(kids[0], _PREC_MUL + 1)}"
        return text, _PREC_MUL
    if isinstance(n, IntPow):
        return f"{_wrap(kids[0], _PREC_ATOM)}^{n.n}", _PREC_POW
    if isinstance(n, Apply):
        return f"{_FUNC_TEXT[n.fn]}({kids[0][0]})", _PREC_ATOM
    raise unknown_node(n)


def _const_text(v):
    if isinstance(v, Fraction):
        return str(v), _PREC_ATOM if v.denominator == 1 and v >= 0 else _PREC_ADD
    text = repr(v)
    return text, _PREC_ATOM if not text.startswith("-") else _PREC_ADD


def _wrap(rendered, ctx):
    text, prec = rendered
    return f"({text})" if prec < ctx else text
