"""Expression parsing, parity, super derivatives, components, classical eval."""

import copy
import math
import pickle
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superweil import (
    EvaluationError,
    ParityError,
    ParseError,
    RegionError,
    Section,
    SuperDomain,
    components_to_expr,
    d_even,
    d_odd,
    eval_classical,
    eval_taylor,
    make_apoint,
    make_domain_morphism,
    make_grassmann,
    make_truncated,
    normalize_components,
    section,
    series_from_morphism,
)
from superweil import expr as ex
from superweil.apoints import eval_ast
from superweil.battery import rand_polynomial_expr
from superweil.expr import parse_expr, poly_dict, to_text
from superweil.fields import REAL
from superweil.nattrans import apply_series


def polynomials_equal(e1, e2):
    p1, p2 = poly_dict(e1), poly_dict(e2)
    assert p1 is not None and p2 is not None, "symbolic equality needs polynomials"
    return p1 == p2


class TestParsing:
    def test_even_combination(self):
        e = parse_expr("x1^2 + theta1*theta2", 1, 2)
        assert e.parity == "even"

    def test_analytic_rejects_odd_operand(self):
        with pytest.raises(ParityError):
            parse_expr("sin(theta1)", 1, 2)

    def test_analytic_accepts_even_soul(self):
        e = parse_expr("exp(x1 + theta1*theta2)", 1, 2)
        assert e.parity == "even"

    def test_out_of_range_coordinate(self):
        with pytest.raises(ParseError):
            parse_expr("x2", 1, 0)
        with pytest.raises(ParseError):
            parse_expr("theta3", 1, 2)

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse_expr("x1 + * 2", 1, 0)
        with pytest.raises(ParseError):
            parse_expr("foo(x1)", 1, 0)

    def test_rational_and_negative_literals(self):
        e = parse_expr("-3/4*x1 + 2", 1, 0)
        assert eval_classical(Section(SuperDomain(1, 0), e), (F(4),)) == F(-1)

    def test_mixed_parity_add(self):
        e = parse_expr("x1 + theta1", 1, 1)
        assert e.parity == "mixed"

    @pytest.mark.parametrize(
        "text",
        ["x1^2 + theta1*theta2", "exp(x1)*sin(x1) - 1/2", "-(x1 + 3)*theta1", "inv(1 + x1^2)"],
    )
    def test_to_text_round_trip(self, text):
        e = parse_expr(text, 2, 2)
        again = parse_expr(to_text(e), 2, 2)
        assert again == e


class TestSuperDerive:
    def test_left_derivative_signs(self):
        U = SuperDomain(0, 2)
        s = section(U, "theta1*theta2")
        assert polynomials_equal(d_odd(s, 1).expr, parse_expr("theta2", 0, 2))
        assert polynomials_equal(d_odd(s, 2).expr, parse_expr("-theta1", 0, 2))

    def test_even_derivative(self):
        U = SuperDomain(1, 1)
        s = section(U, "x1^2*theta1")
        assert polynomials_equal(d_even(s, 1).expr, parse_expr("2*x1*theta1", 1, 1))

    def test_exp_derivative(self):
        U = SuperDomain(1, 0)
        s = section(U, "exp(x1)")
        assert d_even(s, 1).expr == parse_expr("exp(x1)", 1, 0)

    def test_chain_rule(self):
        U = SuperDomain(1, 0)
        s = section(U, "sin(x1^2)")
        d = d_even(s, 1).expr
        for v in (0.3, 1.1):
            want = 2 * v * math.cos(v * v)
            got = eval_classical(Section(U, d), (v,))
            assert got == pytest.approx(want, rel=1e-12)

    def test_odd_derivative_squares_to_zero(self):
        rng = random.Random(5)
        U = SuperDomain(2, 2)
        for _ in range(40):
            e = rand_polynomial_expr(rng, 2, 2)
            s = Section(U, e)
            dd = d_odd(d_odd(s, 1), 1).expr
            assert poly_dict(dd) == {}

    def test_mixed_odd_partials_anticommute(self):
        rng = random.Random(6)
        U = SuperDomain(1, 2)
        for _ in range(40):
            e = rand_polynomial_expr(rng, 1, 2)
            s = Section(U, e)
            ab = d_odd(d_odd(s, 2), 1).expr
            ba = d_odd(d_odd(s, 1), 2).expr
            assert poly_dict(ab) == {k: -c for k, c in poly_dict(ba).items()}

    def test_signed_leibniz(self):
        rng = random.Random(7)
        U = SuperDomain(1, 2)
        for _ in range(60):
            s = rand_polynomial_expr(rng, 1, 2)
            if s.parity not in ("even", "odd"):
                continue
            t = rand_polynomial_expr(rng, 1, 2)
            j = rng.randint(1, 2)
            st_ = Section(U, ex.Mul(s, t))
            lhs = d_odd(st_, j).expr
            sign = F(-1) if s.parity == "odd" else F(1)
            rhs = ex.add(
                ex.Mul(d_odd(Section(U, s), j).expr, t),
                ex.scalar_mul(sign, ex.Mul(s, d_odd(Section(U, t), j).expr)),
            )
            assert polynomials_equal(lhs, rhs)


class TestNormalizeComponents:
    def test_polynomial_split(self):
        U = SuperDomain(1, 2)
        comps = normalize_components(section(U, "x1^2 + theta1*theta2"))
        assert set(comps) == {(), (1, 2)}
        assert polynomials_equal(comps[()], parse_expr("x1^2", 1, 0))
        assert polynomials_equal(comps[(1, 2)], parse_expr("1", 1, 0))

    def test_nilpotent_taylor_through_exp(self):
        U = SuperDomain(1, 2)
        comps = normalize_components(section(U, "exp(x1 + theta1*theta2)"))
        assert set(comps) == {(), (1, 2)}
        for v in (0.0, 0.7):
            for key in ((), (1, 2)):
                got = eval_classical(Section(SuperDomain(1, 0), comps[key]), (v,))
                assert got == pytest.approx(math.exp(v), rel=1e-12)

    def test_square_of_odd_coordinate_vanishes(self):
        U = SuperDomain(0, 1)
        assert normalize_components(section(U, "theta1*theta1")) == {}

    def test_reconstruction_identity_exact(self):
        rng = random.Random(8)
        U = SuperDomain(1, 2)
        G = make_grassmann(3)
        x = make_apoint(U, G, [G.scalar(2)], [G.gen_odd(1), G.gen_odd(2)])
        for _ in range(30):
            e = rand_polynomial_expr(rng, 1, 2)
            s = Section(U, e)
            rebuilt = Section(U, components_to_expr(normalize_components(s)))
            assert eval_ast(x, rebuilt) == eval_ast(x, s)

    def test_reconstruction_identity_analytic(self):
        U = SuperDomain(1, 2)
        G = make_grassmann(3, REAL)
        x = make_apoint(
            U, G, [G.scalar(0.4)], [G.gen_odd(1), G.gen_odd(2) + G.gen_odd(3)]
        )
        s = section(U, "exp(x1 + theta1*theta2)*sin(x1)")
        rebuilt = Section(U, components_to_expr(normalize_components(s)))
        diff = eval_ast(x, rebuilt) - eval_ast(x, s)
        assert diff.norm() <= 1e-12


class TestEvalClassical:
    def test_polynomial_value(self):
        U = SuperDomain(1, 2)
        assert eval_classical(section(U, "x1^2 + theta1*theta2"), (F(3),)) == 9

    def test_odd_section_evaluates_to_zero(self):
        U = SuperDomain(1, 1)
        assert eval_classical(section(U, "theta1"), (F(5),)) == 0

    def test_exp_at_zero(self):
        U = SuperDomain(1, 0)
        assert eval_classical(section(U, "exp(x1)"), (0.0,)) == 1.0

    def test_outside_region(self):
        U = SuperDomain(1, 0, box=((F(0), F(1)),))
        s = section(U, "x1")
        with pytest.raises(RegionError):
            eval_classical(s, (F(2),))

    def test_log_domain_error(self):
        U = SuperDomain(1, 0)
        with pytest.raises(EvaluationError):
            eval_classical(section(U, "log(x1)"), (-1.0,))

    def test_predicate_refines_box(self):
        U = SuperDomain(1, 0, box=((F(-2), F(2)),), predicate=lambda p: p[0] != 0)
        assert eval_classical(section(U, "x1"), (F(1),)) == 1
        with pytest.raises(RegionError):
            eval_classical(section(U, "x1"), (F(0),))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_component_reconstruction_random(seed):
    rng = random.Random(seed)
    U = SuperDomain(2, 2)
    e = rand_polynomial_expr(rng, 2, 2)
    rebuilt = components_to_expr(normalize_components(Section(U, e)))
    assert poly_dict(rebuilt) == poly_dict(e)


def test_derivative_of_a_shared_dag_stays_small():
    # x1^(2^16) as 16 squarings of one shared node: 17 distinct nodes that
    # unfold to a tree of 2^17 - 1
    e = ex.EvenCoord(1)
    for _ in range(16):
        e = ex.Mul(e, e)
    d = d_even(Section(SuperDomain(1, 0), e), 1).expr

    seen = set()
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, k) for k in "ab"[: node.arity])
    assert len(seen) <= 4 * 16 + 4
    # classical evaluation walks the same DAG: d/dx x^(2^16) at 1 is 2^16
    assert eval_classical(Section(SuperDomain(1, 0), d), (F(1),)) == 2**16


def test_equality_and_hash_of_a_shared_dag_are_linear():
    # x1 squared 30 times: 31 distinct nodes that unfold to a tree of 2^31 - 1.
    # In a subprocess with a timeout, so that an unfolding walk fails the test
    # instead of hanging the suite.
    code = textwrap.dedent("""
        import time
        from fractions import Fraction
        from superweil import expr as ex

        def squared(leaf, n=30):
            for _ in range(n):
                leaf = ex.Mul(leaf, leaf)
            return leaf

        start = time.perf_counter()
        a, b = squared(ex.EvenCoord(1)), squared(ex.EvenCoord(1))
        assert a == b and hash(a) == hash(b)
        assert a != squared(ex.EvenCoord(2))
        assert ex.Mul(a, ex.EvenCoord(1)) != ex.Mul(a, ex.EvenCoord(2))
        assert ex.Const(1.0) == ex.Const(Fraction(1))
        assert hash(ex.Const(1.0)) == hash(ex.Const(Fraction(1)))
        print(time.perf_counter() - start)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.5


def test_taylor_jet_of_order_12_is_fast():
    # the derivative tower of exp(sin(x1)*cos(x1)) has exponentially many
    # nodes but polynomially many distinct structures; in a subprocess with a
    # timeout, so that a walk over the nodes fails the test instead of
    # hanging the suite
    code = textwrap.dedent("""
        import time
        from superweil import REAL, SuperDomain, eval_ast, eval_taylor, section
        from superweil import make_apoint, make_truncated

        U = SuperDomain(1, 0)
        s = section(U, "exp(sin(x1)*cos(x1))")
        A = make_truncated(1, 0, 13, REAL)
        x = make_apoint(U, A, [A.scalar(0.3) + A.gen_even(1)], [])
        start = time.perf_counter()
        jet = eval_taylor(x, s)
        elapsed = time.perf_counter() - start
        assert (jet - eval_ast(x, s)).norm() <= 1e-9
        print(elapsed)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0


def test_nodes_are_hash_consed_and_re_interned_by_pickle_and_copy():
    e = parse_expr("exp(-0.0) + 2.5*x1*theta1", 1, 1)
    zero, scaled = e.a.a, e.b.a
    assert zero.value == 0.0 and math.copysign(1.0, zero.value) < 0
    assert isinstance(scaled, ex.ScalarMul) and scaled.c == 2.5
    assert parse_expr("exp(-0.0) + 2.5*x1*theta1", 1, 1) is e
    # equal numbers of another type or zero sign are other, equal nodes
    assert zero is not ex.Const(0.0) and zero == ex.Const(0.0)
    assert ex.Const(1.0) is not ex.Const(F(1)) and ex.Const(1.0) == ex.Const(F(1))
    for again in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert again is e
    s = Section(SuperDomain(1, 1), e)
    assert pickle.loads(pickle.dumps(s)).expr is e and copy.deepcopy(s).expr is e


X1, X2, TH1 = ex.EvenCoord(1), ex.EvenCoord(2), ex.OddCoord(1)

# per node class: arguments, the node's parity, arguments of another node of
# the class, and arguments its checks reject with the error they raise
NODE_CASES = [
    (ex.EvenCoord, (1,), "even", (2,), [((0,), ParseError), ((1.0,), ParseError)]),
    (ex.OddCoord, (1,), "odd", (2,), [((0,), ParseError)]),
    (ex.Const, (F(1, 2),), "even", (F(1, 3),), []),
    (ex.Add, (X1, TH1), "mixed", (TH1, X1), []),
    (ex.Mul, (X1, TH1), "odd", (X1, X2), []),
    (ex.Neg, (TH1,), "odd", (X1,), []),
    (ex.ScalarMul, (F(2), TH1), "odd", (F(3), TH1), []),
    (ex.Apply, ("exp", X1), "even", ("sin", X1),
     [(("tan", X1), ParseError), (("exp", TH1), ParityError)]),
    (ex.IntPow, (X1, 2), "even", (X1, 3), [((X1, -1), ParseError), ((TH1, 2), ParityError)]),
]


@pytest.mark.parametrize("cls, args, parity, other, bad", NODE_CASES,
                         ids=[case[0].__name__ for case in NODE_CASES])
def test_every_node_class_is_interned_keyed_and_checked(cls, args, parity, other, bad):
    node = cls(*args)
    assert node is cls(*args) and node.parity == parity
    assert tuple(getattr(node, name) for name in cls.__slots__) == args
    for again in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
        assert again is node
    # the structural key tells the node from one of another payload or class
    key = ex.fold(node, ex._key_of)
    others = [cls(*other)] + [c(*a) for c, a, *_ in NODE_CASES if c is not cls]
    for o in others:
        assert ex.fold(o, ex._key_of) != key and o != node
    for bad_args, error in bad:
        with pytest.raises(error):
            cls(*bad_args)


def test_threads_racing_on_the_intern_table_build_equal_nodes():
    # a race on the intern table may build two equal nodes, never a wrong or
    # half-built one; the threads build the same fresh nodes in lockstep
    import threading

    U, threads, rounds = SuperDomain(1, 0), 4, 20

    def towers(out, start):
        texts = []
        for k in range(rounds):
            start.wait()
            d = section(U, f"exp(sin(x1)*cos({k + 1}/7*x1)) + x1^3")
            for _ in range(3):
                d = d_even(d, 1)
                texts.append((to_text(d.expr), eval_classical(d, (0.3,))))
        out.append(texts)

    want, got = [], []
    towers(want, threading.Barrier(1))
    start = threading.Barrier(threads, timeout=60)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=towers, args=(got, start)) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in workers)
    finally:
        sys.setswitchinterval(interval)
    assert got == want * threads


def test_walks_leave_no_reference_cycles():
    # a memo kept alive by a cycle would outlive the call until a GC pass; a
    # derivative memo kept on the nodes would be one, since the derivative of
    # exp(u) holds exp(u) itself
    import gc

    U = SuperDomain(1, 1)
    A = make_truncated(1, 1, 4, REAL)
    x = make_apoint(U, A, [A.scalar(0.5) + A.gen_even(1)], [A.gen_odd(1)])
    gc.collect()
    gc.disable()
    try:
        for k in range(20):
            s = section(U, f"x1*x1*theta1 + exp({k + 1}/7*x1)")
            eval_classical(d_even(s, 1), (0.5,))
            normalize_components(s)
            to_text(s.expr)
            eval_taylor(x, s)
            phi = make_domain_morphism(U, U, [f"x1*x1 + {k + 1}/7*sin(x1)", "theta1*exp(x1)"])
            apply_series(series_from_morphism(phi, 4), x)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dead_nodes_leave_the_intern_table():
    from superweil.superfunc import derive_expr_even

    before = len(ex._NODES)
    e = parse_expr("exp(sin(3/2*x1^2)+x1)", 1, 0)
    for _ in range(6):
        e = derive_expr_even(e, 1)
    assert len(ex._NODES) > before
    del e
    assert len(ex._NODES) == before
    # a node built again after its key's node died is interned afresh, and a
    # stale removal callback for that key leaves the new entry alone
    x = ex.EvenCoord(97)
    key = (ex.EvenCoord, 97)
    stale = ex._NODES[key]
    del x
    assert key not in ex._NODES
    x = ex.EvenCoord(97)
    ex._drop(key, stale)
    assert ex._NODES[key]() is x and ex.EvenCoord(97) is x
