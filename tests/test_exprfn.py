"""Expression functions: gate, tree building, printing, evaluation, symbolic
Jacobian."""

import inspect
import math
import sys
import time
from pathlib import Path
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from stratcalc import ExprFunction, InputError, NumericError
from stratcalc.exprfn import _build, _component_evals, _gate, _jacobian, _source

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's expression templates)


class TestParsing:
    def test_polynomial(self):
        f = ExprFunction(1, ("x1**2",))
        assert f.evaluate((3.0,)) == (9.0,)

    def test_rational_constant(self):
        f = ExprFunction(1, ("3/4*x1",))
        assert f.evaluate((4.0,)) == (3.0,)

    def test_decimal_literal_becomes_rational(self):
        f = ExprFunction(1, ("0.5*x1",))
        assert f.evaluate((3.0,)) == (1.5,)

    def test_trig_and_exp(self):
        f = ExprFunction(2, ("sin(x1)", "exp(x2)"))
        y = f.evaluate((0.0, 1.0))
        assert y[0] == 0.0
        assert abs(y[1] - math.e) < 1e-15

    def test_unknown_variable_rejected(self):
        with pytest.raises(InputError):
            ExprFunction(1, ("x2 + 1",))

    def test_disallowed_function_rejected(self):
        with pytest.raises(InputError):
            ExprFunction(1, ("tan(x1)",))
        with pytest.raises(InputError):
            ExprFunction(1, ("log(x1)",))

    def test_parse_error_rejected(self):
        with pytest.raises(InputError):
            ExprFunction(1, ("x1 +",))

    def test_irrational_constant_rejected(self):
        with pytest.raises(InputError):
            ExprFunction(1, ("pi*x1",))


class TestJacobian:
    def test_quadratic(self):
        f = ExprFunction(1, ("x1**2",))
        assert f.jacobian((3.0,)) == ((6.0,),)
        assert f.jacobian_apply((3.0,), (2.0,)) == (12.0,)

    def test_multivariate(self):
        f = ExprFunction(2, ("x1**2 + x2", "x1*x2"))
        rows = f.jacobian((2.0, 5.0))
        assert rows == ((4.0, 1.0), (5.0, 2.0))
        assert f.jacobian_apply((2.0, 5.0), (1.0, -1.0)) == (3.0, 3.0)

    def test_sine_at_zero(self):
        f = ExprFunction(1, ("sin(x1)",))
        assert f.jacobian((0.0,)) == ((1.0,),)


class TestEvaluationErrors:
    def test_division_by_zero(self):
        f = ExprFunction(1, ("1/x1",))
        with pytest.raises(NumericError):
            f.evaluate((0.0,))

    def test_complex_result(self):
        f = ExprFunction(1, ("x1**(1/2)",))
        with pytest.raises(NumericError):
            f.evaluate((-1.0,))

    def test_wrong_arity(self):
        f = ExprFunction(2, ("x1", "x2"))
        with pytest.raises(InputError):
            f.evaluate((1.0,))

    def test_component_lambdas_only_on_failure(self):
        before = _component_evals.cache_info().currsize
        f = ExprFunction(2, ("x1 - 7*x2", "5/x1"))
        assert f.evaluate((5.0, 1.0)) == (-2.0, 1.0)
        assert _component_evals.cache_info().currsize == before
        with pytest.raises(NumericError):
            f.evaluate((0.0, 1.0))
        assert _component_evals.cache_info().currsize == before + 1

    @pytest.mark.parametrize("components, xs, location, message", [
        # component 0 is infinite while component 1 divides by zero
        (("x1*x2", "1/(x1 - x2)"), (1e200, 1e200), "component 0 = 'x1*x2'",
         "non-finite value for component 0 = 'x1*x2' at (1e+200, 1e+200)"),
        # a negative base to a fractional power is complex
        (("x1", "x1**(1/3)"), (-8.0,), "component 1 = 'x1**(1/3)'",
         "non-finite value for component 1 = 'x1**(1/3)' at (-8.0,)"),
        (("x1", "x2", "1/x3"), (1.0, 2.0, 0.0), "component 2 = '1/x3'",
         "evaluation failed for component 2 = '1/x3' at (1.0, 2.0, 0.0): "
         "float division by zero"),
        (("exp(x1)",), (1000.0,), "component 0 = 'exp(x1)'",
         "evaluation failed for component 0 = 'exp(x1)' at (1000.0,): math range error"),
    ])
    def test_failure_names_the_first_failing_component(self, components, xs, location, message):
        f = ExprFunction(len(xs), components)
        with pytest.raises(NumericError) as err:
            f.evaluate(xs)
        assert (str(err.value), err.value.location) == (message, location)


class TestLazyJacobian:
    def test_built_on_first_use(self):
        before = _jacobian.cache_info().currsize
        f = ExprFunction(2, ("x1**3 + x2", "x1*x2**2"))
        assert _jacobian.cache_info().currsize == before
        assert f.jacobian((2.0, 5.0)) == ((12.0, 1.0), (25.0, 20.0))
        assert _jacobian.cache_info().currsize == before + 1


GATE_ACCEPTS = [
    "x1**2",
    " x1 + 1\n",
    "x1^2 + 1",
    "x1**(1/2)",
    "x1**-2",
    "-x1**(-3/2)",
    "3/4*x1",
    "0.5*x1",
    "1e-6*x1",
    "2**(1/2)*x1",
    "9**64*x1",
    "(x1**64)**64",
    "0xe99*x1",
    "sin(x1)*cos(x1) - exp(-x1)",
    "((-3/2) * (x1)**2)",
]

GATE_REJECTS = [
    "9**9**9*x1",
    "((9**64)**64)**64",
    "((x1*2**64)**64)**64",
    "1e999999*x1",
    "1e-999999*x1",
    "1" * 5000 + "*x1",
    "1" * 25 + "*x1",
    "x1**65",
    "x1**(1/65)",
    "x1**(1/0)",
    "x1**0.5",
    "x1**x1",
    "x1 if 1 else 0",
    "sqrt(x1)",
    "E**x1",
    "sin(x1, x1)",
    "sin(x=x1)",
    "x1.real",
    "x1[0]",
    "True*x1",
    "1j*x1",
    "lambda: x1",
    "__import__('os').system('true') or x1",
    "x2",
    "x01",
    "-" * 100 + "x1",
    "+".join(["x1"] * 200),
]


def _parses_as_sympify(source, arity):
    """The tree built from the gate's AST is sympify's, node for node."""
    xs = sympy.symbols(f"x1:{arity + 1}")
    expected = sympy.sympify(source, locals={s.name: s for s in xs}, rational=True)
    assert sympy.srepr(_build(*_gate(source, arity), xs)) == sympy.srepr(expected)


def _prints_as_lambdify(sources, arity):
    """The source compiled for the tuple, for each component and for each
    Jacobian entry is lambdify's, up to the function name."""
    xs = sympy.symbols(f"x1:{arity + 1}")
    exprs = tuple(_build(*_gate(source, arity), xs) for source in sources)
    bodies = [exprs, *exprs, *(sympy.diff(e, x) for e in exprs for x in xs)]
    for body in bodies:
        expected = inspect.getsource(sympy.lambdify(xs, body, modules="math"))
        assert _source(xs, body)[0] == expected.replace("_lambdifygenerated", "f", 1)


@pytest.mark.parametrize("source", GATE_ACCEPTS)
def test_gate_accepts(source):
    ExprFunction(1, (source,))
    _parses_as_sympify(source, 1)
    _prints_as_lambdify((source,), 1)


@pytest.mark.parametrize("source", GATE_REJECTS)
def test_gate_rejects_promptly(source):
    start = time.perf_counter()
    with pytest.raises(InputError):
        ExprFunction(1, (source,))
    assert time.perf_counter() - start < 1.0


def test_component_must_be_a_string():
    with pytest.raises(InputError):
        ExprFunction(1, (2,))


@given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_benchmark_templates_pass_the_gate(shape, constants, arity):
    source = gen.render(gen._term(Random(shape), Random(constants), arity))
    _gate(source, arity)
    _parses_as_sympify(source, arity)


@given(
    st.lists(st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)), min_size=1, max_size=4),
    st.integers(1, 4),
    st.lists(st.sampled_from(GATE_ACCEPTS), max_size=2),
)
@settings(max_examples=100, deadline=None)
def test_compiled_source_is_lambdifys(seeds, arity, accepted):
    sources = [gen.render(gen._term(Random(shape), Random(constants), arity))
               for shape, constants in seeds]
    _prints_as_lambdify((*sources, *accepted), arity)


@pytest.mark.parametrize("source, constant", [
    ("(-1)**(1/2)", "ImaginaryUnit"),
    ("x1 + (-1)**(1/2)", "ImaginaryUnit"),
    ("1/(x1-x1)", "ComplexInfinity"),
    ("0**(-1)", "ComplexInfinity"),
    ("(x1*0)**(-1)", "ComplexInfinity"),
    ("exp(1)", "Exp1"),
])
def test_built_tree_refusals_name_the_constant(source, constant):
    start = time.perf_counter()
    with pytest.raises(InputError, match=constant):
        ExprFunction(1, (source,))
    assert time.perf_counter() - start < 1.0


def test_no_second_compile_path(monkeypatch):
    """Building and evaluating never reaches parse_expr or lambdify."""
    import sympy.parsing.sympy_parser

    def refuse(*args, **kwargs):
        raise AssertionError("second compile path")

    monkeypatch.setattr(sympy, "lambdify", refuse)
    # sympy.utilities.lambdify, the attribute, is the function; this is the module
    monkeypatch.setattr(sys.modules["sympy.utilities.lambdify"], "lambdify", refuse)
    monkeypatch.setattr(sympy.parsing.sympy_parser, "parse_expr", refuse)
    # components no other test builds, so that no cache answers
    f = ExprFunction(2, ("x1*x2 - 3/7*x1**(5/3)", "1/x1 + sin(x2)"))
    assert f.evaluate((1.0, 0.0)) == (-3 / 7, 1.0)
    assert f.jacobian((1.0, 0.0)) == ((-5 / 7, 1.0), (-1.0, 1.0))
    with pytest.raises(NumericError, match="component 1"):
        f.evaluate((0.0, 0.0))
