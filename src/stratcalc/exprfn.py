"""Vector-valued functions given by small arithmetic expressions.

Components are strings over variables x1..xi in a deliberately small
language: +, -, * and / on int and decimal literals, the variables, and
one-argument sin, cos and exp; ** (or ^) with a small rational literal
exponent p or p/q (|p|, |q| <= 64). Decimal literals are converted to
exact rationals at parse time.

Every component passes three stages:

- an AST gate (:func:`_gate`) checks the text against that grammar and
  against the size bounds below, before any other code sees it, so text
  from a document is never evaluated and no literal or power can blow
  up;
- sympy parses the unchanged text as ``sympify(text, rational=True)``
  does, over a namespace built once (:func:`_parse`),
  :func:`_validate_tree` checks the parsed tree a second time, and the
  components are compiled together to one plain math-module lambda
  returning their tuple, once per function, and cached. Per-component
  lambdas are built only when an evaluation fails, to name the failing
  component. sympy is imported on the first parse, so programs that
  never build an :class:`ExprFunction` never load it;
- the symbolic Jacobian is built on the first :meth:`ExprFunction.jacobian`
  call and cached. It exists to serve as an analytic cross-check for the
  numeric limit route and is never consulted by it.
"""

from __future__ import annotations

import ast
import builtins
import math
import re
import types
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, NumericError

MAX_EXPR_CHARS = 1024  # characters of one component
MAX_EXPR_NODES = 256  # operators, calls, names and literals of one component
MAX_EXPR_DEPTH = 64  # nesting of operators and calls
MAX_LITERAL_CHARS = 24  # characters of one numeric literal
MAX_LITERAL_EXPONENT = 64  # |e| of a decimal literal such as 1e-6
MAX_POWER_TERM = 64  # |p| and |q| of a power's exponent p or p/q
MAX_CONSTANT_BITS = 4096  # size of the rationals an expression can form

_FUNCTIONS = ("sin", "cos", "exp")
_BINARY = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY = (ast.UAdd, ast.USub)
_VARIABLE = re.compile(r"x([1-9][0-9]*)")
_EXPONENT = re.compile(r"[eE][+-]?([0-9][0-9_]*)")


def decimal_exponent(literal: str) -> int:
    """|e| of the decimal exponent of a literal such as 1.5e-7; 0 if none."""
    match = _EXPONENT.search(literal)
    return int(match.group(1).replace("_", "")) if match else 0


def _gate(source: str, arity: int) -> None:
    """Refuse ``source`` unless it is in the expression language and
    within the size bounds; the checks run on the Python AST of the text
    with outer whitespace stripped and ``^`` read as ``**``, as sympy
    reads it."""
    if len(source) > MAX_EXPR_CHARS:
        raise InputError(
            f"expression of {len(source)} characters; limit is {MAX_EXPR_CHARS}"
        )
    text = source.strip().replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise InputError(f"cannot parse expression {source!r}: {exc}") from None
    nodes = 0

    def refuse(what: str):
        raise InputError(f"{what} in expression {source!r}")

    def unsigned(node):
        while isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY):
            node = node.operand
        return node

    def small_int(node) -> int | None:
        """|p| of a signed int literal p with |p| <= MAX_POWER_TERM."""
        node = unsigned(node)
        if (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and abs(node.value) <= MAX_POWER_TERM
        ):
            return abs(node.value)
        return None

    def power_term(node) -> int | None:
        """|p| of a power exponent p or p/q, None if it is neither."""
        node = unsigned(node)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            p, q = small_int(node.left), small_int(node.right)
            return p if q else None
        return small_int(node)

    def visit(node, depth: int) -> tuple[bool, bool, int]:
        """(holds a variable, holds a power, size) of the subtree at
        ``node``. The size bounds the bits of any rational sympy can
        form from the subtree: a literal counts its bits, a variable 1,
        an operator the sum of its operands plus 1 and a power the size
        of its base times |p|."""
        nonlocal nodes
        nodes += 1
        if nodes > MAX_EXPR_NODES:
            refuse(f"more than {MAX_EXPR_NODES} nodes")
        if depth > MAX_EXPR_DEPTH:
            refuse(f"nesting deeper than {MAX_EXPR_DEPTH}")
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINARY):
            var, power, size = visit(node.left, depth + 1)
            if isinstance(node.op, ast.Pow):
                p = power_term(node.right)
                if p is None:
                    refuse(
                        "power exponent that is not a rational literal p or p/q "
                        f"with |p|, |q| <= {MAX_POWER_TERM}"
                    )
                if power and not var:
                    refuse("power of a constant power")
                power, size = True, size * max(p, 1)
            else:
                right_var, right_power, right_size = visit(node.right, depth + 1)
                var, power = var or right_var, power or right_power
                size += right_size + 1
            if size > MAX_CONSTANT_BITS:
                refuse(f"constants beyond {MAX_CONSTANT_BITS} bits")
            return var, power, size
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY):
            return visit(node.operand, depth + 1)
        if isinstance(node, ast.Call):
            if not (
                isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS
                and len(node.args) == 1
                and not node.keywords
                and not isinstance(node.args[0], ast.Starred)
            ):
                refuse("disallowed call")
            return visit(node.args[0], depth + 1)
        if isinstance(node, ast.Name):
            match = _VARIABLE.fullmatch(node.id)
            if match is None or int(match.group(1)) > arity:
                refuse(f"unknown variable {node.id}")
            return True, False, 1
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            literal = ast.get_source_segment(text, node) or ""
            if len(literal) > MAX_LITERAL_CHARS:
                refuse(f"numeric literal longer than {MAX_LITERAL_CHARS} characters")
            if type(node.value) is int:
                value = Fraction(node.value)
            elif decimal_exponent(literal) > MAX_LITERAL_EXPONENT:
                refuse(f"decimal exponent beyond {MAX_LITERAL_EXPONENT}")
            else:
                value = Fraction(literal)
            return False, False, value.numerator.bit_length() + value.denominator.bit_length()
        refuse(f"disallowed syntax {type(node).__name__}")

    visit(tree.body, 1)


def _validate_tree(expr, allowed_symbols, source: str):
    import sympy

    for node in sympy.preorder_traversal(expr):
        if isinstance(node, sympy.Symbol):
            if node not in allowed_symbols:
                raise InputError(
                    f"unknown variable {node} in expression {source!r}"
                )
        elif node.is_Number:
            if not isinstance(node, sympy.Rational):
                raise InputError(
                    f"non-rational constant {node} in expression {source!r}"
                )
        elif isinstance(node, (sympy.Add, sympy.Mul, sympy.Pow)):
            continue
        elif isinstance(node, (sympy.sin, sympy.cos, sympy.exp)):
            continue
        else:
            raise InputError(
                f"disallowed operation {type(node).__name__} in "
                f"expression {source!r}"
            )


@lru_cache(maxsize=None)
def _parse_namespace() -> dict:
    """The namespace ``parse_expr`` builds when it is given none: all of
    ``from sympy import *``, the builtin functions, and Max and Min as
    max and min. Built on the first parse instead of on every parse."""
    import sympy

    namespace: dict = {}
    exec("from sympy import *", namespace)
    namespace.update(
        (name, obj)
        for name, obj in vars(builtins).items()
        if isinstance(obj, types.BuiltinFunctionType)
    )
    namespace.update(max=sympy.Max, min=sympy.Min)
    return namespace


def _parse(source: str, symbols):
    """``sympify(source, rational=True)`` over :func:`_parse_namespace`:
    the same transformations, newlines dropped, and tokenizer and syntax
    errors raised as ``SympifyError``."""
    import sympy
    from sympy.parsing.sympy_parser import (
        TokenError,
        convert_xor,
        parse_expr,
        rationalize,
        standard_transformations,
    )

    text = source.replace("\n", "")
    try:
        return parse_expr(
            text,
            local_dict={s.name: s for s in symbols},
            global_dict=_parse_namespace(),
            transformations=standard_transformations + (rationalize, convert_xor),
        )
    except (TokenError, SyntaxError) as exc:
        raise sympy.SympifyError(f"could not parse {text!r}", exc) from None


@lru_cache(maxsize=None)
def _compile(components: tuple[str, ...], arity: int):
    """Gated, parsed and validated expressions with one lambda that
    returns the tuple of their values."""
    for source in components:
        _gate(source, arity)
    import sympy

    xs = sympy.symbols(f"x1:{arity + 1}")
    allowed = set(xs)
    exprs = []
    for source in components:
        try:
            expr = _parse(source, xs)
        except (sympy.SympifyError, SyntaxError, TypeError) as exc:
            raise InputError(f"cannot parse expression {source!r}: {exc}") from None
        _validate_tree(expr, allowed, source)
        exprs.append(expr)
    return tuple(exprs), sympy.lambdify(xs, tuple(exprs), modules="math")


@lru_cache(maxsize=None)
def _component_evals(components: tuple[str, ...], arity: int):
    """One lambda per component, built the first time an evaluation has
    to name the component that failed."""
    import sympy

    exprs, _ = _compile(components, arity)
    xs = sympy.symbols(f"x1:{arity + 1}")
    return tuple(sympy.lambdify(xs, e, modules="math") for e in exprs)


@lru_cache(maxsize=None)
def _jacobian(components: tuple[str, ...], arity: int):
    """Lambdas of the partial derivatives, one row per component."""
    import sympy

    exprs, _ = _compile(components, arity)
    xs = sympy.symbols(f"x1:{arity + 1}")
    return tuple(
        tuple(sympy.lambdify(xs, sympy.diff(e, x), modules="math") for x in xs)
        for e in exprs
    )


@dataclass(frozen=True)
class ExprFunction:
    """A function R^arity -> R^(number of components)."""

    arity: int
    components: tuple[str, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise InputError("arity must be at least 1")
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise InputError("at least one component expression required")
        if not all(isinstance(c, str) for c in self.components):
            raise InputError("component expressions must be strings")
        _compile(self.components, self.arity)  # parse and validate eagerly

    def _call(self, fn, xs, what: str):
        try:
            value = fn(*xs)
        except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
            raise NumericError(
                f"evaluation failed for {what} at {tuple(xs)}: {exc}",
                location=what,
            ) from None
        if isinstance(value, complex) or not math.isfinite(value):
            raise NumericError(
                f"non-finite value for {what} at {tuple(xs)}",
                location=what,
            )
        return float(value)

    def evaluate(self, xs) -> tuple[float, ...]:
        xs = tuple(float(t) for t in xs)
        if len(xs) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(xs)}")
        _, values_at = _compile(self.components, self.arity)
        try:
            values = values_at(*xs)
            if not any(isinstance(t, complex) or not math.isfinite(t) for t in values):
                return tuple(float(t) for t in values)
        except (ValueError, ZeroDivisionError, OverflowError, TypeError):
            pass
        # Some component failed: evaluate one at a time to name the first.
        return tuple(
            self._call(fn, xs, f"component {i} = {src!r}")
            for i, (fn, src) in enumerate(
                zip(_component_evals(self.components, self.arity), self.components)
            )
        )

    def jacobian(self, xs) -> tuple[tuple[float, ...], ...]:
        """Symbolic Jacobian evaluated at a point; rows follow components."""
        xs = tuple(float(t) for t in xs)
        if len(xs) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(xs)}")
        jac = _jacobian(self.components, self.arity)
        return tuple(
            tuple(
                self._call(fn, xs, f"d(component {i})/dx{j + 1}")
                for j, fn in enumerate(row)
            )
            for i, row in enumerate(jac)
        )

    def jacobian_apply(self, xs, v) -> tuple[float, ...]:
        v = tuple(float(t) for t in v)
        if len(v) != self.arity:
            raise InputError(f"expected {self.arity} direction entries, got {len(v)}")
        rows = self.jacobian(xs)
        return tuple(sum(r * vi for r, vi in zip(row, v)) for row in rows)
