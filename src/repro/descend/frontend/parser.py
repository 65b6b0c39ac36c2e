"""A recursive-descent parser for the Descend surface syntax.

The accepted grammar covers the language as used in the paper's listings:
function definitions with execution-resource annotations, ``sched`` /
``split`` / ``sync``, views with ``::<...>`` arguments, selects
``p[[exec]]``, references ``&uniq mem T``, nested array types, kernel
launches ``f::<<<X<1>, X<n>>>>(...)``, and ``for`` loops over nat ranges.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from typing import Callable, List, Optional, Tuple

from repro.descend.ast import terms as T
from repro.descend.ast.dims import Dim, DimName, dim_from_spec, parse_dim_name
from repro.descend.ast.exec_level import (
    CpuThreadLevel,
    ExecSpec,
    GpuBlockLevel,
    GpuGridLevel,
    GpuThreadLevel,
)
from repro.descend.ast.memory import memory_from_name
from repro.descend.ast.places import PDeref, PIdx, PProj, PSelect, PVar, PView, PlaceExpr
from repro.descend.ast.types import (
    ArrayType,
    ArrayViewType,
    AtType,
    BOOL,
    DataType,
    F64,
    GenericParam,
    I32,
    Kind,
    RefType,
    ScalarType,
    TupleType,
    TyVar,
    UNIT,
    is_scalar_name,
    scalar_from_name,
)
from repro.descend.ast.views import ViewRef
from repro.descend.diagnostics import Diagnostic
from repro.descend.frontend.lexer import Lexer
from repro.descend.frontend.tokens import Token, TokenKind
from repro.descend.nat import Nat, NatBinOp, NatConst, NatVar
from repro.descend.source import NO_SPAN, SourceFile, Span
from repro.errors import DescendSyntaxError

_MEMORY_ROOTS = ("cpu", "gpu")
_KINDS = {"nat": Kind.NAT, "mem": Kind.MEMORY, "dty": Kind.DATA_TYPE}

#: Deepest nesting of expressions, types, nats, views and blocks the parser
#: accepts.  Far more than any real program needs, and low enough that the
#: recursive descent, and the passes that recurse over the nested terms it
#: builds, stay well inside Python's recursion limit.
MAX_NESTING = 32

#: Deepest syntax tree a function may build.  Operator chains (`a * b * c`,
#: `n + 1 + 1` in a nat, `x.fst.fst`, `x[0][0]`) parse in a loop without
#: nesting, but each operator adds a level to the tree that the type checker,
#: the lowerings and the interpreters then recurse over.  Figure 8 and the
#: fuzz generator build trees of depth 25 at most; a chain of 350 operators
#: already exhausts Python's default recursion limit.
MAX_TREE_DEPTH = 128


#: Field annotations of syntax nodes that never hold a child node.
_LEAF_FIELD_TYPES = frozenset({"str", "int", "float", "bool", "Span", "DimName"})


@functools.lru_cache(maxsize=None)
def _children_getter(cls: type) -> Optional[Callable[[object], tuple]]:
    """For a syntax node class, a function returning the values of its
    fields that can hold child nodes, as a tuple; ``None`` for leaves."""
    if not dataclasses.is_dataclass(cls):
        return None
    names = [field.name for field in dataclasses.fields(cls) if field.type not in _LEAF_FIELD_TYPES]
    if not names:
        return None
    get = operator.attrgetter(*names)
    return get if len(names) > 1 else lambda node: (get(node),)


def _tree_too_deep(root: object) -> Optional[Span]:
    """Where ``root``'s syntax tree first passes :data:`MAX_TREE_DEPTH`, or
    ``None``.  The span is that of a node on the first level too deep (or
    of ``root`` if none there has one).

    Walks the tree level by level, without recursion: the tree being
    measured is exactly the kind that would exhaust Python's recursion limit.
    """
    level = [root]
    for _ in range(MAX_TREE_DEPTH):
        deeper = []
        for node in level:  # grows while iterating: tuples are flattened into it
            if type(node) is tuple:
                level.extend(node)
                continue
            children = _children_getter(type(node))
            if children is not None:
                deeper.extend(children(node))
        if not deeper:
            return None
        level = deeper
    spans = (getattr(node, "span", None) for node in level)
    return next((span for span in spans if span is not None), getattr(root, "span", NO_SPAN))


def _nesting(method):
    """Counts one nesting level while ``method`` runs; every recursive cycle
    of the grammar passes through one method wrapped with this."""

    @functools.wraps(method)
    def nested(self, *args):
        if self.depth >= MAX_NESTING:
            token = self.peek()
            raise self.error(
                f"nesting deeper than {MAX_NESTING} levels at `{token.text or token.kind}`",
                token.span,
            )
        self.depth += 1
        try:
            return method(self, *args)
        finally:
            self.depth -= 1

    return nested


class Parser:
    """Parses a token stream into a Descend program."""

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.tokens = Lexer(source).tokenize()
        self.pos = 0
        self.depth = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def at(self, kind: TokenKind, offset: int = 0) -> bool:
        return self.peek(offset).kind == kind

    def at_keyword(self, word: str, offset: int = 0) -> bool:
        return self.peek(offset).is_keyword(word)

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != TokenKind.EOF:
            self.pos += 1
        return token

    def expect(self, kind: TokenKind, context: str = "") -> Token:
        token = self.peek()
        if token.kind != kind:
            hint = f" while parsing {context}" if context else ""
            raise self.error(f"expected `{kind}`, found `{token.text or token.kind}`{hint}", token.span)
        return self.advance()

    def expect_keyword(self, word: str, context: str = "") -> Token:
        token = self.peek()
        if not token.is_keyword(word):
            hint = f" while parsing {context}" if context else ""
            raise self.error(f"expected `{word}`, found `{token.text or token.kind}`{hint}", token.span)
        return self.advance()

    def error(self, message: str, span: Span) -> DescendSyntaxError:
        return DescendSyntaxError(message, Diagnostic.error("E0000", message, span))

    # ------------------------------------------------------------------
    # program structure
    # ------------------------------------------------------------------

    def parse_program(self) -> T.Program:
        fun_defs: List[T.FunDef] = []
        while not self.at(TokenKind.EOF):
            if self.at_keyword("fn"):
                fun_defs.append(self.parse_fun_def())
            else:
                raise self.error(
                    f"expected `fn`, found `{self.peek().text}`", self.peek().span
                )
        return T.Program(tuple(fun_defs))

    def parse_fun_def(self) -> T.FunDef:
        start = self.expect_keyword("fn").span
        name = self.expect(TokenKind.IDENT, "function name").text
        generics = self._parse_generics()
        self.expect(TokenKind.LPAREN, "parameter list")
        params: List[T.FunParam] = []
        while not self.at(TokenKind.RPAREN):
            param_name = self.expect(TokenKind.IDENT, "parameter").text
            self.expect(TokenKind.COLON, "parameter type")
            param_ty = self.parse_type()
            params.append(T.FunParam(param_name, param_ty))
            if not self.at(TokenKind.RPAREN):
                self.expect(TokenKind.COMMA, "parameter list")
        self.expect(TokenKind.RPAREN)
        self.expect(TokenKind.MINUS, "execution annotation")
        self.expect(TokenKind.LBRACKET, "execution annotation")
        exec_name = self.expect(TokenKind.IDENT, "execution resource name").text
        self.expect(TokenKind.COLON, "execution annotation")
        level = self._parse_exec_level()
        self.expect(TokenKind.RBRACKET, "execution annotation")
        self.expect(TokenKind.ARROW, "return type")
        ret = self.parse_type()
        body = self.parse_block()
        fun_def = T.FunDef(
            name=name,
            generics=tuple(generics),
            params=tuple(params),
            exec_spec=ExecSpec(exec_name, level),
            ret=ret,
            body=body,
            span=start,
        )
        too_deep = _tree_too_deep(fun_def)
        if too_deep is not None:
            raise self.error(
                f"syntax tree deeper than {MAX_TREE_DEPTH} levels; "
                "split long operator chains with `let` bindings",
                too_deep,
            )
        return fun_def

    def _parse_generics(self) -> List[GenericParam]:
        generics: List[GenericParam] = []
        if not self.at(TokenKind.LANGLE):
            return generics
        self.advance()
        while not self.at(TokenKind.RANGLE):
            name = self.expect(TokenKind.IDENT, "generic parameter").text
            self.expect(TokenKind.COLON, "generic parameter kind")
            kind_name = self.expect(TokenKind.IDENT, "generic parameter kind").text
            if kind_name not in _KINDS:
                raise self.error(f"unknown kind `{kind_name}`", self.peek().span)
            generics.append(GenericParam(name, _KINDS[kind_name]))
            if not self.at(TokenKind.RANGLE):
                self.expect(TokenKind.COMMA, "generic parameters")
        self.expect(TokenKind.RANGLE)
        return generics

    def _parse_dotted_name(self) -> str:
        first = self.expect(TokenKind.IDENT).text
        if self.at(TokenKind.DOT) and self.peek(1).kind == TokenKind.IDENT:
            self.advance()
            second = self.expect(TokenKind.IDENT).text
            return f"{first}.{second}"
        return first

    def _parse_exec_level(self):
        name = self._parse_dotted_name().lower()
        if name == "cpu.thread":
            return CpuThreadLevel()
        if name == "gpu.thread":
            return GpuThreadLevel()
        if name == "gpu.grid":
            self.expect(TokenKind.LANGLE, "grid shape")
            blocks = self._parse_dim()
            self.expect(TokenKind.COMMA, "grid shape")
            threads = self._parse_dim()
            self.expect(TokenKind.RANGLE, "grid shape")
            return GpuGridLevel(blocks, threads)
        if name == "gpu.block":
            self.expect(TokenKind.LANGLE, "block shape")
            threads = self._parse_dim()
            self.expect(TokenKind.RANGLE, "block shape")
            return GpuBlockLevel(threads)
        raise self.error(f"unknown execution level `{name}`", self.peek().span)

    def _parse_dim(self) -> Dim:
        spec = self.expect(TokenKind.IDENT, "dimension specification").text
        self.expect(TokenKind.LANGLE, "dimension sizes")
        sizes: List[Nat] = [self.parse_nat()]
        while self.at(TokenKind.COMMA):
            self.advance()
            sizes.append(self.parse_nat())
        self.expect(TokenKind.RANGLE, "dimension sizes")
        return dim_from_spec(spec, sizes)

    # ------------------------------------------------------------------
    # types and nats
    # ------------------------------------------------------------------

    @_nesting
    def parse_type(self) -> DataType:
        ty = self._parse_type_prefix()
        if self.at(TokenKind.AT):
            self.advance()
            mem = memory_from_name(self._parse_dotted_name())
            return AtType(ty, mem)
        return ty

    def _parse_type_prefix(self) -> DataType:
        token = self.peek()
        if token.kind == TokenKind.AMP:
            self.advance()
            uniq = False
            if self.at_keyword("uniq"):
                self.advance()
                uniq = True
            mem = memory_from_name(self._parse_dotted_name())
            referent = self.parse_type()
            return RefType(uniq, mem, referent)
        if token.kind == TokenKind.LBRACKET:
            return self._parse_array_type()
        if token.kind == TokenKind.LPAREN:
            self.advance()
            if self.at(TokenKind.RPAREN):
                self.advance()
                return UNIT
            elems = [self.parse_type()]
            while self.at(TokenKind.COMMA):
                self.advance()
                elems.append(self.parse_type())
            self.expect(TokenKind.RPAREN, "tuple type")
            if len(elems) == 1:
                return elems[0]
            return TupleType(tuple(elems))
        if token.kind == TokenKind.IDENT:
            name = self.advance().text
            if is_scalar_name(name):
                return scalar_from_name(name)
            return TyVar(name)
        raise self.error(f"expected a type, found `{token.text}`", token.span)

    def _parse_array_type(self) -> DataType:
        self.expect(TokenKind.LBRACKET)
        inner = self.parse_type()
        if self.at(TokenKind.SEMI):
            self.advance()
            size = self.parse_nat()
            self.expect(TokenKind.RBRACKET, "array type")
            return ArrayType(inner, size)
        if self.at(TokenKind.RBRACKET):
            # `[[T; n]]`: view type written as a doubly bracketed array
            self.advance()
            if isinstance(inner, ArrayType):
                return ArrayViewType(inner.elem, inner.size)
            if isinstance(inner, ArrayViewType):
                return inner
            raise self.error("`[[...]]` must contain an array type", self.peek().span)
        raise self.error("expected `;` or `]` in array type", self.peek().span)

    def parse_nat(self) -> Nat:
        return self._parse_nat_additive()

    def _parse_nat_additive(self) -> Nat:
        left = self._parse_nat_multiplicative()
        while self.at(TokenKind.PLUS) or self.at(TokenKind.MINUS):
            op = self.advance().text
            right = self._parse_nat_multiplicative()
            left = NatBinOp(op, left, right)
        return left

    def _parse_nat_multiplicative(self) -> Nat:
        left = self._parse_nat_power()
        while self.at(TokenKind.STAR) or self.at(TokenKind.SLASH) or self.at(TokenKind.PERCENT):
            op = self.advance().text
            right = self._parse_nat_power()
            left = NatBinOp(op, left, right)
        return left

    @_nesting
    def _parse_nat_power(self) -> Nat:
        left = self._parse_nat_atom()
        if self.at(TokenKind.CARET):
            self.advance()
            right = self._parse_nat_power()
            return NatBinOp("^", left, right)
        return left

    def _parse_nat_atom(self) -> Nat:
        token = self.peek()
        if token.kind == TokenKind.INT:
            self.advance()
            return NatConst(int(token.text))
        if token.kind == TokenKind.IDENT:
            self.advance()
            return NatVar(token.text)
        if token.kind == TokenKind.LPAREN:
            self.advance()
            nat = self.parse_nat()
            self.expect(TokenKind.RPAREN, "nat expression")
            return nat
        raise self.error(f"expected a natural number, found `{token.text}`", token.span)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    @_nesting
    def parse_block(self) -> T.Block:
        start = self.expect(TokenKind.LBRACE, "block").span
        stmts: List[T.Term] = []
        while not self.at(TokenKind.RBRACE):
            stmts.append(self.parse_stmt())
            while self.at(TokenKind.SEMI):
                self.advance()
        self.expect(TokenKind.RBRACE, "block")
        return T.Block(tuple(stmts), span=start)

    def parse_stmt(self) -> T.Term:
        token = self.peek()
        if token.is_keyword("let"):
            return self._parse_let()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("sched"):
            return self._parse_sched()
        if token.is_keyword("split"):
            return self._parse_split()
        if token.is_keyword("sync"):
            span = self.advance().span
            return T.Sync(span=span)
        if token.kind == TokenKind.LBRACE:
            return self.parse_block()
        expr = self.parse_expr()
        if self.at(TokenKind.EQ):
            eq = self.advance()
            if not isinstance(expr, T.PlaceTerm):
                raise self.error("left-hand side of assignment must be a place expression", eq.span)
            value = self.parse_expr()
            return T.Assign(expr.place, value, span=token.span)
        return expr

    def _parse_let(self) -> T.Term:
        start = self.expect_keyword("let").span
        name = self.expect(TokenKind.IDENT, "let binding").text
        ty: Optional[DataType] = None
        if self.at(TokenKind.COLON):
            self.advance()
            ty = self.parse_type()
        self.expect(TokenKind.EQ, "let binding")
        init = self.parse_expr()
        return T.LetTerm(name, ty, init, span=start)

    def _parse_for(self) -> T.Term:
        start = self.expect_keyword("for").span
        variable = self.expect(TokenKind.IDENT, "loop variable").text
        self.expect_keyword("in", "for loop")
        if self.at(TokenKind.LBRACKET):
            self.advance()
            lo = self.parse_nat()
            self.expect(TokenKind.DOTDOT, "nat range")
            hi = self.parse_nat()
            self.expect(TokenKind.RBRACKET, "nat range")
            body = self.parse_block()
            return T.ForNat(variable, lo, hi, body, span=start)
        collection = self.parse_expr()
        body = self.parse_block()
        return T.ForEach(variable, collection, body, span=start)

    def _parse_if(self) -> T.Term:
        start = self.expect_keyword("if").span
        cond = self.parse_expr()
        then = self.parse_block()
        otherwise = None
        if self.at_keyword("else"):
            self.advance()
            otherwise = self.parse_block()
        return T.IfTerm(cond, then, otherwise, span=start)

    def _parse_sched(self) -> T.Term:
        start = self.expect_keyword("sched").span
        self.expect(TokenKind.LPAREN, "sched dimensions")
        dims: List[DimName] = [parse_dim_name(self.expect(TokenKind.IDENT).text)]
        while self.at(TokenKind.COMMA):
            self.advance()
            dims.append(parse_dim_name(self.expect(TokenKind.IDENT).text))
        self.expect(TokenKind.RPAREN, "sched dimensions")
        binder = self.expect(TokenKind.IDENT, "sched binder").text
        self.expect_keyword("in", "sched")
        exec_name = self.expect(TokenKind.IDENT, "sched execution resource").text
        body = self.parse_block()
        return T.Sched(tuple(dims), binder, exec_name, body, span=start)

    def _parse_split(self) -> T.Term:
        start = self.expect_keyword("split").span
        self.expect(TokenKind.LPAREN, "split dimension")
        dim = parse_dim_name(self.expect(TokenKind.IDENT).text)
        self.expect(TokenKind.RPAREN, "split dimension")
        exec_name = self.expect(TokenKind.IDENT, "split execution resource").text
        self.expect_keyword("at", "split position")
        pos = self.parse_nat()
        self.expect(TokenKind.LBRACE, "split branches")
        first_binder = self.expect(TokenKind.IDENT, "split branch").text
        self.expect(TokenKind.FATARROW, "split branch")
        first_body = self.parse_block()
        self.expect(TokenKind.COMMA, "split branches")
        second_binder = self.expect(TokenKind.IDENT, "split branch").text
        self.expect(TokenKind.FATARROW, "split branch")
        second_body = self.parse_block()
        if self.at(TokenKind.COMMA):
            self.advance()
        self.expect(TokenKind.RBRACE, "split branches")
        return T.SplitExec(
            dim, exec_name, pos, first_binder, first_body, second_binder, second_body, span=start
        )

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    @_nesting
    def parse_expr(self) -> T.Term:
        return self._parse_or()

    def _parse_or(self) -> T.Term:
        left = self._parse_and()
        while self.at(TokenKind.PIPEPIPE):
            span = self.advance().span
            left = T.BinaryOp("||", left, self._parse_and(), span=span)
        return left

    def _parse_and(self) -> T.Term:
        left = self._parse_comparison()
        while self.at(TokenKind.AMPAMP):
            span = self.advance().span
            left = T.BinaryOp("&&", left, self._parse_comparison(), span=span)
        return left

    _COMPARISONS = {
        TokenKind.LANGLE: "<",
        TokenKind.RANGLE: ">",
        TokenKind.LEQ: "<=",
        TokenKind.GEQ: ">=",
        TokenKind.EQEQ: "==",
        TokenKind.NEQ: "!=",
    }

    def _parse_comparison(self) -> T.Term:
        left = self._parse_additive()
        if self.peek().kind in self._COMPARISONS:
            op = self._COMPARISONS[self.peek().kind]
            span = self.advance().span
            return T.BinaryOp(op, left, self._parse_additive(), span=span)
        return left

    def _parse_additive(self) -> T.Term:
        left = self._parse_multiplicative()
        while self.at(TokenKind.PLUS) or self.at(TokenKind.MINUS):
            op = self.advance()
            left = T.BinaryOp(op.text, left, self._parse_multiplicative(), span=op.span)
        return left

    def _parse_multiplicative(self) -> T.Term:
        left = self._parse_unary()
        while self.at(TokenKind.STAR) or self.at(TokenKind.SLASH) or self.at(TokenKind.PERCENT):
            op = self.advance()
            left = T.BinaryOp(op.text, left, self._parse_unary(), span=op.span)
        return left

    _PREFIX_OPERATORS = (TokenKind.MINUS, TokenKind.BANG, TokenKind.AMP, TokenKind.STAR)

    def _parse_unary(self) -> T.Term:
        token = self.peek()
        if token.kind in self._PREFIX_OPERATORS:
            return self._parse_prefix_operator(token)
        return self._parse_postfix()

    @_nesting
    def _parse_prefix_operator(self, token: Token) -> T.Term:
        if token.kind == TokenKind.MINUS:
            self.advance()
            return T.UnaryOp("-", self._parse_unary(), span=token.span)
        if token.kind == TokenKind.BANG:
            self.advance()
            return T.UnaryOp("!", self._parse_unary(), span=token.span)
        if token.kind == TokenKind.AMP:
            self.advance()
            uniq = False
            if self.at_keyword("uniq"):
                self.advance()
                uniq = True
            place = self._expect_place(self._parse_unary())
            return T.Borrow(uniq, place, span=token.span)
        # `*`: dereference
        self.advance()
        inner = self._parse_unary()
        place = self._expect_place(inner)
        deref = PDeref(place, span=token.span)
        return T.PlaceTerm(self._parse_place_suffixes(deref), span=token.span)

    def _expect_place(self, term: T.Term) -> PlaceExpr:
        if isinstance(term, T.PlaceTerm):
            return term.place
        raise self.error("expected a place expression", self.peek().span)

    def _parse_postfix(self) -> T.Term:
        token = self.peek()
        if token.kind == TokenKind.INT:
            self.advance()
            return T.Lit(int(token.text), I32, span=token.span)
        if token.kind == TokenKind.FLOAT:
            self.advance()
            return T.Lit(float(token.text), F64, span=token.span)
        if token.is_keyword("true"):
            self.advance()
            return T.Lit(True, BOOL, span=token.span)
        if token.is_keyword("false"):
            self.advance()
            return T.Lit(False, BOOL, span=token.span)
        if token.kind == TokenKind.LPAREN:
            self.advance()
            expr = self.parse_expr()
            self.expect(TokenKind.RPAREN, "parenthesised expression")
            return expr
        if token.is_keyword("alloc"):
            return self._parse_alloc()
        if token.kind == TokenKind.IDENT:
            return self._parse_name_expression()
        raise self.error(f"unexpected token `{token.text}` in expression", token.span)

    def _parse_alloc(self) -> T.Term:
        start = self.expect_keyword("alloc").span
        self.expect(TokenKind.COLONCOLON, "alloc")
        self.expect(TokenKind.LANGLE, "alloc")
        mem = memory_from_name(self._parse_dotted_name())
        self.expect(TokenKind.COMMA, "alloc")
        ty = self.parse_type()
        self.expect(TokenKind.RANGLE, "alloc")
        self.expect(TokenKind.LPAREN, "alloc")
        self.expect(TokenKind.RPAREN, "alloc")
        return T.Alloc(mem, ty, span=start)

    def _parse_name_expression(self) -> T.Term:
        start = self.peek().span
        name = self.expect(TokenKind.IDENT).text

        # multi-segment function names such as `CpuHeap::new`
        while self.at(TokenKind.COLONCOLON) and self.peek(1).kind == TokenKind.IDENT:
            self.advance()
            name += "::" + self.expect(TokenKind.IDENT).text

        nat_args: Tuple[Nat, ...] = ()
        mem_args: tuple = ()
        ty_args: tuple = ()
        if self.at(TokenKind.COLONCOLON):
            # `::<...>` generic arguments or `::<<<...>>>` launch
            if (
                self.peek(1).kind == TokenKind.LANGLE
                and self.peek(2).kind == TokenKind.LANGLE
                and self.peek(3).kind == TokenKind.LANGLE
            ):
                self.advance()
                return self._parse_launch(name, nat_args, start)
            self.advance()
            nat_args, mem_args, ty_args = self._parse_generic_args()
            if self.at(TokenKind.LANGLE) and self.peek(1).kind == TokenKind.LANGLE and self.peek(2).kind == TokenKind.LANGLE:
                return self._parse_launch(name, nat_args, start)

        if self.at(TokenKind.LPAREN):
            self.advance()
            args: List[T.Term] = []
            while not self.at(TokenKind.RPAREN):
                args.append(self.parse_expr())
                if not self.at(TokenKind.RPAREN):
                    self.expect(TokenKind.COMMA, "call arguments")
            self.expect(TokenKind.RPAREN, "call arguments")
            return T.FnApp(name, nat_args, mem_args, ty_args, tuple(args), span=start)

        if nat_args or mem_args or ty_args:
            raise self.error("generic arguments must be followed by a call", start)

        place = self._parse_place_suffixes(PVar(name, span=start))
        return T.PlaceTerm(place, span=start)

    def _parse_generic_args(self) -> Tuple[Tuple[Nat, ...], tuple, tuple]:
        self.expect(TokenKind.LANGLE, "generic arguments")
        nat_args: List[Nat] = []
        mem_args: List = []
        ty_args: List = []
        while not self.at(TokenKind.RANGLE):
            token = self.peek()
            if token.kind == TokenKind.IDENT and token.text in _MEMORY_ROOTS and self.peek(1).kind == TokenKind.DOT:
                mem_args.append(memory_from_name(self._parse_dotted_name()))
            elif token.kind in (TokenKind.LBRACKET, TokenKind.AMP) or (
                token.kind == TokenKind.IDENT and is_scalar_name(token.text)
            ):
                ty_args.append(self.parse_type())
            else:
                nat_args.append(self.parse_nat())
            if not self.at(TokenKind.RANGLE):
                self.expect(TokenKind.COMMA, "generic arguments")
        self.expect(TokenKind.RANGLE, "generic arguments")
        return tuple(nat_args), tuple(mem_args), tuple(ty_args)

    def _parse_launch(self, name: str, nat_args: Tuple[Nat, ...], start: Span) -> T.Term:
        for _ in range(3):
            self.expect(TokenKind.LANGLE, "kernel launch")
        grid_dim = self._parse_dim()
        self.expect(TokenKind.COMMA, "kernel launch")
        block_dim = self._parse_dim()
        for _ in range(3):
            self.expect(TokenKind.RANGLE, "kernel launch")
        self.expect(TokenKind.LPAREN, "kernel launch arguments")
        args: List[T.Term] = []
        while not self.at(TokenKind.RPAREN):
            args.append(self.parse_expr())
            if not self.at(TokenKind.RPAREN):
                self.expect(TokenKind.COMMA, "kernel launch arguments")
        self.expect(TokenKind.RPAREN, "kernel launch arguments")
        return T.KernelLaunch(name, grid_dim, block_dim, nat_args, tuple(args), span=start)

    # -- place suffixes -----------------------------------------------------------
    def _parse_place_suffixes(self, place: PlaceExpr) -> PlaceExpr:
        while True:
            if self.at(TokenKind.DOT):
                place = self._parse_dot_suffix(place)
                continue
            if self.at(TokenKind.LBRACKET):
                if self.peek(1).kind == TokenKind.LBRACKET:
                    self.advance()
                    self.advance()
                    exec_var = self.expect(TokenKind.IDENT, "select").text
                    self.expect(TokenKind.RBRACKET, "select")
                    self.expect(TokenKind.RBRACKET, "select")
                    place = PSelect(place, exec_var)
                    continue
                self.advance()
                index = self.parse_nat()
                self.expect(TokenKind.RBRACKET, "index")
                place = PIdx(place, index)
                continue
            return place

    def _parse_dot_suffix(self, place: PlaceExpr) -> PlaceExpr:
        self.expect(TokenKind.DOT)
        name = self.expect(TokenKind.IDENT, "view or projection").text
        if name == "fst":
            return PProj(place, 0)
        if name == "snd":
            return PProj(place, 1)
        nat_args: List[Nat] = []
        view_args: List[ViewRef] = []
        if self.at(TokenKind.COLONCOLON):
            self.advance()
            self.expect(TokenKind.LANGLE, "view arguments")
            while not self.at(TokenKind.RANGLE):
                nat_args.append(self.parse_nat())
                if not self.at(TokenKind.RANGLE):
                    self.expect(TokenKind.COMMA, "view arguments")
            self.expect(TokenKind.RANGLE, "view arguments")
        if self.at(TokenKind.LPAREN):
            self.advance()
            while not self.at(TokenKind.RPAREN):
                view_args.append(self._parse_view_ref())
                if not self.at(TokenKind.RPAREN):
                    self.expect(TokenKind.COMMA, "view arguments")
            self.expect(TokenKind.RPAREN, "view arguments")
        return PView(place, ViewRef(name, tuple(nat_args), tuple(view_args)))

    @_nesting
    def _parse_view_ref(self) -> ViewRef:
        name = self.expect(TokenKind.IDENT, "view").text
        nat_args: List[Nat] = []
        view_args: List[ViewRef] = []
        if self.at(TokenKind.COLONCOLON):
            self.advance()
            self.expect(TokenKind.LANGLE, "view arguments")
            while not self.at(TokenKind.RANGLE):
                nat_args.append(self.parse_nat())
                if not self.at(TokenKind.RANGLE):
                    self.expect(TokenKind.COMMA, "view arguments")
            self.expect(TokenKind.RANGLE, "view arguments")
        if self.at(TokenKind.LPAREN):
            self.advance()
            while not self.at(TokenKind.RPAREN):
                view_args.append(self._parse_view_ref())
                if not self.at(TokenKind.RPAREN):
                    self.expect(TokenKind.COMMA, "view arguments")
            self.expect(TokenKind.RPAREN, "view arguments")
        return ViewRef(name, tuple(nat_args), tuple(view_args))


def parse_program(text: str, name: str = "<descend>") -> T.Program:
    """Parse Descend source text into a program AST."""
    return Parser(SourceFile(text, name)).parse_program()
