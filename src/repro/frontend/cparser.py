"""Recursive-descent parser for the C subset.

Produces the AST defined in :mod:`repro.frontend.c_ast`.  The accepted
grammar covers the Polybench/C kernels and the paper's case-study snippets;
constructs outside the subset raise :class:`CParseError` with the offending
line, mirroring how Polygeist rejects programs it cannot translate (the
paper excludes ``nussinov`` for exactly that reason).
"""

from __future__ import annotations

from typing import List, Optional

from .c_ast import (
    Assignment,
    BinaryOp,
    Call,
    Cast,
    Compound,
    CType,
    Expression,
    ExpressionStatement,
    FloatLiteral,
    For,
    FunctionDef,
    Identifier,
    If,
    IncDec,
    IntLiteral,
    ParamDecl,
    Return,
    SizeOf,
    Statement,
    Subscript,
    Ternary,
    TranslationUnit,
    UnaryOp,
    VarDecl,
    While,
)
from .clexer import Token, preprocess, tokenize

_TYPE_KEYWORDS = {"int", "long", "float", "double", "char", "void", "unsigned", "signed"}
_TYPE_QUALIFIERS = {"const", "static", "register", "restrict"}


class CParseError(Exception):
    """Raised when the source uses constructs outside the supported subset."""


class CParser:
    """Parses a token stream into a :class:`TranslationUnit`."""

    def __init__(self, tokens: List[Token], defines: Optional[dict] = None):
        self.tokens = tokens
        self.position = 0
        self.defines = defines or {}

    # -- token helpers ----------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.peek()
        self.position += 1
        return token

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.position += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        token = self.next()
        if token.text != text:
            raise CParseError(
                f"Line {token.line}: expected {text!r}, found {token.text!r}"
            )
        return token

    def at_type(self, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token.kind == "keyword" and token.text in (_TYPE_KEYWORDS | _TYPE_QUALIFIERS)

    # -- top level ----------------------------------------------------------------
    def parse_translation_unit(self) -> TranslationUnit:
        unit = TranslationUnit(defines=self.defines)
        while self.peek().kind != "eof":
            unit.functions.append(self.parse_function())
        return unit

    def parse_type(self) -> CType:
        while self.peek().text in _TYPE_QUALIFIERS:
            self.next()
        base_parts = []
        while self.peek().kind == "keyword" and self.peek().text in _TYPE_KEYWORDS:
            base_parts.append(self.next().text)
        if not base_parts:
            token = self.peek()
            raise CParseError(f"Line {token.line}: expected a type, found {token.text!r}")
        # Normalize: unsigned/signed/long collapse onto a base type.
        if "double" in base_parts:
            base = "double"
        elif "float" in base_parts:
            base = "float"
        elif "char" in base_parts:
            base = "char"
        elif "void" in base_parts:
            base = "void"
        elif "long" in base_parts:
            base = "long"
        else:
            base = "int"
        depth = 0
        while self.accept("*"):
            while self.peek().text in _TYPE_QUALIFIERS:
                self.next()
            depth += 1
        return CType(base, depth)

    def parse_function(self) -> FunctionDef:
        return_type = self.parse_type()
        name_token = self.next()
        if name_token.kind != "id":
            raise CParseError(f"Line {name_token.line}: expected a function name")
        self.expect("(")
        parameters: List[ParamDecl] = []
        if not self.accept(")"):
            while True:
                if self.peek().text == "void" and self.peek(1).text == ")":
                    self.next()
                    break
                parameters.append(self.parse_parameter())
                if not self.accept(","):
                    break
            self.expect(")")
        body = self.parse_compound()
        return FunctionDef(name_token.text, return_type, parameters, body)

    def parse_parameter(self) -> ParamDecl:
        ctype = self.parse_type()
        name_token = self.next()
        if name_token.kind != "id":
            raise CParseError(f"Line {name_token.line}: expected a parameter name")
        dims: List[Expression] = []
        while self.accept("["):
            if self.peek().text == "]":
                dims.append(IntLiteral(-1))  # unsized leading dimension
            else:
                dims.append(self.parse_expression())
            self.expect("]")
        return ParamDecl(name_token.text, ctype, dims)

    # -- statements ------------------------------------------------------------------
    def parse_compound(self) -> Compound:
        self.expect("{")
        statements: List[Statement] = []
        while not self.accept("}"):
            statements.append(self.parse_statement())
        return Compound(statements)

    def parse_statement(self) -> Statement:
        token = self.peek()
        if token.text == "{":
            return self.parse_compound()
        if token.text == "for":
            return self.parse_for()
        if token.text == "while":
            return self.parse_while()
        if token.text == "if":
            return self.parse_if()
        if token.text == "return":
            self.next()
            if self.accept(";"):
                return Return(None)
            value = self.parse_expression()
            self.expect(";")
            return Return(value)
        if token.text == ";":
            self.next()
            return Compound([])
        if self.at_type():
            return self.parse_declaration()
        expression = self.parse_expression()
        self.expect(";")
        return ExpressionStatement(expression)

    def parse_declaration(self) -> Statement:
        ctype = self.parse_type()
        declarations: List[Statement] = []
        while True:
            name_token = self.next()
            if name_token.kind != "id":
                raise CParseError(f"Line {name_token.line}: expected a variable name")
            dims: List[Expression] = []
            while self.accept("["):
                dims.append(self.parse_expression())
                self.expect("]")
            init: Optional[Expression] = None
            if self.accept("="):
                init = self.parse_assignment_expression()
            declarations.append(VarDecl(name_token.text, ctype, dims, init))
            if not self.accept(","):
                break
        self.expect(";")
        if len(declarations) == 1:
            return declarations[0]
        return Compound(declarations)

    def parse_for(self) -> For:
        self.expect("for")
        self.expect("(")
        init: Optional[Statement] = None
        if not self.accept(";"):
            if self.at_type():
                init = self.parse_declaration()
            else:
                init = ExpressionStatement(self.parse_expression())
                self.expect(";")
        condition: Optional[Expression] = None
        if not self.accept(";"):
            condition = self.parse_expression()
            self.expect(";")
        post: Optional[Expression] = None
        if self.peek().text != ")":
            post = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return For(init, condition, post, body)

    def parse_while(self) -> While:
        self.expect("while")
        self.expect("(")
        condition = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return While(condition, body)

    def parse_if(self) -> If:
        self.expect("if")
        self.expect("(")
        condition = self.parse_expression()
        self.expect(")")
        then_body = self.parse_statement()
        else_body: Optional[Statement] = None
        if self.accept("else"):
            else_body = self.parse_statement()
        return If(condition, then_body, else_body)

    # -- expressions --------------------------------------------------------------------
    def parse_expression(self) -> Expression:
        expression = self.parse_assignment_expression()
        # Comma expressions appear in for-loop posts: "i++, j++".
        while self.peek().text == "," and self._inside_parenthesized_for_post():
            break
        return expression

    def _inside_parenthesized_for_post(self) -> bool:
        return False  # comma expressions are not supported; kept for clarity

    def parse_assignment_expression(self) -> Expression:
        target = self.parse_ternary()
        token = self.peek()
        if token.text in ("=", "+=", "-=", "*=", "/=", "%="):
            self.next()
            value = self.parse_assignment_expression()
            op = "" if token.text == "=" else token.text[0]
            if not isinstance(target, (Identifier, Subscript)):
                raise CParseError(f"Line {token.line}: invalid assignment target")
            return Assignment(op, target, value)
        return target

    def parse_ternary(self) -> Expression:
        condition = self.parse_binary(0)
        if self.accept("?"):
            then_value = self.parse_assignment_expression()
            self.expect(":")
            else_value = self.parse_assignment_expression()
            return Ternary(condition, then_value, else_value)
        return condition

    _PRECEDENCE = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    _LEVEL = {op: level for level, ops in enumerate(_PRECEDENCE) for op in ops}

    def parse_binary(self, level: int) -> Expression:
        """Parse operators of ``_PRECEDENCE[level:]`` by precedence climbing:
        a right operand takes only operators binding tighter than its own,
        so one level's operators fold to the left."""
        lhs = self.parse_unary()
        while True:
            token = self.peek()
            bound = self._LEVEL.get(token.text, -1) if token.kind == "op" else -1
            if bound < level:
                return lhs
            self.next()
            lhs = BinaryOp(token.text, lhs, self.parse_binary(bound + 1))

    def parse_unary(self) -> Expression:
        token = self.peek()
        if token.text in ("-", "+", "!") and token.kind == "op":
            self.next()
            return UnaryOp(token.text, self.parse_unary())
        if token.text in ("++", "--"):
            self.next()
            target = self.parse_unary()
            return IncDec(token.text, target, prefix=True)
        if token.text == "*" and token.kind == "op":
            # Pointer dereference *p — treated as p[0].
            self.next()
            return Subscript(self.parse_unary(), IntLiteral(0))
        if token.text == "&" and token.kind == "op":
            self.next()
            return self.parse_unary()  # address-of is dropped (arrays decay anyway)
        if token.text == "sizeof":
            self.next()
            self.expect("(")
            ctype = self.parse_type()
            self.expect(")")
            return SizeOf(ctype)
        if token.text == "(" and self.at_type(1):
            # Cast expression: "(double)x" or "(int*) malloc(...)".
            self.next()
            ctype = self.parse_type()
            self.expect(")")
            return Cast(ctype, self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expression:
        expression = self.parse_primary()
        while True:
            token = self.peek()
            if token.text == "[":
                self.next()
                index = self.parse_expression()
                self.expect("]")
                expression = Subscript(expression, index)
            elif token.text == "(" and isinstance(expression, Identifier):
                self.next()
                arguments: List[Expression] = []
                if not self.accept(")"):
                    while True:
                        arguments.append(self.parse_assignment_expression())
                        if not self.accept(","):
                            break
                    self.expect(")")
                expression = Call(expression.name, arguments)
            elif token.text in ("++", "--"):
                self.next()
                expression = IncDec(token.text, expression, prefix=False)
            else:
                return expression

    def parse_primary(self) -> Expression:
        token = self.next()
        if token.kind == "int":
            return IntLiteral(int(token.text, 0))
        if token.kind == "float":
            return FloatLiteral(float(token.text))
        if token.kind == "id":
            return Identifier(token.text)
        if token.text == "(":
            expression = self.parse_expression()
            self.expect(")")
            return expression
        raise CParseError(f"Line {token.line}: unexpected token {token.text!r}")


def parse_c(source: str) -> TranslationUnit:
    """Parse C source text into a :class:`TranslationUnit`."""
    cleaned, defines = preprocess(source)
    tokens = tokenize(cleaned)
    parser = CParser(tokens, defines)
    return parser.parse_translation_unit()
