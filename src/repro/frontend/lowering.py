"""Lowering from the C AST to MLIR core dialects (mini-Polygeist).

Reproduces the essential behaviour of Polygeist described in §2.1 of the
paper: C functions become ``func.func`` ops using the ``scf``, ``arith``,
``math`` and ``memref`` dialects.  Two Polygeist artifacts that matter for
the evaluation are modelled faithfully:

* every mutable C scalar becomes a one-element ``memref`` accessed through
  loads and stores ("every SSA value becomes a scalar data container",
  §6.1) — later passes may or may not see through this, which is part of
  what separates the ``mlir`` pipeline from ``gcc``/``clang``;
* ``scf.for`` only supports positive steps (§7.2, footnote 4), so
  downward-counting loops are *inverted*: the loop runs upwards and the
  original index is recomputed, preserving semantics but reversing the
  traversal order (the ``deriche`` cache-behaviour effect).

Type simplifications: ``float`` is widened to ``f64`` and ``char`` to
``i32``; this does not affect any reproduced experiment (Polybench uses
``double`` throughout).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..dialects import arith, memref, scf
from ..dialects.builtin import ModuleOp
from ..dialects.func import CallOp, FuncOp, ReturnOp
from ..ir.core import OPERATION_REGISTRY, Block, Builder, Operation, Value
from ..ir.types import (
    DYNAMIC,
    F64,
    FunctionType,
    I1,
    I32,
    I64,
    INDEX,
    IndexType,
    IntegerType,
    FloatType,
    MemRefType,
    Type,
)
from ..operators import C_FUNCTIONS, C_OPERATORS
from . import c_ast as ast


class LoweringError(Exception):
    """Raised when a construct cannot be lowered to the supported dialects."""


#: Functions whose calls are ignored (I/O in benchmark scaffolding).
_IGNORED_CALLS = {"printf", "fprintf", "polybench_timer_start", "polybench_timer_stop"}


def _scalar_type(ctype: ast.CType) -> Type:
    if ctype.is_pointer:
        raise LoweringError(f"Expected a scalar type, got pointer {ctype}")
    if ctype.base in ("double", "float"):
        return F64
    if ctype.base == "long":
        return I64
    if ctype.base in ("int", "char"):
        return I32
    if ctype.base == "void":
        raise LoweringError("void is not a value type")
    raise LoweringError(f"Unsupported C type {ctype}")


def _element_bytes(ctype: ast.CType) -> int:
    if ctype.base in ("double", "long"):
        return 8
    if ctype.base == "float":
        return 4
    if ctype.base == "char":
        return 1
    return 4


class _Variable:
    """Symbol-table entry: how a C name is represented in the IR."""

    __slots__ = ("kind", "value", "element_type", "ctype")

    def __init__(self, kind: str, value: Value, element_type: Type, ctype: ast.CType):
        self.kind = kind  # 'scalar', 'array', 'induction'
        self.value = value
        self.element_type = element_type
        self.ctype = ctype


class _TypedValue:
    """An SSA value together with its C-level type information."""

    __slots__ = ("value", "is_float")

    def __init__(self, value: Value, is_float: bool):
        self.value = value
        self.is_float = is_float


class FunctionLowering:
    """Lowers a single C function to a ``func.func`` operation."""

    def __init__(self, module: ModuleOp, unit: ast.TranslationUnit, function: ast.FunctionDef):
        self.module = module
        self.unit = unit
        self.function = function
        self.scopes: List[Dict[str, _Variable]] = [{}]
        self.builder: Builder = Builder()
        self.func_op: Optional[FuncOp] = None

    # -- scope handling -----------------------------------------------------------
    def _lookup(self, name: str) -> _Variable:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise LoweringError(f"Use of undeclared identifier {name!r}")

    def _declare(self, name: str, variable: _Variable) -> None:
        self.scopes[-1][name] = variable

    def _push_scope(self) -> None:
        self.scopes.append({})

    def _pop_scope(self) -> None:
        self.scopes.pop()

    # -- entry point ---------------------------------------------------------------
    def lower(self) -> FuncOp:
        param_types: List[Type] = []
        for parameter in self.function.parameters:
            param_types.append(self._parameter_type(parameter))
        if self.function.return_type.base == "void" and not self.function.return_type.is_pointer:
            result_types: List[Type] = []
        else:
            result_types = [_scalar_type(self.function.return_type)]
        function_type = FunctionType(param_types, result_types)
        func_op = FuncOp.build(
            self.function.name,
            function_type,
            [parameter.name for parameter in self.function.parameters],
        )
        self.module.body.append(func_op)
        self.func_op = func_op
        self.builder = Builder.at_end(func_op.body)

        # Bind parameters. Scalars are spilled to one-element memrefs
        # (Polygeist-style) so that assignments to them are expressible.
        for parameter, argument in zip(self.function.parameters, func_op.body.arguments):
            if isinstance(argument.type, MemRefType):
                self._declare(
                    parameter.name,
                    _Variable("array", argument, argument.type.element_type, parameter.ctype),
                )
            else:
                cell = self.builder.create(
                    memref.AllocaOp, MemRefType([1], argument.type)
                ).result
                zero = self._index_constant(0)
                self.builder.create(memref.StoreOp, argument, cell, [zero])
                self._declare(
                    parameter.name,
                    _Variable("scalar", cell, argument.type, parameter.ctype),
                )

        self.lower_statement(self.function.body)

        # Guarantee a terminator.
        body = func_op.body
        if body.terminator is None:
            if function_type.results:
                zero = self._typed_constant(0, function_type.results[0])
                self.builder.create(ReturnOp, [zero])
            else:
                self.builder.create(ReturnOp, [])
        return func_op

    def _parameter_type(self, parameter: ast.ParamDecl) -> Type:
        ctype = parameter.ctype
        if parameter.array_dims:
            shape = []
            for dim in parameter.array_dims:
                constant = _const_eval(dim)
                shape.append(DYNAMIC if constant is None or constant < 0 else constant)
            return MemRefType(shape, _scalar_type(ast.CType(ctype.base)))
        if ctype.is_pointer:
            return MemRefType([DYNAMIC], _scalar_type(ast.CType(ctype.base)))
        return _scalar_type(ctype)

    # -- constants / casts -----------------------------------------------------------
    def _index_constant(self, value: int) -> Value:
        return self.builder.create(arith.ConstantOp, value, INDEX).result

    def _typed_constant(self, value, type: Type) -> Value:
        return self.builder.create(arith.ConstantOp, value, type).result

    def _to_index(self, typed: _TypedValue) -> Value:
        value = typed.value
        if isinstance(value.type, IndexType):
            return value
        if isinstance(value.type, FloatType):
            as_int = self.builder.create(arith.FPToSIOp, value, I64).result
            return self.builder.create(arith.IndexCastOp, as_int, INDEX).result
        return self.builder.create(arith.IndexCastOp, value, INDEX).result

    def _to_float(self, typed: _TypedValue) -> Value:
        value = typed.value
        if isinstance(value.type, FloatType):
            return value
        if isinstance(value.type, IndexType):
            value = self.builder.create(arith.IndexCastOp, value, I64).result
        return self.builder.create(arith.SIToFPOp, value, F64).result

    def _to_int(self, typed: _TypedValue, int_type: Type = I32) -> Value:
        value = typed.value
        if isinstance(value.type, FloatType):
            return self.builder.create(arith.FPToSIOp, value, int_type).result
        if isinstance(value.type, IndexType):
            return self.builder.create(arith.IndexCastOp, value, int_type).result
        if value.type == int_type:
            return value
        if isinstance(value.type, IntegerType) and isinstance(int_type, IntegerType):
            if value.type.width < int_type.width:
                return self.builder.create(arith.ExtSIOp, value, int_type).result
            if value.type.width > int_type.width:
                return self.builder.create(arith.TruncIOp, value, int_type).result
        return value

    def _coerce_to(self, typed: _TypedValue, target: Type) -> Value:
        if isinstance(target, FloatType):
            return self._to_float(typed)
        if isinstance(target, IndexType):
            return self._to_index(typed)
        return self._to_int(typed, target)

    # -- statements -------------------------------------------------------------------
    def lower_statement(self, statement: ast.Statement) -> None:
        if isinstance(statement, ast.Compound):
            self._push_scope()
            for inner in statement.statements:
                self.lower_statement(inner)
            self._pop_scope()
        elif isinstance(statement, ast.VarDecl):
            self._lower_declaration(statement)
        elif isinstance(statement, ast.ExpressionStatement):
            self.lower_expression(statement.expression)
        elif isinstance(statement, ast.Return):
            self._lower_return(statement)
        elif isinstance(statement, ast.For):
            self._lower_for(statement)
        elif isinstance(statement, ast.While):
            self._lower_while(statement)
        elif isinstance(statement, ast.If):
            self._lower_if(statement)
        else:
            raise LoweringError(f"Unsupported statement {type(statement).__name__}")

    def _lower_declaration(self, decl: ast.VarDecl) -> None:
        ctype = decl.ctype
        # Pointer initialized from malloc → heap allocation.
        if ctype.is_pointer:
            element_type = _scalar_type(ast.CType(ctype.base))
            if decl.init is None:
                raise LoweringError(
                    f"Pointer {decl.name!r} must be initialized with malloc in the supported subset"
                )
            alloc_value = self._lower_malloc(decl.init, element_type, ctype)
            self._declare(decl.name, _Variable("array", alloc_value, element_type, ctype))
            return
        if decl.array_dims:
            shape = []
            for dim in decl.array_dims:
                constant = _const_eval(dim)
                if constant is None:
                    raise LoweringError(
                        f"Array {decl.name!r} requires constant dimensions in the supported subset"
                    )
                shape.append(constant)
            element_type = _scalar_type(ast.CType(ctype.base))
            alloca = self.builder.create(memref.AllocaOp, MemRefType(shape, element_type))
            self._declare(decl.name, _Variable("array", alloca.result, element_type, ctype))
            return
        # Scalar declaration → one-element memref.
        element_type = _scalar_type(ctype)
        cell = self.builder.create(memref.AllocaOp, MemRefType([1], element_type)).result
        self._declare(decl.name, _Variable("scalar", cell, element_type, ctype))
        if decl.init is not None:
            value = self.lower_expression(decl.init)
            coerced = self._coerce_to(value, element_type)
            zero = self._index_constant(0)
            self.builder.create(memref.StoreOp, coerced, cell, [zero])

    def _lower_malloc(
        self, init: ast.Expression, element_type: Type, ctype: ast.CType
    ) -> Value:
        expression = init
        if isinstance(expression, ast.Cast):
            expression = expression.operand
        if not (isinstance(expression, ast.Call) and expression.name in ("malloc", "calloc")):
            raise LoweringError("Pointer initializers must be malloc/calloc calls")
        if expression.name == "calloc" and len(expression.arguments) == 2:
            count_expr: ast.Expression = expression.arguments[0]
        else:
            count_expr = _strip_sizeof_factor(expression.arguments[0])
        count = self.lower_expression(count_expr)
        count_index = self._to_index(count)
        alloc = self.builder.create(
            memref.AllocOp, MemRefType([DYNAMIC], element_type), [count_index]
        )
        return alloc.result

    def _lower_return(self, statement: ast.Return) -> None:
        assert self.func_op is not None
        results = self.func_op.function_type.results
        if statement.value is None or not results:
            self.builder.create(ReturnOp, [])
            return
        value = self.lower_expression(statement.value)
        self.builder.create(ReturnOp, [self._coerce_to(value, results[0])])

    # -- control flow --------------------------------------------------------------------
    def _lower_if(self, statement: ast.If) -> None:
        condition = self._lower_condition(statement.condition)
        if_op = self.builder.create(
            scf.IfOp, condition, [], statement.else_body is not None
        )
        outer_builder = self.builder
        self.builder = Builder.at_end(if_op.then_block)
        self._push_scope()
        self.lower_statement(statement.then_body)
        self._pop_scope()
        self.builder.create(scf.YieldOp, [])
        if statement.else_body is not None:
            self.builder = Builder.at_end(if_op.else_block)
            self._push_scope()
            self.lower_statement(statement.else_body)
            self._pop_scope()
            self.builder.create(scf.YieldOp, [])
        elif if_op.else_block is not None:
            else_builder = Builder.at_end(if_op.else_block)
            else_builder.create(scf.YieldOp, [])
        self.builder = outer_builder

    def _lower_condition(self, expression: ast.Expression) -> Value:
        typed = self.lower_expression(expression)
        value = typed.value
        if value.type == I1:
            return value
        if isinstance(value.type, FloatType):
            zero = self._typed_constant(0.0, value.type)
            return self.builder.create(arith.CmpFOp, "une", value, zero).result
        zero = self._typed_constant(0, value.type)
        return self.builder.create(arith.CmpIOp, "ne", value, zero).result

    def _lower_for(self, statement: ast.For) -> None:
        pattern = _match_canonical_for(statement)
        if pattern is None:
            self._lower_for_as_while(statement)
            return
        name, lower_expr, upper_expr, inclusive, step_amount, downward = pattern
        if _assigns_to(statement.body, name):
            self._lower_for_as_while(statement)
            return

        self._push_scope()
        lower = self._to_index(self.lower_expression(lower_expr))
        upper = self._to_index(self.lower_expression(upper_expr))
        if inclusive:
            one = self._index_constant(1)
            upper = self.builder.create(arith.AddIOp, upper, one, INDEX).result
        step = self._index_constant(abs(step_amount))

        for_op = self.builder.create(scf.ForOp, lower, upper, step, [], name)
        outer_builder = self.builder
        self.builder = Builder.at_end(for_op.body)

        induction: Value = for_op.induction_variable
        if downward:
            # Loop-order inversion (Polygeist/scf limitation, §7.2): iterate
            # upwards and recompute the original index i = lo + hi - iv.
            total = self.builder.create(arith.AddIOp, lower, upper, INDEX).result
            one = self._index_constant(1)
            total_minus = self.builder.create(arith.SubIOp, total, one, INDEX).result
            induction = self.builder.create(
                arith.SubIOp, total_minus, for_op.induction_variable, INDEX
            ).result
        int_type = I64 if False else I32
        self._declare(
            name,
            _Variable("induction", induction, INDEX, ast.CType("int")),
        )
        self.lower_statement(statement.body)
        self.builder.create(scf.YieldOp, [])
        self.builder = outer_builder
        self._pop_scope()

    def _lower_for_as_while(self, statement: ast.For) -> None:
        self._push_scope()
        if statement.init is not None:
            self.lower_statement(statement.init)
        condition = statement.condition if statement.condition is not None else ast.IntLiteral(1)
        body_statements: List[ast.Statement] = [statement.body]
        if statement.post is not None:
            body_statements.append(ast.ExpressionStatement(statement.post))
        self._lower_while(ast.While(condition, ast.Compound(body_statements)))
        self._pop_scope()

    def _lower_while(self, statement: ast.While) -> None:
        while_op = self.builder.create(scf.WhileOp, [])
        outer_builder = self.builder
        # Condition ("before") region.
        self.builder = Builder.at_end(while_op.before_block)
        condition = self._lower_condition(statement.condition)
        self.builder.create(scf.ConditionOp, condition, [])
        # Body ("after") region.
        self.builder = Builder.at_end(while_op.after_block)
        self._push_scope()
        self.lower_statement(statement.body)
        self._pop_scope()
        self.builder.create(scf.YieldOp, [])
        self.builder = outer_builder

    # -- expressions ------------------------------------------------------------------------
    def lower_expression(self, expression: ast.Expression) -> _TypedValue:
        if isinstance(expression, ast.IntLiteral):
            return _TypedValue(self._typed_constant(expression.value, I32), False)
        if isinstance(expression, ast.FloatLiteral):
            return _TypedValue(self._typed_constant(expression.value, F64), True)
        if isinstance(expression, ast.Identifier):
            return self._lower_identifier_read(expression.name)
        if isinstance(expression, ast.Subscript):
            return self._lower_subscript_read(expression)
        if isinstance(expression, ast.BinaryOp):
            return self._lower_binary(expression)
        if isinstance(expression, ast.UnaryOp):
            return self._lower_unary(expression)
        if isinstance(expression, ast.Assignment):
            return self._lower_assignment(expression)
        if isinstance(expression, ast.IncDec):
            return self._lower_incdec(expression)
        if isinstance(expression, ast.Call):
            return self._lower_call(expression)
        if isinstance(expression, ast.Cast):
            return self._lower_cast(expression)
        if isinstance(expression, ast.Ternary):
            return self._lower_ternary(expression)
        if isinstance(expression, ast.SizeOf):
            return _TypedValue(
                self._typed_constant(_element_bytes(expression.ctype), I64), False
            )
        raise LoweringError(f"Unsupported expression {type(expression).__name__}")

    def _lower_identifier_read(self, name: str) -> _TypedValue:
        variable = self._lookup(name)
        if variable.kind == "induction":
            return _TypedValue(variable.value, False)
        if variable.kind == "scalar":
            zero = self._index_constant(0)
            load = self.builder.create(memref.LoadOp, variable.value, [zero])
            return _TypedValue(load.result, isinstance(variable.element_type, FloatType))
        # Arrays decay to their memref value (passed to calls / returned).
        return _TypedValue(variable.value, False)

    def _resolve_subscript(self, expression: ast.Subscript) -> Tuple[_Variable, List[Value]]:
        """Return the array variable and the index list (outermost first)."""
        indices_ast: List[ast.Expression] = []
        base: ast.Expression = expression
        while isinstance(base, ast.Subscript):
            indices_ast.append(base.index)
            base = base.base
        indices_ast.reverse()
        if not isinstance(base, ast.Identifier):
            raise LoweringError("Array accesses must use a named array")
        variable = self._lookup(base.name)
        if variable.kind not in ("array", "scalar"):
            raise LoweringError(f"{base.name!r} is not an array")
        indices = [self._to_index(self.lower_expression(index)) for index in indices_ast]
        return variable, indices

    def _lower_subscript_read(self, expression: ast.Subscript) -> _TypedValue:
        variable, indices = self._resolve_subscript(expression)
        load = self.builder.create(memref.LoadOp, variable.value, indices)
        return _TypedValue(load.result, isinstance(variable.element_type, FloatType))

    def _lower_binary(self, expression: ast.BinaryOp) -> _TypedValue:
        op = expression.op
        lhs = self.lower_expression(expression.lhs)
        rhs = self.lower_expression(expression.rhs)
        if op in ("&&", "||"):
            lhs_bool = self._to_bool(lhs)
            rhs_bool = self._to_bool(rhs)
            cls = arith.AndIOp if op == "&&" else arith.OrIOp
            return _TypedValue(self.builder.create(cls, lhs_bool, rhs_bool, I1).result, False)
        if op in ("<", "<=", ">", ">=", "==", "!="):
            return self._lower_comparison(op, lhs, rhs)
        return self._lower_arithmetic(op, lhs, rhs)

    def _to_bool(self, typed: _TypedValue) -> Value:
        if typed.value.type == I1:
            return typed.value
        if isinstance(typed.value.type, FloatType):
            zero = self._typed_constant(0.0, typed.value.type)
            return self.builder.create(arith.CmpFOp, "une", typed.value, zero).result
        zero = self._typed_constant(0, typed.value.type)
        return self.builder.create(arith.CmpIOp, "ne", typed.value, zero).result

    def _lower_comparison(self, op: str, lhs: _TypedValue, rhs: _TypedValue) -> _TypedValue:
        is_float = lhs.is_float or rhs.is_float
        lval, rval = (self._to_float(lhs), self._to_float(rhs)) if is_float \
            else self._unify_ints(lhs, rhs)
        record = C_OPERATORS[op, not is_float]
        result = self.builder.create(OPERATION_REGISTRY[record.name], record.predicate, lval, rval)
        return _TypedValue(result.result, False)

    def _unify_ints(self, lhs: _TypedValue, rhs: _TypedValue) -> Tuple[Value, Value]:
        lval, rval = lhs.value, rhs.value
        # Index values mix freely with integers: cast both to a common type.
        if isinstance(lval.type, IndexType) and isinstance(rval.type, IndexType):
            return lval, rval
        if isinstance(lval.type, IndexType):
            lval = self.builder.create(arith.IndexCastOp, lval, rval.type).result
            return lval, rval
        if isinstance(rval.type, IndexType):
            rval = self.builder.create(arith.IndexCastOp, rval, lval.type).result
            return lval, rval
        lwidth = lval.type.width if isinstance(lval.type, IntegerType) else 32
        rwidth = rval.type.width if isinstance(rval.type, IntegerType) else 32
        if lwidth < rwidth:
            lval = self.builder.create(arith.ExtSIOp, lval, rval.type).result
        elif rwidth < lwidth:
            rval = self.builder.create(arith.ExtSIOp, rval, lval.type).result
        return lval, rval

    def _lower_arithmetic(self, op: str, lhs: _TypedValue, rhs: _TypedValue) -> _TypedValue:
        is_float = lhs.is_float or rhs.is_float
        record = C_OPERATORS.get((op, not is_float))
        if record is None:
            raise LoweringError(f"Operator {op!r} is not supported on "
                                f"{'floating-point' if is_float else 'integer'} values")
        if is_float:
            lval, rval = self._to_float(lhs), self._to_float(rhs)
            result = self.builder.create(OPERATION_REGISTRY[record.name], lval, rval, F64)
            return _TypedValue(result.result, True)
        lval, rval = self._unify_ints(lhs, rhs)
        result = self.builder.create(OPERATION_REGISTRY[record.name], lval, rval, lval.type)
        return _TypedValue(result.result, False)

    def _lower_unary(self, expression: ast.UnaryOp) -> _TypedValue:
        operand = self.lower_expression(expression.operand)
        if expression.op == "+":
            return operand
        if expression.op == "-":
            if operand.is_float:
                return _TypedValue(
                    self.builder.create(arith.NegFOp, operand.value).result, True
                )
            zero = self._typed_constant(0, operand.value.type)
            return _TypedValue(
                self.builder.create(arith.SubIOp, zero, operand.value, operand.value.type).result,
                False,
            )
        if expression.op == "!":
            as_bool = self._to_bool(operand)
            one = self._typed_constant(1, I1)
            return _TypedValue(
                self.builder.create(arith.XOrIOp, as_bool, one, I1).result, False
            )
        raise LoweringError(f"Unsupported unary operator {expression.op!r}")

    def _lower_assignment(self, expression: ast.Assignment) -> _TypedValue:
        value = self.lower_expression(expression.value)
        target = expression.target
        if isinstance(target, ast.Identifier):
            variable = self._lookup(target.name)
            if variable.kind == "induction":
                raise LoweringError(f"Cannot assign to loop variable {target.name!r} here")
            if variable.kind == "array":
                raise LoweringError(f"Cannot assign to array {target.name!r}")
            zero = self._index_constant(0)
            if expression.op:
                current = self.builder.create(memref.LoadOp, variable.value, [zero]).result
                current_typed = _TypedValue(current, isinstance(variable.element_type, FloatType))
                value = self._lower_arithmetic(expression.op, current_typed, value)
            stored = self._coerce_to(value, variable.element_type)
            self.builder.create(memref.StoreOp, stored, variable.value, [zero])
            return _TypedValue(stored, isinstance(variable.element_type, FloatType))
        if isinstance(target, ast.Subscript):
            variable, indices = self._resolve_subscript(target)
            if expression.op:
                current = self.builder.create(memref.LoadOp, variable.value, indices).result
                current_typed = _TypedValue(current, isinstance(variable.element_type, FloatType))
                value = self._lower_arithmetic(expression.op, current_typed, value)
            stored = self._coerce_to(value, variable.element_type)
            self.builder.create(memref.StoreOp, stored, variable.value, indices)
            return _TypedValue(stored, isinstance(variable.element_type, FloatType))
        raise LoweringError("Unsupported assignment target")

    def _lower_incdec(self, expression: ast.IncDec) -> _TypedValue:
        delta = 1 if expression.op == "++" else -1
        return self._lower_assignment(
            ast.Assignment("+", expression.target, ast.IntLiteral(delta))
        )

    def _lower_call(self, expression: ast.Call) -> _TypedValue:
        name = expression.name
        if name in _IGNORED_CALLS:
            return _TypedValue(self._typed_constant(0, I32), False)
        if name == "free":
            argument = expression.arguments[0]
            if isinstance(argument, ast.Identifier):
                variable = self._lookup(argument.name)
                self.builder.create(memref.DeallocOp, variable.value)
            return _TypedValue(self._typed_constant(0, I32), False)
        if name in C_FUNCTIONS:
            operands = [self._to_float(self.lower_expression(arg)) for arg in expression.arguments]
            result = self.builder.create(OPERATION_REGISTRY[C_FUNCTIONS[name].name], *operands)
            return _TypedValue(result.result, True)
        # User-defined function in the same translation unit.
        try:
            callee = self.unit.function(name)
        except KeyError:
            raise LoweringError(f"Call to unknown function {name!r}")
        arguments: List[Value] = []
        for argument_ast, parameter in zip(expression.arguments, callee.parameters):
            typed = self.lower_expression(argument_ast)
            if parameter.array_dims or parameter.ctype.is_pointer:
                arguments.append(typed.value)
            else:
                arguments.append(self._coerce_to(typed, _scalar_type(parameter.ctype)))
        if callee.return_type.base == "void":
            self.builder.create(CallOp, name, arguments, [])
            return _TypedValue(self._typed_constant(0, I32), False)
        result_type = _scalar_type(callee.return_type)
        call = self.builder.create(CallOp, name, arguments, [result_type])
        return _TypedValue(call.results[0], isinstance(result_type, FloatType))

    def _lower_cast(self, expression: ast.Cast) -> _TypedValue:
        operand = self.lower_expression(expression.operand)
        if expression.ctype.is_pointer:
            return operand
        target = _scalar_type(expression.ctype)
        return _TypedValue(
            self._coerce_to(operand, target), isinstance(target, FloatType)
        )

    def _lower_ternary(self, expression: ast.Ternary) -> _TypedValue:
        condition = self._lower_condition(expression.condition)
        then_value = self.lower_expression(expression.then_value)
        else_value = self.lower_expression(expression.else_value)
        if then_value.is_float or else_value.is_float:
            tval = self._to_float(then_value)
            fval = self._to_float(else_value)
            is_float = True
        else:
            tval, fval = self._unify_ints(then_value, else_value)
            is_float = False
        select = self.builder.create(arith.SelectOp, condition, tval, fval)
        return _TypedValue(select.result, is_float)


# ---------------------------------------------------------------------------
# Helpers for canonical loop recognition
# ---------------------------------------------------------------------------


def _const_eval(expression: ast.Expression) -> Optional[int]:
    """Evaluate an integer-constant expression (after macro expansion)."""
    if isinstance(expression, ast.IntLiteral):
        return expression.value
    if isinstance(expression, ast.UnaryOp) and expression.op == "-":
        inner = _const_eval(expression.operand)
        return None if inner is None else -inner
    if isinstance(expression, ast.BinaryOp):
        lhs = _const_eval(expression.lhs)
        rhs = _const_eval(expression.rhs)
        if lhs is None or rhs is None:
            return None
        if expression.op == "+":
            return lhs + rhs
        if expression.op == "-":
            return lhs - rhs
        if expression.op == "*":
            return lhs * rhs
        if expression.op == "/" and rhs != 0:
            return lhs // rhs
    return None


def _strip_sizeof_factor(expression: ast.Expression) -> ast.Expression:
    """Turn ``N * sizeof(T)`` / ``sizeof(T) * N`` into ``N``."""
    if isinstance(expression, ast.BinaryOp) and expression.op == "*":
        if isinstance(expression.lhs, ast.SizeOf):
            return expression.rhs
        if isinstance(expression.rhs, ast.SizeOf):
            return expression.lhs
    if isinstance(expression, ast.SizeOf):
        return ast.IntLiteral(1)
    return expression


def _match_canonical_for(statement: ast.For):
    """Match ``for (i = lo; i < hi; i += c)`` (and the downward variant).

    Returns ``(name, lower, upper, inclusive, step, downward)`` or ``None``.
    """
    init = statement.init
    name: Optional[str] = None
    lower: Optional[ast.Expression] = None
    if isinstance(init, ast.VarDecl) and init.init is not None and not init.array_dims:
        name, lower = init.name, init.init
    elif isinstance(init, ast.ExpressionStatement) and isinstance(init.expression, ast.Assignment):
        assignment = init.expression
        if assignment.op == "" and isinstance(assignment.target, ast.Identifier):
            name, lower = assignment.target.name, assignment.value
    if name is None or lower is None:
        return None

    condition = statement.condition
    if not isinstance(condition, ast.BinaryOp):
        return None
    if not (isinstance(condition.lhs, ast.Identifier) and condition.lhs.name == name):
        return None

    post = statement.post
    step = None
    downward = False
    if isinstance(post, ast.IncDec) and isinstance(post.target, ast.Identifier) \
            and post.target.name == name:
        step = 1 if post.op == "++" else -1
        downward = post.op == "--"
    elif isinstance(post, ast.Assignment) and isinstance(post.target, ast.Identifier) \
            and post.target.name == name and post.op in ("+", "-"):
        amount = _const_eval(post.value)
        if amount is None:
            return None
        step = amount if post.op == "+" else -amount
        downward = step < 0
    if step is None or step == 0:
        return None

    op = condition.op
    bound = condition.rhs
    if not downward:
        if op == "<":
            return name, lower, bound, False, step, False
        if op == "<=":
            return name, lower, bound, True, step, False
        return None
    # Downward loop: for (i = hi; i >(=) lo; i--) → iterate [lo(,+1) .. hi].
    if op == ">=":
        return name, bound, lower, True, step, True
    if op == ">":
        # i > lo  ⇒ smallest value is lo + 1
        return name, ast.BinaryOp("+", bound, ast.IntLiteral(1)), lower, True, step, True
    return None


def _assigns_to(statement: ast.Statement, name: str) -> bool:
    """Whether the statement subtree writes to the named variable."""
    found = False

    def visit_expression(expression: ast.Expression) -> None:
        nonlocal found
        if isinstance(expression, ast.Assignment):
            if isinstance(expression.target, ast.Identifier) and expression.target.name == name:
                found = True
            visit_expression(expression.target)
            visit_expression(expression.value)
        elif isinstance(expression, ast.IncDec):
            if isinstance(expression.target, ast.Identifier) and expression.target.name == name:
                found = True
        elif isinstance(expression, ast.BinaryOp):
            visit_expression(expression.lhs)
            visit_expression(expression.rhs)
        elif isinstance(expression, ast.UnaryOp):
            visit_expression(expression.operand)
        elif isinstance(expression, ast.Subscript):
            visit_expression(expression.base)
            visit_expression(expression.index)
        elif isinstance(expression, ast.Call):
            for argument in expression.arguments:
                visit_expression(argument)
        elif isinstance(expression, (ast.Cast,)):
            visit_expression(expression.operand)
        elif isinstance(expression, ast.Ternary):
            visit_expression(expression.condition)
            visit_expression(expression.then_value)
            visit_expression(expression.else_value)

    def visit_statement(node: ast.Statement) -> None:
        if isinstance(node, ast.Compound):
            for inner in node.statements:
                visit_statement(inner)
        elif isinstance(node, ast.ExpressionStatement):
            visit_expression(node.expression)
        elif isinstance(node, ast.VarDecl) and node.init is not None:
            visit_expression(node.init)
        elif isinstance(node, ast.For):
            if node.init is not None:
                visit_statement(node.init)
            if node.condition is not None:
                visit_expression(node.condition)
            if node.post is not None:
                visit_expression(node.post)
            visit_statement(node.body)
        elif isinstance(node, ast.While):
            visit_expression(node.condition)
            visit_statement(node.body)
        elif isinstance(node, ast.If):
            visit_expression(node.condition)
            visit_statement(node.then_body)
            if node.else_body is not None:
                visit_statement(node.else_body)
        elif isinstance(node, ast.Return) and node.value is not None:
            visit_expression(node.value)

    visit_statement(statement)
    return found


def lower_translation_unit(unit: ast.TranslationUnit) -> ModuleOp:
    """Lower a parsed translation unit to an MLIR module."""
    module = ModuleOp.build()
    for function in unit.functions:
        FunctionLowering(module, unit, function).lower()
    return module
