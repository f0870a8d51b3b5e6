"""Python/NumPy AST → the frontend C AST (the shared lowering's input).

The Python frontend deliberately reuses the C frontend's *lowering* stage
(:func:`repro.frontend.lowering.lower_translation_unit`): this module
translates a NumPy-style Python function into the same
:mod:`repro.frontend.c_ast` tree a parsed C kernel produces, so the two
frontends satisfy the control-centric IR contract by construction — one
lowering, one set of Polygeist-style artifacts (scalars spilled to
one-element memrefs, canonical ``scf.for`` loops, ``math`` dialect calls),
one pass/bridge/codegen stack below.

What the translation adds over C is the NumPy surface, desugared eagerly
into structured loops:

* ``np.zeros/ones/full/empty(shape)`` → array declarations plus
  initialization loop nests; shapes are resolved to concrete extents
  through the symbolic engine (``parse_expr`` + size substitution), so
  ``np.zeros((N + 1, 2 * M))`` works for any bound sizes;
* elementwise expressions over arrays and slices (``B[1:-1, 1:-1] =
  0.2 * (A[1:-1, :-2] + ...)``) → loop nests over the slice extent with
  offset subscripts — the memref-style accesses the data-centric passes
  expect;
* reductions — ``np.sum/np.max/np.min/np.mean`` (and the matching array
  methods) → accumulator loops whose ``+=`` stores feed
  ``wcr_detection``;
* Python's arithmetic semantics: ``/`` is true division (integer
  operands are cast to ``double``), ``//`` floors, ``**`` with a small
  constant exponent unrolls to multiplications.

Anything outside the supported subset raises
:class:`repro.errors.FrontendError` naming the offending source line —
never a crash from deep inside lowering.
"""

from __future__ import annotations

import ast as pyast
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple, Union

from ..errors import FrontendError
from ..frontend import c_ast
from ..operators import SOURCES
from ..symbolic import Integer, SymbolicError, parse_expr
from .program import PythonProgram

_DOUBLE = c_ast.CType("double")
_INT = c_ast.CType("int")

#: ``np.<name>`` element-wise functions, each the record it lowers to.
_NUMPY_MATH = {name[len("np."):]: record for name, record in SOURCES.items()
               if name.startswith("np.")}

#: Reduction spellings: np.<name>(a) and a.<name>().
_REDUCTIONS = {"sum": "sum", "mean": "mean", "max": "max", "min": "min",
               "amax": "max", "amin": "min"}

_ALLOCATORS = {"zeros", "ones", "empty", "full"}


class _Scalar:
    """A translated scalar expression with its float-ness."""

    __slots__ = ("expr", "is_float")

    def __init__(self, expr: c_ast.Expression, is_float: bool):
        self.expr = expr
        self.is_float = is_float


class _ArrayExpr:
    """A lazy elementwise array value: an extent plus an element builder.

    ``element(indices)`` produces the scalar C expression for one element,
    given loop-index expressions (one per extent dimension).  Array
    elements are always ``double``.
    """

    __slots__ = ("extent", "element")

    def __init__(self, extent: Tuple[int, ...],
                 element: Callable[[Sequence[c_ast.Expression]], c_ast.Expression]):
        self.extent = extent
        self.element = element


_Value = Union[_Scalar, _ArrayExpr]


class _Var:
    """Symbol-table entry: sizes, loop indices, scalars and arrays."""

    __slots__ = ("kind", "is_float", "shape", "value", "line")

    def __init__(self, kind: str, is_float: bool = False,
                 shape: Tuple[int, ...] = (), value: int = 0, line: int = 0):
        self.kind = kind  # 'size' | 'index' | 'scalar' | 'array'
        self.is_float = is_float
        self.shape = shape
        self.value = value
        self.line = line


class Translator:
    """Translate one :class:`PythonProgram` into a C translation unit."""

    def __init__(self, program: PythonProgram):
        self.program = program
        self.source_lines = program.source.split("\n")
        self.scopes: List[Dict[str, _Var]] = [{}]
        #: Names that went out of scope (for "assign it earlier" hints).
        self.retired: Dict[str, int] = {}
        self.block: List[c_ast.Statement] = []
        self._counter = 0
        self._used_names: set = set()
        self.return_type: Optional[c_ast.CType] = None

    # -- diagnostics ---------------------------------------------------------------
    def _error(self, message: str, node=None) -> NoReturn:
        line = getattr(node, "lineno", None)
        source_line = None
        if line is not None and 1 <= line <= len(self.source_lines):
            source_line = self.source_lines[line - 1]
        raise FrontendError(message, line=line, source_line=source_line)

    # -- names ---------------------------------------------------------------------
    def _fresh(self, stem: str) -> str:
        while True:
            name = f"_{stem}{self._counter}"
            self._counter += 1
            if name not in self._used_names:
                self._used_names.add(name)
                return name

    def _lookup(self, name: str) -> Optional[_Var]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def _declare(self, name: str, var: _Var) -> None:
        self.scopes[-1][name] = var

    def _push(self) -> None:
        self.scopes.append({})

    def _pop(self) -> None:
        for name, var in self.scopes.pop().items():
            self.retired[name] = var.line

    # -- entry point -----------------------------------------------------------------
    def translate(self) -> c_ast.TranslationUnit:
        try:
            tree = pyast.parse(self.program.source)
        except SyntaxError as exc:
            raise FrontendError(
                f"Python syntax error: {exc.msg}", line=exc.lineno,
                source_line=(exc.text or "").rstrip() or None,
            ) from None
        functions = [n for n in tree.body if isinstance(n, pyast.FunctionDef)]
        if len(functions) != 1 or len(tree.body) != 1:
            self._error(
                "A Python program must consist of exactly one function definition",
                tree.body[0] if tree.body else None,
            )
        fn = functions[0]
        for name in pyast.walk(fn):
            if isinstance(name, pyast.Name):
                self._used_names.add(name.id)
            elif isinstance(name, pyast.arg):
                self._used_names.add(name.arg)

        self._bind_sizes(fn)
        self._check_returns(fn)

        body = self._compound(fn.body, top_level=True)
        if self.return_type is None:
            self._error(
                f"Program {fn.name!r} must end with a 'return <scalar>' "
                "statement (the checksum every backend is checked against)", fn,
            )
        unit = c_ast.TranslationUnit()
        unit.functions.append(
            c_ast.FunctionDef(fn.name, self.return_type, [], body)
        )
        return unit

    def _bind_sizes(self, fn: pyast.FunctionDef) -> None:
        arguments = fn.args
        if arguments.vararg or arguments.kwarg or arguments.posonlyargs:
            self._error("Size parameters must be plain named arguments", fn)
        sizes = dict(self.program.sizes)
        names = [a.arg for a in arguments.args + arguments.kwonlyargs]
        missing = [n for n in names if n not in sizes]
        if missing:
            self._error(
                f"Unbound size parameter(s) {', '.join(repr(n) for n in missing)}; "
                "bind them via defaults, @program(sizes=...), or .bind()", fn,
            )
        unknown = sorted(set(sizes) - set(names))
        if unknown:
            self._error(
                f"Size binding(s) {', '.join(repr(n) for n in unknown)} do not "
                f"match any parameter of {fn.name!r} (parameters: {names})", fn,
            )
        for param in names:
            self._declare(param, _Var("size", value=int(sizes[param]), line=fn.lineno))

    def _check_returns(self, fn: pyast.FunctionDef) -> None:
        last = fn.body[-1] if fn.body else None
        for node in pyast.walk(fn):
            if isinstance(node, pyast.Return) and node is not last:
                self._error(
                    "'return' is only supported as the final statement of the "
                    "program (early returns cannot be expressed in the "
                    "structured control-flow subset)", node,
                )

    # -- statements --------------------------------------------------------------------
    def _compound(self, statements: List[pyast.stmt], top_level: bool = False) -> c_ast.Compound:
        outer = self.block
        self.block = []
        for index, statement in enumerate(statements):
            if top_level and index == 0 and self._is_docstring(statement):
                continue
            self._statement(statement)
        compound = c_ast.Compound(self.block)
        self.block = outer
        return compound

    @staticmethod
    def _is_docstring(node: pyast.stmt) -> bool:
        return (isinstance(node, pyast.Expr)
                and isinstance(node.value, pyast.Constant)
                and isinstance(node.value.value, str))

    def _statement(self, node: pyast.stmt) -> None:
        if isinstance(node, pyast.Assign):
            self._stmt_assign(node)
        elif isinstance(node, pyast.AugAssign):
            self._stmt_aug_assign(node)
        elif isinstance(node, pyast.AnnAssign):
            if node.value is None:
                self._error("Annotations without a value are not supported", node)
            self._assign_target(node.target, node.value, node)
        elif isinstance(node, pyast.For):
            self._stmt_for(node)
        elif isinstance(node, pyast.While):
            self._stmt_while(node)
        elif isinstance(node, pyast.If):
            self._stmt_if(node)
        elif isinstance(node, pyast.Return):
            self._stmt_return(node)
        elif isinstance(node, pyast.Expr):
            if self._is_docstring(node):
                return
            self._error(
                "Expression statements have no effect in the compiled subset "
                "(assign the result to a name)", node,
            )
        elif isinstance(node, pyast.Pass):
            return
        else:
            self._error(
                f"Unsupported statement {type(node).__name__!r}; the Python "
                "frontend supports assignments, for-range loops, while, "
                "if/elif/else and a final return", node,
            )

    # -- assignment ---------------------------------------------------------------------
    def _stmt_assign(self, node: pyast.Assign) -> None:
        if len(node.targets) != 1:
            self._error("Chained assignment (a = b = ...) is not supported", node)
        self._assign_target(node.targets[0], node.value, node)

    def _assign_target(self, target: pyast.expr, value: pyast.expr, node: pyast.stmt) -> None:
        if isinstance(target, pyast.Name):
            self._assign_name(target, value, node)
        elif isinstance(target, pyast.Subscript):
            self._assign_subscript(target, value, node)
        elif isinstance(target, (pyast.Tuple, pyast.List)):
            self._error("Tuple unpacking is not supported", node)
        else:
            self._error(
                f"Unsupported assignment target {type(target).__name__!r}", node
            )

    def _assign_name(self, target: pyast.Name, value: pyast.expr, node: pyast.stmt) -> None:
        name = target.id
        existing = self._lookup(name)
        if existing is not None and existing.kind == "size":
            self._error(f"Cannot assign to size parameter {name!r}", node)
        if existing is not None and existing.kind == "index":
            self._error(f"Cannot assign to loop variable {name!r}", node)

        if self._allocator_name(value) is not None:
            self._alloc_array(name, value, node)
            return

        translated = self._expression(value)
        if isinstance(translated, _ArrayExpr):
            if existing is None:
                if not name.isidentifier() or not name.isascii():
                    self._error(f"Array name {name!r} is not a valid identifier", node)
                self.block.append(c_ast.VarDecl(
                    name, _DOUBLE,
                    array_dims=[c_ast.IntLiteral(d) for d in translated.extent],
                ))
                self._declare(name, _Var("array", is_float=True,
                                         shape=translated.extent, line=node.lineno))
                self._materialize(self._whole_view(name, translated.extent),
                                  translated, "")
            else:
                if existing.kind != "array":
                    self._error(
                        f"Cannot assign an array expression to scalar {name!r}", node
                    )
                if existing.shape != translated.extent:
                    self._error(
                        f"Shape mismatch assigning to {name!r}: target has shape "
                        f"{existing.shape}, value has shape {translated.extent}", node,
                    )
                translated = self._dealias(name, value, translated)
                self._materialize(self._whole_view(name, existing.shape), translated, "")
            return

        # Scalar value.
        if existing is None:
            if not name.isidentifier() or not name.isascii():
                self._error(f"Scalar name {name!r} is not a valid identifier", node)
            ctype = _DOUBLE if translated.is_float else _INT
            self.block.append(c_ast.VarDecl(name, ctype, init=translated.expr))
            self._declare(name, _Var("scalar", is_float=translated.is_float,
                                     line=node.lineno))
            return
        if existing.kind != "scalar":
            self._error(f"Cannot assign a scalar to array {name!r}", node)
        if translated.is_float and not existing.is_float:
            self._error(
                f"Scalar {name!r} was initialized as an integer but is "
                "re-assigned a float; initialize it with a float literal "
                "(e.g. 0.0)", node,
            )
        self.block.append(c_ast.ExpressionStatement(
            c_ast.Assignment("", c_ast.Identifier(name), translated.expr)
        ))

    def _assign_subscript(self, target: pyast.Subscript, value: pyast.expr,
                          node: pyast.stmt, op: str = "") -> None:
        name, index_nodes = self._subscript_parts(target)
        if self._has_slice(index_nodes):
            view = self._view(name, index_nodes, target)
            translated = self._expression(value)
            translated = self._dealias(name, value, translated)
            self._materialize(view, translated, op, node)
            return
        element = self._element_target(name, index_nodes, target)
        translated = self._expression(value)
        if isinstance(translated, _ArrayExpr):
            self._error("Cannot store an array expression into a single element", node)
        self.block.append(c_ast.ExpressionStatement(
            c_ast.Assignment(op, element, translated.expr)
        ))

    _AUG_OPS = {pyast.Add: "+", pyast.Sub: "-", pyast.Mult: "*", pyast.Div: "/"}

    def _stmt_aug_assign(self, node: pyast.AugAssign) -> None:
        op = self._AUG_OPS.get(type(node.op))
        if op is None:
            self._error(
                f"Unsupported augmented assignment operator "
                f"{type(node.op).__name__!r} (use +=, -=, *= or /=)", node,
            )
        target = node.target
        if isinstance(target, pyast.Name):
            name = target.id
            var = self._lookup(name)
            if var is None:
                self._hint_undefined(name, node)
            if var.kind == "array":
                view = self._whole_view(name, var.shape)
                translated = self._dealias(name, node.value,
                                           self._expression(node.value))
                self._materialize(view, translated, op, node)
                return
            if var.kind != "scalar":
                self._error(f"Cannot update {var.kind} {name!r} in place", node)
            translated = self._expression(node.value)
            if isinstance(translated, _ArrayExpr):
                self._error(f"Cannot add an array into scalar {name!r}", node)
            if (translated.is_float or op == "/") and not var.is_float:
                self._error(
                    f"Scalar {name!r} is an integer but the update produces a "
                    "float; initialize it with a float literal (e.g. 0.0)", node,
                )
            self.block.append(c_ast.ExpressionStatement(
                c_ast.Assignment(op, c_ast.Identifier(name), translated.expr)
            ))
            return
        if isinstance(target, pyast.Subscript):
            self._assign_subscript(target, node.value, node, op=op)
            return
        self._error(
            f"Unsupported augmented-assignment target {type(target).__name__!r}",
            node,
        )

    # -- arrays: allocation, views, materialization ----------------------------------------
    def _allocator_name(self, node: pyast.expr) -> Optional[str]:
        if not isinstance(node, pyast.Call):
            return None
        callee = node.func
        if (isinstance(callee, pyast.Attribute)
                and isinstance(callee.value, pyast.Name)
                and callee.value.id in ("np", "numpy")
                and callee.attr in _ALLOCATORS):
            return callee.attr
        return None

    def _alloc_array(self, name: str, call: pyast.Call, node: pyast.stmt) -> None:
        kind = self._allocator_name(call)
        if self._lookup(name) is not None:
            self._error(
                f"Array {name!r} is already defined; allocate each array once "
                "(overwrite it elementwise instead)", node,
            )
        for keyword in call.keywords:
            if keyword.arg == "dtype":
                if not self._is_float64_dtype(keyword.value):
                    self._error(
                        "Only dtype=np.float64 arrays are supported", node
                    )
            else:
                self._error(
                    f"Unsupported np.{kind} keyword {keyword.arg!r}", node
                )
        expected = 2 if kind == "full" else 1
        if len(call.args) != expected:
            self._error(
                f"np.{kind} takes {expected} positional argument(s) "
                f"(shape{', fill value' if kind == 'full' else ''})", node,
            )
        shape = self._shape(call.args[0])
        self.block.append(c_ast.VarDecl(
            name, _DOUBLE, array_dims=[c_ast.IntLiteral(d) for d in shape]
        ))
        self._declare(name, _Var("array", is_float=True, shape=shape, line=node.lineno))
        if kind == "empty":
            return
        if kind == "full":
            fill = self._expression(call.args[1])
            if isinstance(fill, _ArrayExpr):
                self._error("np.full's fill value must be a scalar", node)
            fill_expr = fill.expr
        else:
            fill_expr = c_ast.FloatLiteral(1.0 if kind == "ones" else 0.0)
        view = self._whole_view(name, shape)
        self._materialize(view, _ArrayExpr(shape, lambda idx: fill_expr), "")

    @staticmethod
    def _is_float64_dtype(node: pyast.expr) -> bool:
        if (isinstance(node, pyast.Attribute) and isinstance(node.value, pyast.Name)
                and node.value.id in ("np", "numpy") and node.attr == "float64"):
            return True
        return isinstance(node, pyast.Constant) and node.value == "float64"

    def _shape(self, node: pyast.expr) -> Tuple[int, ...]:
        elements = node.elts if isinstance(node, (pyast.Tuple, pyast.List)) else [node]
        shape = []
        for element in elements:
            size = self._const_int(element)
            if size <= 0:
                self._error(f"Array dimensions must be positive, got {size}", element)
            shape.append(size)
        return tuple(shape)

    def _const_int(self, node: pyast.expr) -> int:
        """Resolve a compile-time integer through the symbolic engine.

        Shape and slice expressions may reference size parameters
        (``np.zeros((N + 1, 2 * M))``): the expression is parsed with
        :func:`repro.symbolic.parse_expr` and the program's size bindings
        substituted; whatever does not fold to an integer is an error
        naming the free symbols.
        """
        if isinstance(node, pyast.Constant) and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            return node.value
        try:
            text = pyast.unparse(node)
        except Exception:  # pragma: no cover - unparse covers all expr nodes
            self._error("Unsupported shape/bound expression", node)
        try:
            expr = parse_expr(text)
        except SymbolicError:
            self._error(
                f"Shape/slice expression {text!r} is not a supported integer "
                "expression", node,
            )
        sizes = {
            name: var.value
            for scope in self.scopes for name, var in scope.items()
            if var.kind == "size"
        }
        folded = expr.subs(sizes)
        if not isinstance(folded, Integer):
            free = sorted(str(s) for s in folded.free_symbols())
            self._error(
                f"Shape/slice expression {text!r} must be a compile-time "
                f"constant; unresolved symbol(s): {', '.join(free)} "
                "(only size parameters may appear here)", node,
            )
        return int(folded.value)

    def _subscript_parts(self, node: pyast.Subscript) -> Tuple[str, List[pyast.expr]]:
        if not isinstance(node.value, pyast.Name):
            self._error(
                "Subscripts must index a named array directly "
                "(use A[i, j] rather than intermediate views)", node,
            )
        index = node.slice
        indices = list(index.elts) if isinstance(index, pyast.Tuple) else [index]
        return node.value.id, indices

    @staticmethod
    def _has_slice(index_nodes: List[pyast.expr]) -> bool:
        return any(isinstance(index, pyast.Slice) for index in index_nodes)

    def _array_var(self, name: str, node) -> _Var:
        var = self._lookup(name)
        if var is None:
            self._hint_undefined(name, node)
        if var.kind != "array":
            self._error(f"{name!r} is not an array (it is a {var.kind})", node)
        return var

    def _element_target(self, name: str, index_nodes: List[pyast.expr], node) -> c_ast.Expression:
        var = self._array_var(name, node)
        if len(index_nodes) != len(var.shape):
            self._error(
                f"{name!r} has {len(var.shape)} dimension(s) but is indexed "
                f"with {len(index_nodes)}", node,
            )
        target: c_ast.Expression = c_ast.Identifier(name)
        for index in index_nodes:
            target = c_ast.Subscript(target, self._index_expr(index))
        return target

    def _index_expr(self, node: pyast.expr) -> c_ast.Expression:
        translated = self._expression(node)
        if isinstance(translated, _ArrayExpr):
            self._error("Array-valued indices are not supported", node)
        if translated.is_float:
            self._error("Array indices must be integers", node)
        return translated.expr

    def _view(self, name: str, index_nodes: List[pyast.expr], node) -> _ArrayExpr:
        """A (possibly sliced) view of a named array as a lazy array value."""
        var = self._array_var(name, node)
        if len(index_nodes) > len(var.shape):
            self._error(
                f"{name!r} has {len(var.shape)} dimension(s) but is indexed "
                f"with {len(index_nodes)}", node,
            )
        # Trailing unindexed dimensions are full slices (NumPy semantics).
        padded = index_nodes + [None] * (len(var.shape) - len(index_nodes))
        dims: List[Tuple[str, object, int]] = []
        extent: List[int] = []
        for index, size in zip(padded, var.shape):
            if index is None or isinstance(index, pyast.Slice):
                start, length = self._slice_range(index, size, node)
                dims.append(("range", start, length))
                extent.append(length)
            else:
                dims.append(("index", self._index_expr(index), 0))

        def element(indices: Sequence[c_ast.Expression]) -> c_ast.Expression:
            it = iter(indices)
            expr: c_ast.Expression = c_ast.Identifier(name)
            for kind, payload, _ in dims:
                if kind == "index":
                    expr = c_ast.Subscript(expr, payload)
                else:
                    loop_var = next(it)
                    offset = (loop_var if payload == 0 else
                              c_ast.BinaryOp("+", c_ast.IntLiteral(payload), loop_var))
                    expr = c_ast.Subscript(expr, offset)
            return expr

        return _ArrayExpr(tuple(extent), element)

    def _slice_range(self, node: Optional[pyast.Slice], size: int, owner) -> Tuple[int, int]:
        if node is None:
            return 0, size
        if node.step is not None and self._const_int(node.step) != 1:
            self._error("Only unit-step slices are supported", node)
        start = 0 if node.lower is None else self._const_int(node.lower)
        stop = size if node.upper is None else self._const_int(node.upper)
        if start < 0:
            start += size
        if stop < 0:
            stop += size
        start = max(0, min(start, size))
        stop = max(0, min(stop, size))
        if stop <= start:
            self._error(
                f"Slice selects no elements (start {start}, stop {stop} on a "
                f"dimension of size {size})", node,
            )
        return start, stop - start

    def _whole_view(self, name: str, shape: Tuple[int, ...]) -> _ArrayExpr:
        def element(indices: Sequence[c_ast.Expression]) -> c_ast.Expression:
            expr: c_ast.Expression = c_ast.Identifier(name)
            for index in indices:
                expr = c_ast.Subscript(expr, index)
            return expr

        return _ArrayExpr(shape, element)

    def _dealias(self, name: str, value_node: pyast.expr, value: _Value) -> _Value:
        """Restore NumPy's evaluate-RHS-first semantics for aliased stores.

        ``A[1:-1] = 0.5 * (A[:-2] + A[2:])`` must read the *old* A
        everywhere — NumPy materializes the RHS before storing, while our
        loop nest would read elements the same nest already overwrote.
        When the RHS mentions the target array, stage it through a
        temporary first (a later copy-elimination pass may fuse it back
        when the accesses do not actually overlap).
        """
        if not isinstance(value, _ArrayExpr):
            return value
        if not any(isinstance(n, pyast.Name) and n.id == name
                   for n in pyast.walk(value_node)):
            return value
        temp = self._fresh("tmp")
        self.block.append(c_ast.VarDecl(
            temp, _DOUBLE, array_dims=[c_ast.IntLiteral(d) for d in value.extent]
        ))
        self._materialize(self._whole_view(temp, value.extent), value, "")
        return self._whole_view(temp, value.extent)

    def _materialize(self, target: _ArrayExpr, value: _Value, op: str,
                     node=None) -> None:
        """Emit the loop nest storing an array value into a view."""
        if isinstance(value, _Scalar):
            scalar_expr = value.expr
            value = _ArrayExpr(target.extent, lambda idx: scalar_expr)
        if value.extent != target.extent:
            self._error(
                f"Shape mismatch: target has shape {target.extent}, value has "
                f"shape {value.extent}", node,
            )

        def body(indices: Sequence[c_ast.Expression]) -> List[c_ast.Statement]:
            return [c_ast.ExpressionStatement(
                c_ast.Assignment(op, target.element(indices), value.element(indices))
            )]

        self._emit_loops(target.extent, body)

    def _emit_loops(self, extent: Tuple[int, ...],
                    build_body: Callable[[Sequence[c_ast.Expression]], List[c_ast.Statement]]
                    ) -> None:
        names = [self._fresh("i") for _ in extent]
        indices = [c_ast.Identifier(n) for n in names]
        statement: c_ast.Statement = c_ast.Compound(build_body(indices))
        for name, size in reversed(list(zip(names, extent))):
            statement = c_ast.For(
                init=c_ast.VarDecl(name, _INT, init=c_ast.IntLiteral(0)),
                condition=c_ast.BinaryOp("<", c_ast.Identifier(name),
                                         c_ast.IntLiteral(size)),
                post=c_ast.IncDec("++", c_ast.Identifier(name)),
                body=c_ast.Compound([statement]),
            )
        self.block.append(statement)

    # -- control flow -----------------------------------------------------------------------
    def _stmt_for(self, node: pyast.For) -> None:
        if node.orelse:
            self._error("'for ... else' is not supported", node)
        if not isinstance(node.target, pyast.Name):
            self._error("Loop targets must be plain names", node)
        name = node.target.id
        if self._lookup(name) is not None:
            self._error(
                f"Loop variable {name!r} shadows an existing name; pick a "
                "fresh name per loop", node,
            )
        call = node.iter
        if not (isinstance(call, pyast.Call) and isinstance(call.func, pyast.Name)
                and call.func.id == "range"):
            self._error(
                "Only 'for <name> in range(...)' loops are supported "
                "(iterating arrays directly is not)", node,
            )
        if call.keywords or not 1 <= len(call.args) <= 3:
            self._error("range() takes 1 to 3 positional arguments", node)

        step = 1
        if len(call.args) == 3:
            step = self._const_int(call.args[2])
            if step == 0:
                self._error("range() step must not be zero", call.args[2])
        if len(call.args) == 1:
            start_expr: c_ast.Expression = c_ast.IntLiteral(0)
            stop_node = call.args[0]
        else:
            start_expr = self._index_expr(call.args[0])
            stop_node = call.args[1]
        stop_expr = self._index_expr(stop_node)

        comparison = "<" if step > 0 else ">"
        post_op, amount = ("+", step) if step > 0 else ("-", -step)
        self._push()
        self._declare(name, _Var("index", line=node.lineno))
        body = self._compound(node.body)
        self._pop()
        self.block.append(c_ast.For(
            init=c_ast.VarDecl(name, _INT, init=start_expr),
            condition=c_ast.BinaryOp(comparison, c_ast.Identifier(name), stop_expr),
            post=c_ast.Assignment(post_op, c_ast.Identifier(name),
                                  c_ast.IntLiteral(amount)),
            body=body,
        ))

    def _stmt_while(self, node: pyast.While) -> None:
        if node.orelse:
            self._error("'while ... else' is not supported", node)
        condition = self._condition(node.test)
        self._push()
        body = self._compound(node.body)
        self._pop()
        self.block.append(c_ast.While(condition, body))

    def _stmt_if(self, node: pyast.If) -> None:
        condition = self._condition(node.test)
        self._push()
        then_body = self._compound(node.body)
        self._pop()
        else_body: Optional[c_ast.Statement] = None
        if node.orelse:
            self._push()
            else_body = self._compound(node.orelse)
            self._pop()
        self.block.append(c_ast.If(condition, then_body, else_body))

    def _condition(self, node: pyast.expr) -> c_ast.Expression:
        translated = self._expression(node)
        if isinstance(translated, _ArrayExpr):
            self._error(
                "Conditions must be scalar (reduce the array first, e.g. "
                "with np.sum)", node,
            )
        return translated.expr

    def _stmt_return(self, node: pyast.Return) -> None:
        if node.value is None:
            self._error(
                "The program must return a scalar checksum "
                "(bare 'return' returns nothing)", node,
            )
        translated = self._expression(node.value)
        if isinstance(translated, _ArrayExpr):
            self._error(
                "Programs return a scalar checksum; reduce the array first "
                "(e.g. return float(np.sum(out)))", node,
            )
        self.return_type = _DOUBLE if translated.is_float else _INT
        self.block.append(c_ast.Return(translated.expr))

    # -- expressions -----------------------------------------------------------------------
    def _expression(self, node: pyast.expr) -> _Value:
        if isinstance(node, pyast.Constant):
            return self._constant(node)
        if isinstance(node, pyast.Name):
            return self._name(node)
        if isinstance(node, pyast.BinOp):
            return self._binop(node)
        if isinstance(node, pyast.UnaryOp):
            return self._unary(node)
        if isinstance(node, pyast.Compare):
            return self._compare(node)
        if isinstance(node, pyast.BoolOp):
            return self._boolop(node)
        if isinstance(node, pyast.Call):
            return self._call(node)
        if isinstance(node, pyast.Subscript):
            return self._subscript(node)
        if isinstance(node, pyast.IfExp):
            return self._ifexp(node)
        self._error(
            f"Unsupported expression {type(node).__name__!r}", node
        )

    def _constant(self, node: pyast.Constant) -> _Scalar:
        value = node.value
        if isinstance(value, bool):
            return _Scalar(c_ast.IntLiteral(int(value)), False)
        if isinstance(value, int):
            return _Scalar(c_ast.IntLiteral(value), False)
        if isinstance(value, float):
            return _Scalar(c_ast.FloatLiteral(value), True)
        self._error(f"Unsupported constant {value!r}", node)

    def _hint_undefined(self, name: str, node) -> NoReturn:
        if name in self.retired:
            self._error(
                f"{name!r} is not in scope here: it was first assigned inside "
                f"a conditional or loop (line {self.retired[name]}); assign "
                "it before entering that block", node,
            )
        self._error(f"Undefined name {name!r}", node)

    def _name(self, node: pyast.Name) -> _Value:
        var = self._lookup(node.id)
        if var is None:
            self._hint_undefined(node.id, node)
        if var.kind == "size":
            return _Scalar(c_ast.IntLiteral(var.value), False)
        if var.kind == "index":
            return _Scalar(c_ast.Identifier(node.id), False)
        if var.kind == "scalar":
            return _Scalar(c_ast.Identifier(node.id), var.is_float)
        return self._whole_view(node.id, var.shape)

    _BIN_OPS = {pyast.Add: "+", pyast.Sub: "-", pyast.Mult: "*", pyast.Div: "/",
                pyast.FloorDiv: "//", pyast.Mod: "%", pyast.Pow: "**"}

    def _binop(self, node: pyast.BinOp) -> _Value:
        op = self._BIN_OPS.get(type(node.op))
        if op is None:
            self._error(
                f"Unsupported binary operator {type(node.op).__name__!r}", node
            )
        lhs = self._expression(node.left)
        rhs = self._expression(node.right)
        if isinstance(lhs, _ArrayExpr) or isinstance(rhs, _ArrayExpr):
            return self._elementwise_binop(op, lhs, rhs, node)
        return self._scalar_binop(op, lhs, rhs, node)

    def _scalar_binop(self, op: str, lhs: _Scalar, rhs: _Scalar, node) -> _Scalar:
        if op == "/":
            # Python 3 semantics: '/' is true division even on integers.
            left = lhs.expr if lhs.is_float else c_ast.Cast(_DOUBLE, lhs.expr)
            return _Scalar(c_ast.BinaryOp("/", left, rhs.expr), True)
        if op == "//":
            if lhs.is_float or rhs.is_float:
                left = lhs.expr if lhs.is_float else c_ast.Cast(_DOUBLE, lhs.expr)
                return _Scalar(
                    c_ast.Call("floor", [c_ast.BinaryOp("/", left, rhs.expr)]), True
                )
            return _Scalar(c_ast.BinaryOp("/", lhs.expr, rhs.expr), False)
        if op == "%":
            if lhs.is_float or rhs.is_float:
                self._error("Float modulo is not supported", node)
            return _Scalar(c_ast.BinaryOp("%", lhs.expr, rhs.expr), False)
        if op == "**":
            exponent = self._small_int_literal(node.right)
            if exponent is not None and 2 <= exponent <= 4:
                expr = lhs.expr
                for _ in range(exponent - 1):
                    expr = c_ast.BinaryOp("*", expr, lhs.expr)
                return _Scalar(expr, lhs.is_float)
            return _Scalar(c_ast.Call("pow", [lhs.expr, rhs.expr]), True)
        is_float = lhs.is_float or rhs.is_float
        return _Scalar(c_ast.BinaryOp(op, lhs.expr, rhs.expr), is_float)

    @staticmethod
    def _small_int_literal(node: pyast.expr) -> Optional[int]:
        if isinstance(node, pyast.Constant) and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            return node.value
        return None

    def _elementwise_binop(self, op: str, lhs: _Value, rhs: _Value, node) -> _ArrayExpr:
        if op not in ("+", "-", "*", "/", "**"):
            self._error(
                f"Operator {op!r} is not supported elementwise on arrays", node
            )
        operands = []
        extent: Optional[Tuple[int, ...]] = None
        for value in (lhs, rhs):
            if isinstance(value, _ArrayExpr):
                if extent is not None and value.extent != extent:
                    self._error(
                        f"Shape mismatch in elementwise {op!r}: {extent} vs "
                        f"{value.extent}", node,
                    )
                extent = value.extent
                operands.append(value)
            else:
                operands.append(value)
        assert extent is not None

        def element(indices: Sequence[c_ast.Expression]) -> c_ast.Expression:
            sides = [
                _Scalar(v.element(indices), True) if isinstance(v, _ArrayExpr) else v
                for v in operands
            ]
            return self._scalar_binop(op, sides[0], sides[1], node).expr

        return _ArrayExpr(extent, element)

    def _unary(self, node: pyast.UnaryOp) -> _Value:
        operand = self._expression(node.operand)
        if isinstance(node.op, pyast.USub):
            if isinstance(operand, _ArrayExpr):
                return _ArrayExpr(
                    operand.extent,
                    lambda idx: c_ast.UnaryOp("-", operand.element(idx)),
                )
            return _Scalar(c_ast.UnaryOp("-", operand.expr), operand.is_float)
        if isinstance(node.op, pyast.UAdd):
            return operand
        if isinstance(node.op, pyast.Not):
            if isinstance(operand, _ArrayExpr):
                self._error("'not' is not supported on arrays", node)
            return _Scalar(c_ast.UnaryOp("!", operand.expr), False)
        self._error(
            f"Unsupported unary operator {type(node.op).__name__!r}", node
        )

    _CMP_OPS = {pyast.Lt: "<", pyast.LtE: "<=", pyast.Gt: ">", pyast.GtE: ">=",
                pyast.Eq: "==", pyast.NotEq: "!="}

    def _compare(self, node: pyast.Compare) -> _Scalar:
        if len(node.ops) != 1:
            self._error("Chained comparisons (a < b < c) are not supported", node)
        op = self._CMP_OPS.get(type(node.ops[0]))
        if op is None:
            self._error(
                f"Unsupported comparison {type(node.ops[0]).__name__!r}", node
            )
        lhs = self._expression(node.left)
        rhs = self._expression(node.comparators[0])
        if isinstance(lhs, _ArrayExpr) or isinstance(rhs, _ArrayExpr):
            self._error("Comparisons on whole arrays are not supported", node)
        return _Scalar(c_ast.BinaryOp(op, lhs.expr, rhs.expr), False)

    def _boolop(self, node: pyast.BoolOp) -> _Scalar:
        op = "&&" if isinstance(node.op, pyast.And) else "||"
        values = []
        for value_node in node.values:
            value = self._expression(value_node)
            if isinstance(value, _ArrayExpr):
                self._error("Boolean operators are not supported on arrays", node)
            values.append(value.expr)
        expr = values[0]
        for value in values[1:]:
            expr = c_ast.BinaryOp(op, expr, value)
        return _Scalar(expr, False)

    def _ifexp(self, node: pyast.IfExp) -> _Scalar:
        condition = self._condition(node.test)
        then_value = self._expression(node.body)
        else_value = self._expression(node.orelse)
        if isinstance(then_value, _ArrayExpr) or isinstance(else_value, _ArrayExpr):
            self._error("Conditional expressions must be scalar", node)
        return _Scalar(
            c_ast.Ternary(condition, then_value.expr, else_value.expr),
            then_value.is_float or else_value.is_float,
        )

    # -- subscript reads ---------------------------------------------------------------------
    def _subscript(self, node: pyast.Subscript) -> _Value:
        name, index_nodes = self._subscript_parts(node)
        if self._has_slice(index_nodes):
            return self._view(name, index_nodes, node)
        var = self._array_var(name, node)
        if len(index_nodes) < len(var.shape):
            return self._view(name, index_nodes, node)
        return _Scalar(self._element_target(name, index_nodes, node), True)

    # -- calls -------------------------------------------------------------------------------
    def _callee(self, node: pyast.expr) -> Tuple[Optional[str], str]:
        if isinstance(node, pyast.Name):
            return None, node.id
        if isinstance(node, pyast.Attribute) and isinstance(node.value, pyast.Name):
            owner = node.value.id
            if owner in ("np", "numpy"):
                return "np", node.attr
            if owner == "math":
                return "math", node.attr
            var = self._lookup(owner)
            if var is not None and var.kind == "array":
                return f"array:{owner}", node.attr
            self._error(
                f"Unsupported call target {owner!r}.{node.attr} (only np.*, "
                "math.*, array.sum/max/min and builtins are callable)", node,
            )
        self._error("Unsupported call form", node)

    def _call(self, node: pyast.Call) -> _Value:
        module, fname = self._callee(node.func)
        if node.keywords:
            self._error(
                f"Keyword arguments are not supported in calls to {fname!r}", node
            )
        if module is not None and module.startswith("array:"):
            array_name = module.split(":", 1)[1]
            if fname not in _REDUCTIONS:
                self._error(
                    f"Unsupported array method {fname!r} (supported: "
                    f"{', '.join(sorted(set(_REDUCTIONS)))} )", node,
                )
            if node.args:
                self._error(f"{array_name}.{fname}() takes no arguments", node)
            var = self._array_var(array_name, node)
            return self._reduction(_REDUCTIONS[fname],
                                   self._whole_view(array_name, var.shape), node)

        if module == "np":
            return self._np_call(fname, node)
        if module == "math":
            return self._math_call(fname, node)
        return self._builtin_call(fname, node)

    def _np_call(self, fname: str, node: pyast.Call) -> _Value:
        if fname in _ALLOCATORS:
            self._error(
                f"np.{fname} is only supported as a direct assignment "
                f"(name = np.{fname}(...)); arrays must be named", node,
            )
        if fname in _REDUCTIONS:
            value = self._one_arg(node, f"np.{fname}")
            if isinstance(value, _Scalar):
                self._error(f"np.{fname} expects an array argument", node)
            return self._reduction(_REDUCTIONS[fname], value, node)
        if fname in _NUMPY_MATH:
            value = self._one_arg(node, f"np.{fname}")
            return self._unary_math(_NUMPY_MATH[fname].c[0], value)
        if fname in ("maximum", "minimum"):
            if len(node.args) != 2:
                self._error(f"np.{fname} takes exactly two arguments", node)
            lhs = self._expression(node.args[0])
            rhs = self._expression(node.args[1])
            return self._extremum(fname == "maximum", lhs, rhs, node)
        if fname == "power":
            if len(node.args) != 2:
                self._error("np.power takes exactly two arguments", node)
            lhs = self._expression(node.args[0])
            rhs = self._expression(node.args[1])
            if isinstance(lhs, _ArrayExpr) or isinstance(rhs, _ArrayExpr):
                return self._elementwise_binop("**", lhs, rhs, node)
            return self._scalar_binop("**", lhs, rhs, node)
        self._error(
            f"Unsupported NumPy function np.{fname} (supported: allocation "
            f"{sorted(_ALLOCATORS)}, elementwise {sorted(_NUMPY_MATH)}, "
            f"maximum/minimum/power, reductions {sorted(set(_REDUCTIONS))})",
            node,
        )

    def _math_call(self, fname: str, node: pyast.Call) -> _Scalar:
        record = SOURCES.get(f"math.{fname}")
        if record is None:
            self._error(f"Unsupported math function math.{fname}", node)
        if len(node.args) != record.arity:
            self._error(f"math.{fname} takes exactly {record.arity} argument(s)", node)
        values = [self._expression(argument) for argument in node.args]
        if any(isinstance(value, _ArrayExpr) for value in values):
            numpy = [name for name in record.sources if name.startswith("np.")]
            self._error(f"math.{fname} operates on scalars"
                        + (f" (use {numpy[0]} for arrays)" if numpy else ""), node)
        return _Scalar(c_ast.Call(record.c[0], [value.expr for value in values]), True)

    def _builtin_call(self, fname: str, node: pyast.Call) -> _Value:
        if fname == "range":
            self._error("range() is only supported as a for-loop iterator", node)
        if fname in ("float", "int"):
            value = self._one_arg(node, fname)
            if isinstance(value, _ArrayExpr):
                self._error(f"{fname}() expects a scalar", node)
            target = _DOUBLE if fname == "float" else _INT
            return _Scalar(c_ast.Cast(target, value.expr), fname == "float")
        if fname == "abs":
            value = self._one_arg(node, "abs")
            return self._unary_math("fabs", value)
        if fname == "len":
            value = self._one_arg(node, "len")
            if isinstance(value, _Scalar):
                self._error("len() expects an array", node)
            return _Scalar(c_ast.IntLiteral(value.extent[0]), False)
        if fname in ("min", "max"):
            if len(node.args) != 2:
                self._error(
                    f"builtin {fname}() supports exactly two scalar arguments "
                    f"(use np.{fname} for array reductions)", node,
                )
            lhs = self._expression(node.args[0])
            rhs = self._expression(node.args[1])
            if isinstance(lhs, _ArrayExpr) or isinstance(rhs, _ArrayExpr):
                self._error(
                    f"builtin {fname}() operates on scalars (use np.maximum/"
                    "np.minimum elementwise or np.max/np.min to reduce)", node,
                )
            return self._extremum(fname == "max", lhs, rhs, node)
        self._error(f"Unsupported function {fname!r}", node)

    def _one_arg(self, node: pyast.Call, label: str) -> _Value:
        if len(node.args) != 1:
            self._error(f"{label} takes exactly one argument", node)
        return self._expression(node.args[0])

    def _unary_math(self, cname: str, value: _Value) -> _Value:
        if isinstance(value, _ArrayExpr):
            return _ArrayExpr(
                value.extent,
                lambda idx: c_ast.Call(cname, [value.element(idx)]),
            )
        return _Scalar(c_ast.Call(cname, [value.expr]), True)

    def _extremum(self, is_max: bool, lhs: _Value, rhs: _Value, node) -> _Value:
        comparison = ">" if is_max else "<"

        def pick(left: c_ast.Expression, right: c_ast.Expression) -> c_ast.Expression:
            return c_ast.Ternary(c_ast.BinaryOp(comparison, left, right), left, right)

        if isinstance(lhs, _ArrayExpr) or isinstance(rhs, _ArrayExpr):
            extent = lhs.extent if isinstance(lhs, _ArrayExpr) else rhs.extent
            for value in (lhs, rhs):
                if isinstance(value, _ArrayExpr) and value.extent != extent:
                    self._error(
                        f"Shape mismatch: {lhs.extent if isinstance(lhs, _ArrayExpr) else 'scalar'}"
                        f" vs {rhs.extent if isinstance(rhs, _ArrayExpr) else 'scalar'}",
                        node,
                    )

            def element(indices: Sequence[c_ast.Expression]) -> c_ast.Expression:
                left = lhs.element(indices) if isinstance(lhs, _ArrayExpr) else lhs.expr
                right = rhs.element(indices) if isinstance(rhs, _ArrayExpr) else rhs.expr
                return pick(left, right)

            return _ArrayExpr(extent, element)
        return _Scalar(pick(lhs.expr, rhs.expr), lhs.is_float or rhs.is_float)

    def _reduction(self, kind: str, value: _ArrayExpr, node) -> _Scalar:
        """Emit accumulator + loop nest for a full reduction; value is the scalar."""
        accumulator = self._fresh("acc")
        total = 1
        for size in value.extent:
            total *= size
        if kind in ("sum", "mean"):
            self.block.append(c_ast.VarDecl(accumulator, _DOUBLE,
                                            init=c_ast.FloatLiteral(0.0)))

            def body(indices: Sequence[c_ast.Expression]) -> List[c_ast.Statement]:
                return [c_ast.ExpressionStatement(c_ast.Assignment(
                    "+", c_ast.Identifier(accumulator), value.element(indices)
                ))]

            self._emit_loops(value.extent, body)
            result: c_ast.Expression = c_ast.Identifier(accumulator)
            if kind == "mean":
                result = c_ast.BinaryOp("/", result, c_ast.FloatLiteral(float(total)))
            return _Scalar(result, True)

        # max / min: seed with the first element, then fold.
        comparison = ">" if kind == "max" else "<"
        first = value.element([c_ast.IntLiteral(0)] * len(value.extent))
        self.block.append(c_ast.VarDecl(accumulator, _DOUBLE, init=first))

        def body(indices: Sequence[c_ast.Expression]) -> List[c_ast.Statement]:
            element = value.element(indices)
            return [c_ast.ExpressionStatement(c_ast.Assignment(
                "", c_ast.Identifier(accumulator),
                c_ast.Ternary(
                    c_ast.BinaryOp(comparison, element,
                                   c_ast.Identifier(accumulator)),
                    element, c_ast.Identifier(accumulator),
                ),
            ))]

        self._emit_loops(value.extent, body)
        return _Scalar(c_ast.Identifier(accumulator), True)


def python_to_c_ast(program: PythonProgram) -> c_ast.TranslationUnit:
    """Translate a bound Python program into the shared frontend C AST."""
    return Translator(program).translate()
