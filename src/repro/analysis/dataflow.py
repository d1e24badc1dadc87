"""Interprocedural dtype & effect dataflow analysis (rules DF601-DF612).

PRs 4-5 made the float32 precision contract, the parallel executor, and
the tracer first-class, but enforced them only at *runtime*: SZ505
catches dtype drift when a test happens to execute the drifting path,
``verify_safe`` vets a schedule when it is launched, and the tracer's
overhead gate needs a benchmark run.  This pass proves the same three
contracts *statically*, before any code executes:

**Dtype lattice (DF601-DF605).**  A six-point lattice is propagated
through assignments, calls, and NumPy allocations::

    BOTTOM < {F32, F64, FACTOR} < MIXED < UNKNOWN

``FACTOR`` marks values whose precision follows the runtime factor/value
dtype (the sanctioned state: ``check_factors`` / ``factor_dtype`` /
``value_dtype_of`` results and anything derived from them); ``F32``/
``F64`` mark values pinned to a literal precision; ``MIXED`` is the
error state two distinct concrete precisions join into; ``UNKNOWN`` is
top (no claim, never flagged).  On precision-contract paths (files under
``kernels``/``cpd``/``exec``/``tune``/``machine``/``dist``, plus every
kernel method wherever it lives) the pass flags literal
``dtype=np.float64`` allocations (DF601), dtype-less allocations whose
float64 default silently widens float32 pipelines (DF602), widening
``.astype`` casts of factor-derived values (DF603), and mixed-precision
binops (DF604 when both sides are locally evident, DF605 when one side
arrived through a cross-function summary — the interprocedural variant).

**The VALUE_DTYPE alias (DF612).**  ``VALUE_DTYPE`` is the sanctioned
float64 *default*, so allocating with it is normally silent — but it is
still a literal-float64 sink, and the original ``repro.dist`` upcast bug
hid behind exactly that: factor-derived values flowed into
``dtype=VALUE_DTYPE`` allocations.  The lattice therefore carries a
``pinned`` provenance bit on values resolved from the ``VALUE_DTYPE``
constant, and DF612 fires when (a) a pinned-float64 allocation happens
while a factor-derived value is live in the function, (b) a pinned
``.astype``/cast widens a factor-derived value, or (c) a pinned-float64
value is bound to ``factors``/``factor``.  Derive the dtype with
``value_dtype_of`` / ``factor_dtype`` instead.

**Write effects (DF606-DF608).**  Worker-task functions (anything passed
to a pool's ``submit``) and kernel ``prepare``/``execute`` bodies must
write only through their own arguments — their partitioned output view —
never through module-level or closure state (DF606, including writes
reached through a summarized helper).  Process-backend tasks are pickled
into a child: capturing module-level mutable state is a silent
divergence (DF607), and submitting lambdas/nested functions or known
unpicklable arguments fails at runtime on some platforms only (DF608).

**Tracer placement (DF609-DF610).**  The tracer's design forbids
per-nonzero emission (its disabled-path overhead gate is ≤5% *because*
hooks run per call/block).  Emission inside a per-element loop is DF609
anywhere; emission inside *any* loop of a kernel body is DF610 —
counters there must be accumulated per call, as ``_traced_execute``
does.

**Registration gate (DF611).**  :func:`enforce_kernel_dataflow` runs the
same checks over a ``Kernel`` subclass's ``prepare``/``execute`` source
at class-definition / registration time and raises
:class:`~repro.util.errors.RegistrationError` on any error-severity
finding, so a contract-violating backend cannot enter the registry.
Opt out with ``REPRO_DATAFLOW_VET=0`` (or per class:
``class K(Kernel, dataflow_vet=False)``), e.g. for deliberately broken
kernels in tests.

Run it with ``repro check --dataflow``; suppress individual findings
with ``# repro: noqa[DF601]`` (suppressions are honoured by the
registration gate too).
"""

from __future__ import annotations

import ast
import enum
import functools
import inspect
import os
import textwrap
import weakref
from dataclasses import dataclass, field, replace
from pathlib import PurePath
from typing import Iterable, Sequence

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    apply_suppressions,
    suppressions_for_source,
)
from repro.analysis.hotpath import _dotted_chain, _per_element_index_var

#: Directories whose files are precision-contract paths for the dtype
#: rules (DF601-DF605).  Kernel-class methods are in scope regardless.
DTYPE_SCOPE_DIRS: frozenset = frozenset(
    {"kernels", "cpd", "exec", "tune", "machine", "dist"}
)

#: Environment opt-out for the registration-time gate (DF611): set to
#: ``0`` / ``false`` / ``off`` to define/register kernels unvetted.
VET_ENV_VAR = "REPRO_DATAFLOW_VET"


def is_dtype_scope(file: str) -> bool:
    """True when ``file`` lies on a precision-contract path."""
    return bool(DTYPE_SCOPE_DIRS.intersection(PurePath(file).parts[:-1]))


def is_kernel_file(file: str) -> bool:
    """True for modules under a ``kernels`` directory (DF610 scope)."""
    return "kernels" in PurePath(file).parts[:-1]


# ---------------------------------------------------------------------
# The dtype lattice
# ---------------------------------------------------------------------
class DType(enum.Enum):
    """One point of the precision lattice."""

    BOTTOM = "bottom"  # no information yet (identity of join)
    F32 = "f32"  # pinned to float32 by a literal
    F64 = "f64"  # pinned to float64 by a literal / numpy default
    FACTOR = "factor"  # follows the runtime factor/value dtype
    MIXED = "mixed"  # two distinct concrete precisions met (error state)
    UNKNOWN = "unknown"  # top: no claim is made

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The three incomparable concrete points between BOTTOM and MIXED.
CONCRETE = frozenset({DType.F32, DType.F64, DType.FACTOR})


def join(a: DType, b: DType) -> DType:
    """Least upper bound of two lattice points.

    Commutative, associative, idempotent (property-tested); BOTTOM is
    the identity, UNKNOWN absorbs, and any two distinct points of
    ``{F32, F64, FACTOR, MIXED}`` join to MIXED.
    """
    if a is b:
        return a
    if a is DType.UNKNOWN or b is DType.UNKNOWN:
        return DType.UNKNOWN
    if a is DType.BOTTOM:
        return b
    if b is DType.BOTTOM:
        return a
    return DType.MIXED


def join_all(values: Iterable[DType]) -> DType:
    """Fold :func:`join` over ``values`` (BOTTOM for an empty iterable)."""
    return functools.reduce(join, values, DType.BOTTOM)


@dataclass(frozen=True)
class Value:
    """A lattice point plus its provenance: ``via_call`` marks values
    that flowed through a cross-function summary (DF605 vs DF604);
    ``pinned`` marks float64 resolved from the ``VALUE_DTYPE`` module
    constant (the DF612 sink)."""

    dtype: DType = DType.UNKNOWN
    via_call: bool = False
    pinned: bool = False


UNKNOWN = Value()
BOTTOM = Value(DType.BOTTOM)
FACTOR = Value(DType.FACTOR)
PINNED_F64 = Value(DType.F64, pinned=True)


def join_values(a: Value, b: Value) -> Value:
    return Value(join(a.dtype, b.dtype), a.via_call or b.via_call, a.pinned or b.pinned)


def is_pinned_f64(v: Value) -> bool:
    """True for float64 values that trace back to ``VALUE_DTYPE``."""
    return v.dtype is DType.F64 and v.pinned


# ---------------------------------------------------------------------
# Function summaries (the interprocedural layer)
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class FunctionSummary:
    """What one scanned function looks like from a call site."""

    name: str
    file: str
    line: int
    #: Join of the function's return expressions under seeded params.
    returns: DType = DType.UNKNOWN
    #: Module-level names the function (transitively) writes through.
    global_writes: tuple[str, ...] = ()


#: Functions with built-in meaning; never shadowed by summaries.
_FACTOR_CALLS = frozenset({"check_factors", "factor_dtype", "value_dtype_of"})
_ALLOCATORS = {"zeros": 1, "empty": 1, "ones": 1, "full": 2}
_LIKE_ALLOCATORS = frozenset({"zeros_like", "empty_like", "ones_like", "full_like"})
_COERCERS = frozenset({"array", "asarray", "asanyarray", "ascontiguousarray"})
_TRACER_EMITTERS = frozenset({"span", "count", "metric", "add_span"})
_UNPICKLABLE_CTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore", "open"})


def _classify_dtype_literal(node: "ast.expr | None") -> "DType | None":
    """F32/F64 when ``node`` literally spells a float dtype, else None."""
    if node is None:
        return None
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id in ("np", "numpy"):
            if node.attr in ("float64", "double"):
                return DType.F64
            if node.attr in ("float32", "single"):
                return DType.F32
    if isinstance(node, ast.Name) and node.id == "float":
        return DType.F64
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value in ("float64", "f8", "double", "d"):
            return DType.F64
        if node.value in ("float32", "f4", "single", "f"):
            return DType.F32
    return None


def _dtype_argument(call: ast.Call, pos: "int | None") -> "ast.expr | None":
    """The dtype argument of an allocator/coercer call, if present."""
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    if pos is not None and len(call.args) > pos:
        return call.args[pos]
    return None


def _assigned_names(node: ast.AST) -> set[str]:
    """Every name bound anywhere inside ``node``: assignments, loop and
    with targets, walrus, comprehension targets, imports, nested defs,
    exception aliases, function parameters.

    Store-context only — the root of ``STATE[k] = 1`` is a *load* of
    ``STATE`` (a write through it, not a binding of it), which is
    exactly the distinction the effect rules hinge on.
    """
    names: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del)):
            names.add(n.id)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            for alias in n.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(n.name)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            names.add(n.name)
        elif isinstance(n, ast.arg):
            names.add(n.arg)
    return names


def _param_names(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _store_root(target: ast.expr) -> "str | None":
    """Root name of a subscript/attribute store target
    (``plan.scratch[i]`` -> ``plan``), or None for other shapes."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


# ---------------------------------------------------------------------
# Module-shape extraction
# ---------------------------------------------------------------------
@dataclass
class ModuleInfo:
    """Structural facts about one module the per-function passes need."""

    file: str
    tree: ast.Module
    #: Names bound at module level (assignments + imports + defs).
    global_names: set[str] = field(default_factory=set)
    #: Module-level names bound to mutable containers.
    mutable_globals: set[str] = field(default_factory=set)
    #: Module-level function-def names.
    function_names: set[str] = field(default_factory=set)
    #: Worker-task function name -> pool context (process/thread/any).
    worker_context: dict = field(default_factory=dict)
    #: ``(call, context, enclosing_fn)`` for every ``pool.submit`` site.
    submit_sites: list = field(default_factory=list)
    #: ``(fn_def, class_name)`` for kernel-class prepare/execute bodies.
    kernel_methods: list = field(default_factory=list)
    #: Every analyzable function: ``(fn_def, kernel_class_or_None)``.
    functions: list = field(default_factory=list)


def _is_mutable_ctor(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else (f.attr if isinstance(f, ast.Attribute) else "")
        return name in ("list", "dict", "set", "bytearray", "defaultdict", "deque", "OrderedDict", "Counter")
    return False


def _kernel_base(cls: ast.ClassDef) -> bool:
    """A class is kernel-shaped when any base's last component ends with
    ``Kernel`` (covers ``Kernel``, ``base.Kernel``, ``SplattKernel``)."""
    for b in cls.bases:
        last = b.id if isinstance(b, ast.Name) else (b.attr if isinstance(b, ast.Attribute) else "")
        if last.endswith("Kernel"):
            return True
    return False


def _pool_context(call: ast.expr) -> "str | None":
    """``process``/``thread`` for a ``*PoolExecutor(...)`` constructor."""
    if not isinstance(call, ast.Call):
        return None
    f = call.func
    name = f.id if isinstance(f, ast.Name) else (f.attr if isinstance(f, ast.Attribute) else "")
    if name == "ProcessPoolExecutor":
        return "process"
    if name == "ThreadPoolExecutor":
        return "thread"
    return None


def module_info(tree: ast.Module, file: str) -> ModuleInfo:
    info = ModuleInfo(file=file, tree=tree)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for sub in ast.walk(t):
                    if isinstance(sub, ast.Name):
                        info.global_names.add(sub.id)
                        if node.value is not None and _is_mutable_ctor(node.value):
                            info.mutable_globals.add(sub.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                info.global_names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.global_names.add(node.name)
            info.function_names.add(node.name)
            info.functions.append((node, None))
        elif isinstance(node, ast.ClassDef):
            info.global_names.add(node.name)
            kernel = _kernel_base(node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls_name = node.name if kernel else None
                    info.functions.append((item, cls_name))
                    if kernel and item.name in ("prepare", "execute"):
                        info.kernel_methods.append((item, node.name))

    # Pool contexts: `with ProcessPoolExecutor(...) as pool:` binds a
    # pool name whose .submit sites (and their callables) we record.
    for fn, _cls in info.functions:
        local_defs = {
            n.name
            for n in ast.walk(fn)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n is not fn
        }
        for node in ast.walk(fn):
            if not isinstance(node, ast.With):
                continue
            for item in node.items:
                ctx = _pool_context(item.context_expr)
                if ctx is None or not isinstance(item.optional_vars, ast.Name):
                    continue
                pool_name = item.optional_vars.id
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "submit"
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == pool_name
                    ):
                        info.submit_sites.append((sub, ctx, local_defs))
                        if sub.args and isinstance(sub.args[0], ast.Name):
                            name = sub.args[0].id
                            prev = info.worker_context.get(name)
                            info.worker_context[name] = (
                                ctx if prev in (None, ctx) else "any"
                            )
    return info


# ---------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------
def _direct_global_writes(fn: ast.FunctionDef) -> set[str]:
    """Names the function stores through without binding them locally
    (subscript/attribute stores whose root is a free variable, plus
    assignments to ``global``-declared names)."""
    local = set(_param_names(fn)) | _assigned_names(fn)
    declared_global: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    writes: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id in declared_global:
                    writes.add(t.id)
                elif isinstance(t, (ast.Subscript, ast.Attribute)):
                    root = _store_root(t)
                    if root is not None and root not in local:
                        writes.add(root)
    return writes


def build_summaries(
    modules: Sequence[ModuleInfo], rounds: int = 2
) -> dict:
    """Two-round fixpoint over every scanned function: round one infers
    return dtypes and direct global writes with an empty table, round
    two re-infers with round one's table so helper-of-helper returns and
    transitive global writes propagate."""
    summaries: dict = {}
    for _ in range(max(1, rounds)):
        next_table: dict = {}
        for info in modules:
            for fn, cls_name in info.functions:
                analyzer = _DtypeAnalyzer(
                    info,
                    summaries,
                    diags=None,
                    check_dtype=False,
                    file=info.file,
                )
                returns = analyzer.run(fn)
                writes = set(_direct_global_writes(fn))
                # Transitive effects: calling a global-writing helper is
                # itself a global write.
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        name = _call_last_name(node)
                        s = summaries.get(name)
                        if s is not None:
                            writes.update(s.global_writes)
                summary = FunctionSummary(
                    name=fn.name,
                    file=info.file,
                    line=fn.lineno,
                    returns=returns,
                    global_writes=tuple(sorted(writes)),
                )
                prior = next_table.get(fn.name)
                if prior is not None:
                    # Same bare name in several modules: keep the join so
                    # call resolution stays conservative.
                    summary = FunctionSummary(
                        name=fn.name,
                        file=prior.file,
                        line=prior.line,
                        returns=join(prior.returns, summary.returns),
                        global_writes=tuple(
                            sorted(set(prior.global_writes) | writes)
                        ),
                    )
                next_table[fn.name] = summary
        summaries = next_table
    return summaries


def _call_last_name(call: ast.Call) -> "str | None":
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


# ---------------------------------------------------------------------
# Per-function dtype propagation (DF601-DF605)
# ---------------------------------------------------------------------
class _DtypeAnalyzer:
    """Abstract interpretation of one function body over the lattice.

    With ``diags=None`` the analyzer only computes the return value's
    lattice point (summary collection); with a list it also emits
    diagnostics when ``check_dtype`` is set.
    """

    def __init__(
        self,
        module: "ModuleInfo | None",
        summaries: dict,
        diags: "list[Diagnostic] | None",
        *,
        check_dtype: bool,
        file: str,
    ) -> None:
        self.module = module
        self.summaries = summaries
        self.diags = diags
        self.check_dtype = check_dtype and diags is not None
        self.file = file
        self.env: dict[str, Value] = {}
        self.ret = DType.BOTTOM

    # -- entry --------------------------------------------------------
    def run(self, fn: ast.FunctionDef) -> DType:
        for name in _param_names(fn):
            self.env[name] = FACTOR if name in ("factors", "factor") else UNKNOWN
        self.exec_block(fn.body)
        return self.ret

    # -- diagnostics --------------------------------------------------
    def _diag(self, rule: str, node: ast.AST, message: str, hint: str) -> None:
        if self.check_dtype:
            self.diags.append(
                Diagnostic(
                    rule,
                    self.file,
                    getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0),
                    message,
                    hint=hint,
                )
            )

    # -- statements ---------------------------------------------------
    def exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def _merge(self, other_env: dict) -> None:
        for name in set(self.env) | set(other_env):
            a = self.env.get(name, BOTTOM)
            b = other_env.get(name, BOTTOM)
            self.env[name] = join_values(a, b)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign([stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            lhs = self.eval(stmt.target)
            rhs = self.eval(stmt.value)
            self._check_binop(stmt, lhs, rhs)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = join_values(lhs, rhs)
        elif isinstance(stmt, ast.Return):
            v = self.eval(stmt.value) if stmt.value is not None else BOTTOM
            self.ret = join(self.ret, v.dtype)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Elements of a container inherit the container's point.
            v = self.eval(stmt.iter)
            for sub in ast.walk(stmt.target):
                if isinstance(sub, ast.Name):
                    self.env[sub.id] = v
            snapshot = dict(self.env)
            self.exec_block(stmt.body)
            self._merge(snapshot)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            snapshot = dict(self.env)
            self.exec_block(stmt.body)
            self._merge(snapshot)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            before = dict(self.env)
            self.exec_block(stmt.body)
            taken = self.env
            self.env = before
            self.exec_block(stmt.orelse)
            self._merge(taken)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                v = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    for sub in ast.walk(item.optional_vars):
                        if isinstance(sub, ast.Name):
                            self.env[sub.id] = v
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        # Nested defs/classes, pass, raise, etc.: no dtype flow tracked.

    def _factor_live(self) -> bool:
        """A factor-derived value is bound somewhere in this function."""
        return any(v.dtype is DType.FACTOR for v in self.env.values())

    def _assign(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        v = self.eval(value)
        check_factors_call = (
            isinstance(value, ast.Call)
            and _call_last_name(value) == "check_factors"
        )
        for t in targets:
            if isinstance(t, ast.Name):
                if t.id in ("factors", "factor") and is_pinned_f64(v):
                    self._diag(
                        "DF612",
                        value,
                        f"{t.id!r} is bound to a VALUE_DTYPE-pinned float64 "
                        "value; a float32 run is silently upcast at this "
                        "binding",
                        hint="derive the dtype from the runtime inputs "
                        "(value_dtype_of(tensor.values) / factor_dtype)",
                    )
                self.env[t.id] = v
            elif isinstance(t, (ast.Tuple, ast.List)):
                for i, elt in enumerate(t.elts):
                    if isinstance(elt, ast.Name):
                        if check_factors_call:
                            # (factors, rank) = check_factors(...)
                            self.env[elt.id] = FACTOR if i == 0 else UNKNOWN
                        else:
                            self.env[elt.id] = v
            # Subscript/attribute stores: effects pass territory.

    # -- expressions --------------------------------------------------
    def eval(self, node: "ast.expr | None") -> Value:
        if node is None:
            return BOTTOM
        if isinstance(node, ast.Constant):
            return BOTTOM  # python scalars promote weakly
        if isinstance(node, ast.Name):
            if node.id == "VALUE_DTYPE":
                return PINNED_F64
            return self.env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                lit = _classify_dtype_literal(node)
                return Value(lit) if lit is not None else UNKNOWN
            if node.attr in ("dtype", "T", "real", "flat"):
                return self.eval(node.value)
            return UNKNOWN
        if isinstance(node, ast.Subscript):
            return self.eval(node.value)
        if isinstance(node, ast.BinOp):
            lhs = self.eval(node.left)
            rhs = self.eval(node.right)
            self._check_binop(node, lhs, rhs)
            return join_values(lhs, rhs)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.Tuple, ast.List)):
            vals = [self.eval(e) for e in node.elts if not isinstance(e, ast.Starred)]
            return functools.reduce(join_values, vals, BOTTOM)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return join_values(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.NamedExpr):
            v = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = v
            return v
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(node.generators, node.elt)
        if isinstance(node, ast.DictComp):
            return self._eval_comprehension(node.generators, node.value)
        if isinstance(node, ast.Compare):
            return BOTTOM
        return UNKNOWN

    def _eval_comprehension(
        self, generators: Sequence[ast.comprehension], elt: ast.expr
    ) -> Value:
        """Bind each generator target to its iterable's point, then the
        comprehension's point is the element expression's — so
        ``[np.ascontiguousarray(f, dtype=VALUE_DTYPE) for f in init]``
        carries the pinned-float64 provenance DF612 needs."""
        for gen in generators:
            v = self.eval(gen.iter)
            for sub in ast.walk(gen.target):
                if isinstance(sub, ast.Name):
                    self.env[sub.id] = v
            for cond in gen.ifs:
                self.eval(cond)
        return self.eval(elt)

    def _check_binop(self, node: ast.AST, lhs: Value, rhs: Value) -> None:
        if lhs.dtype in CONCRETE and rhs.dtype in CONCRETE and lhs.dtype is not rhs.dtype:
            rule = "DF605" if (lhs.via_call or rhs.via_call) else "DF604"
            via = " (one side arrived through a function summary)" if rule == "DF605" else ""
            self._diag(
                rule,
                node,
                f"mixed-precision operation: {lhs.dtype} combined with "
                f"{rhs.dtype}{via} silently widens float32 pipelines",
                hint="derive both operands from one dtype (factor_dtype / "
                "value_dtype_of) instead of pinning a literal precision",
            )

    def _eval_call(self, node: ast.Call) -> Value:
        f = node.func
        # .astype(...) and np.float64(...) casts -------------------------
        if isinstance(f, ast.Attribute) and f.attr == "astype":
            recv = self.eval(f.value)
            arg = node.args[0] if node.args else _dtype_argument(node, None)
            lit = _classify_dtype_literal(arg)
            if lit is DType.F64:
                if recv.dtype in (DType.FACTOR, DType.F32):
                    self._diag(
                        "DF603",
                        node,
                        "widening .astype(float64) on a factor-derived value "
                        "breaks the precision contract",
                        hint="cast to the pipeline's own dtype "
                        "(.astype(A.dtype) / the factor_dtype result)",
                    )
                return Value(DType.F64, recv.via_call)
            if lit is DType.F32:
                return Value(DType.F32, recv.via_call)
            if arg is not None:
                arg_v = self.eval(arg)
                if is_pinned_f64(arg_v) and recv.dtype in (DType.FACTOR, DType.F32):
                    self._diag(
                        "DF612",
                        node,
                        ".astype(VALUE_DTYPE) widens a factor-derived value "
                        "to the pinned float64 default",
                        hint="cast to the pipeline's own dtype "
                        "(.astype(A.dtype) / the factor_dtype result)",
                    )
                return arg_v
            return recv

        chain = _dotted_chain(f) if isinstance(f, ast.Attribute) else None
        if chain is not None and chain[0] in ("np", "numpy"):
            attr = f.attr  # type: ignore[union-attr]
            if attr in ("float64", "double"):
                arg_v = self.eval(node.args[0]) if node.args else BOTTOM
                if arg_v.dtype in (DType.FACTOR, DType.F32):
                    self._diag(
                        "DF603",
                        node,
                        "np.float64(...) widens a factor-derived value",
                        hint="stay in the factor dtype; use the array's own "
                        ".dtype for casts",
                    )
                return Value(DType.F64)
            if attr == "float32":
                return Value(DType.F32)
            if attr in _ALLOCATORS:
                dtype_node = _dtype_argument(node, _ALLOCATORS[attr])
                if dtype_node is None:
                    self._diag(
                        "DF602",
                        node,
                        f"np.{attr}(...) without an explicit dtype defaults "
                        "to float64 on a precision-contract path",
                        hint="pass dtype= derived from the inputs "
                        "(factor_dtype(factors), A.dtype)",
                    )
                    return Value(DType.F64)
                return self._dtype_value(node, dtype_node, f"np.{attr}")
            if attr in _LIKE_ALLOCATORS:
                dtype_node = _dtype_argument(node, None)
                if dtype_node is None:
                    return self.eval(node.args[0]) if node.args else UNKNOWN
                return self._dtype_value(node, dtype_node, f"np.{attr}")
            if attr in _COERCERS:
                dtype_node = _dtype_argument(node, None)
                if dtype_node is not None:
                    return self._dtype_value(node, dtype_node, f"np.{attr}")
                return self.eval(node.args[0]) if node.args else UNKNOWN
            # Other numpy functions: propagate the join of the args.
            vals = [self.eval(a) for a in node.args if not isinstance(a, ast.Starred)]
            return functools.reduce(join_values, vals, BOTTOM) if vals else UNKNOWN

        name = _call_last_name(node)
        if name in _FACTOR_CALLS:
            return FACTOR
        if name == "alloc_output":
            dtype_node = _dtype_argument(node, 3)
            if dtype_node is not None:
                return self._dtype_value(node, dtype_node, "alloc_output")
            # alloc_output's default is VALUE_DTYPE (float64).
            return Value(DType.F64)
        summary = self.summaries.get(name) if name else None
        if summary is not None and not (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id in ("np", "numpy")
        ):
            for a in node.args:
                self.eval(a)
            return Value(summary.returns, via_call=True)
        # Unknown call; method calls keep their receiver's point so
        # `arr.sum()` / `f.max(axis=0)` stay in the pipeline's dtype.
        for a in node.args:
            self.eval(a)
        if isinstance(f, ast.Attribute):
            return self.eval(f.value)
        return UNKNOWN

    def _dtype_value(self, call: ast.Call, dtype_node: ast.expr, what: str) -> Value:
        lit = _classify_dtype_literal(dtype_node)
        if lit is DType.F64:
            self._diag(
                "DF601",
                call,
                f"{what}(..., dtype=float64) pins a literal precision on a "
                "precision-contract path",
                hint="derive the dtype from the inputs (factor_dtype, "
                ".dtype of the source array) or use VALUE_DTYPE if the "
                "promotion is the sanctioned default",
            )
            return Value(DType.F64)
        if lit is DType.F32:
            return Value(DType.F32)
        v = self.eval(dtype_node)
        if is_pinned_f64(v) and self._factor_live():
            self._diag(
                "DF612",
                call,
                f"{what}(..., dtype=VALUE_DTYPE) pins float64 while "
                "factor-derived values are live in this function — a "
                "float32 pipeline is silently upcast here",
                hint="derive the dtype from the inputs "
                "(value_dtype_of(tensor.values), factor_dtype(factors), "
                "A.dtype) rather than the VALUE_DTYPE default",
            )
        return v


# ---------------------------------------------------------------------
# Tracer placement (DF609-DF610)
# ---------------------------------------------------------------------
def _is_tracer_emission(node: ast.Call) -> bool:
    f = node.func
    if not (isinstance(f, ast.Attribute) and f.attr in _TRACER_EMITTERS):
        return False
    recv = f.value
    if isinstance(recv, ast.Call) and _call_last_name(recv) == "current_tracer":
        return True
    if isinstance(recv, ast.Name):
        receiver = recv.id
    elif isinstance(recv, ast.Attribute):
        chain = _dotted_chain(recv)
        receiver = chain[1] if chain else ""
    else:
        return False
    return "tracer" in receiver.lower()


class _TracerVisitor(ast.NodeVisitor):
    """Walks one function keeping a loop stack; emission inside a
    per-element loop is DF609, emission inside any loop of a kernel
    body is DF610."""

    def __init__(self, file: str, kernel_scope: bool, diags: list) -> None:
        self.file = file
        self.kernel_scope = kernel_scope
        self.diags = diags
        self._loops: list[bool] = []  # True = per-element loop
        self._seen: set[tuple[str, int]] = set()

    def visit_For(self, node: ast.For) -> None:
        per_element = _per_element_index_var(node) is not None
        self._loops.append(per_element)
        self.generic_visit(node)
        self._loops.pop()

    def visit_While(self, node: ast.While) -> None:
        self._loops.append(False)
        self.generic_visit(node)
        self._loops.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs start their own loop context.
        saved, self._loops = self._loops, []
        self.generic_visit(node)
        self._loops = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        if _is_tracer_emission(node):
            emitter = node.func.attr  # type: ignore[union-attr]
            if any(self._loops) and ("DF609", node.lineno) not in self._seen:
                self._seen.add(("DF609", node.lineno))
                self.diags.append(
                    Diagnostic(
                        "DF609",
                        self.file,
                        node.lineno,
                        node.col_offset,
                        f"tracer.{emitter}(...) inside a per-element loop is "
                        "O(nnz) overhead the tracer design forbids",
                        hint="accumulate into a local and emit one counter/span "
                        "per call, as kernels.base._traced_execute does",
                    )
                )
            elif (
                self.kernel_scope
                and self._loops
                and ("DF610", node.lineno) not in self._seen
            ):
                self._seen.add(("DF610", node.lineno))
                self.diags.append(
                    Diagnostic(
                        "DF610",
                        self.file,
                        node.lineno,
                        node.col_offset,
                        f"tracer.{emitter}(...) inside a kernel loop runs per "
                        "block/chunk; kernel hooks must emit per call",
                        hint="move the emission outside the loop (the execute "
                        "wrapper already records per-call totals)",
                    )
                )
        self.generic_visit(node)


# ---------------------------------------------------------------------
# Write effects (DF606-DF608)
# ---------------------------------------------------------------------
def _effect_diags(
    fn: ast.FunctionDef,
    info: "ModuleInfo | None",
    summaries: dict,
    file: str,
    *,
    context: str,
    what: str,
) -> list:
    """DF606/DF607 findings for one worker-task or kernel-method body.

    ``context`` is ``process``/``thread``/``any`` for pool tasks or
    ``kernel`` for prepare/execute bodies; ``what`` names the function
    in messages.
    """
    diags: list[Diagnostic] = []
    local = set(_param_names(fn)) | _assigned_names(fn)
    declared_global: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)

    reported: set[tuple[str, int]] = set()

    def report(rule: str, node: ast.AST, message: str, hint: str) -> None:
        key = (rule, getattr(node, "lineno", 1))
        if key in reported:
            return
        reported.add(key)
        diags.append(
            Diagnostic(
                rule,
                file,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                message,
                hint=hint,
            )
        )

    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id in declared_global:
                    report(
                        "DF606",
                        node,
                        f"{what} rebinds module-level {t.id!r} via `global`",
                        hint="workers/kernels must write only through their "
                        "arguments (the partitioned output view)",
                    )
                elif isinstance(t, (ast.Subscript, ast.Attribute)):
                    root = _store_root(t)
                    if root is not None and root not in local:
                        report(
                            "DF606",
                            node,
                            f"{what} writes through {root!r}, which is not "
                            "derived from its arguments (module-level or "
                            "closure state)",
                            hint="pass the buffer in explicitly; parallel "
                            "workers sharing hidden state race or silently "
                            "diverge under the process backend",
                        )
        elif isinstance(node, ast.Call):
            name = _call_last_name(node)
            s = summaries.get(name) if name else None
            if s is not None and s.global_writes:
                report(
                    "DF606",
                    node,
                    f"{what} calls {name}(), which writes module-level "
                    f"state ({', '.join(s.global_writes)})",
                    hint="thread the state through arguments; hidden helper "
                    "writes break worker isolation",
                )
        elif (
            context == "process"
            and isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and info is not None
            and node.id in info.mutable_globals
            and node.id not in local
        ):
            report(
                "DF607",
                node,
                f"process-backend task {what} captures module-level mutable "
                f"{node.id!r}; the child re-imports its own copy, so writes "
                "and reads silently diverge from the parent",
                hint="pass the data as an argument (pickled once per task) "
                "or reconstruct it in the child",
            )
    return diags


def _submit_diags(info: ModuleInfo, file: str) -> list:
    """DF608: unpicklable callables/arguments at process-pool submit sites."""
    diags: list[Diagnostic] = []
    for call, ctx, local_defs in info.submit_sites:
        if ctx != "process":
            continue
        callee = call.args[0] if call.args else None
        bad: "str | None" = None
        if isinstance(callee, ast.Lambda):
            bad = "a lambda"
        elif isinstance(callee, ast.Name) and callee.id in local_defs:
            bad = f"nested function {callee.id!r}"
        if bad is not None:
            diags.append(
                Diagnostic(
                    "DF608",
                    file,
                    call.lineno,
                    call.col_offset,
                    f"process pool submit() receives {bad}, which cannot be "
                    "pickled into the worker process",
                    hint="move the task function to module level",
                )
            )
        for arg in call.args[1:]:
            if isinstance(arg, ast.Lambda):
                diags.append(
                    Diagnostic(
                        "DF608",
                        file,
                        arg.lineno,
                        arg.col_offset,
                        "lambda argument to a process-pool task cannot be "
                        "pickled",
                        hint="pass data, not callables, to process workers",
                    )
                )
            elif (
                isinstance(arg, ast.Call)
                and _call_last_name(arg) in _UNPICKLABLE_CTORS
            ):
                diags.append(
                    Diagnostic(
                        "DF608",
                        file,
                        arg.lineno,
                        arg.col_offset,
                        f"{_call_last_name(arg)}() result passed to a "
                        "process-pool task is not picklable",
                        hint="create locks/handles inside the worker instead",
                    )
                )
    return diags


# ---------------------------------------------------------------------
# File-level entry points
# ---------------------------------------------------------------------
def scan_module(
    tree: ast.Module, file: str, summaries: "dict | None" = None
) -> list:
    """Run every dataflow check over one parsed module."""
    summaries = summaries if summaries is not None else {}
    info = module_info(tree, file)
    diags: list[Diagnostic] = []
    dtype_scope_file = is_dtype_scope(file)
    kernel_file = is_kernel_file(file)

    for fn, kernel_cls in info.functions:
        in_kernel = kernel_cls is not None and fn.name in ("prepare", "execute")
        # Dtype propagation (DF601-DF605).
        analyzer = _DtypeAnalyzer(
            info,
            summaries,
            diags,
            check_dtype=dtype_scope_file or in_kernel,
            file=file,
        )
        analyzer.run(fn)
        # Tracer placement (DF609 everywhere, DF610 in kernel scope).
        _TracerVisitor(file, kernel_file or in_kernel, diags).visit(fn)
        # Write effects (DF606/DF607) for workers and kernel bodies.
        ctx = info.worker_context.get(fn.name)
        if ctx is not None or in_kernel:
            diags.extend(
                _effect_diags(
                    fn,
                    info,
                    summaries,
                    file,
                    context=ctx or "kernel",
                    what=(
                        f"{kernel_cls}.{fn.name}()" if in_kernel else f"{fn.name}()"
                    ),
                )
            )
    diags.extend(_submit_diags(info, file))
    return diags


def scan_source(
    source: str, file: str, summaries: "dict | None" = None
) -> list:
    """Single-file convenience: parse and :func:`scan_module`.

    When no ``summaries`` table is given one is built from this file
    alone, so single-module interprocedural findings still work.
    """
    try:
        tree = ast.parse(source, filename=file)
    except SyntaxError:  # the contract pass reports the parse failure
        return []
    if summaries is None:
        summaries = build_summaries([module_info(tree, file)])
    return scan_module(tree, file, summaries)


def scan_files(sources: dict, parsed: "dict | None" = None) -> dict:
    """The interprocedural entry the runner uses: build one summary
    table across every file, then scan each against it.  Returns
    ``{file: [Diagnostic, ...]}`` (pre-suppression).

    ``parsed`` optionally maps file -> pre-parsed ``ast.Module`` (the
    runner's shared parse cache); files absent from it are parsed here.
    """
    trees: dict[str, ast.Module] = {}
    for file, source in sources.items():
        cached = parsed.get(file) if parsed else None
        if cached is not None:
            trees[file] = cached
            continue
        try:
            trees[file] = ast.parse(source, filename=file)
        except SyntaxError:
            continue
    modules = [module_info(tree, file) for file, tree in trees.items()]
    summaries = build_summaries(modules)
    return {
        file: scan_module(tree, file, summaries)
        for file, tree in trees.items()
    }


# ---------------------------------------------------------------------
# Registration-time gate (DF611)
# ---------------------------------------------------------------------
#: Classes already vetted clean this process (skip repeat work when
#: `register_kernel` re-vets an already-defined class).
_VETTED_OK: "weakref.WeakSet" = weakref.WeakSet()


def dataflow_vet_enabled() -> bool:
    """The env opt-out: ``REPRO_DATAFLOW_VET=0|false|off|no`` disables
    the DF611 registration gate."""
    return os.environ.get(VET_ENV_VAR, "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


def vet_kernel_class(cls: type) -> list:
    """Dataflow diagnostics for a Kernel subclass's own ``prepare`` /
    ``execute`` bodies (inherited methods were vetted with their class).

    Source is recovered through :func:`inspect.getsource`; dynamically
    generated classes (``exec``/``type``) have none and are skipped —
    the file-level ``repro check --dataflow`` pass covers code on disk.
    Inline ``# repro: noqa[...]`` suppressions are honoured.
    """
    diags: list[Diagnostic] = []
    for meth in ("prepare", "execute"):
        impl = cls.__dict__.get(meth)
        if impl is None:
            continue
        impl = inspect.unwrap(impl)
        code = getattr(impl, "__code__", None)
        if code is None:
            continue
        try:
            segment = textwrap.dedent(inspect.getsource(impl))
        except (OSError, TypeError):
            continue
        try:
            tree = ast.parse(segment)
        except SyntaxError:
            continue
        fn = tree.body[0] if tree.body else None
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        meth_diags: list[Diagnostic] = []
        analyzer = _DtypeAnalyzer(
            None, {}, meth_diags, check_dtype=True, file=code.co_filename
        )
        analyzer.run(fn)
        _TracerVisitor(code.co_filename, True, meth_diags).visit(fn)
        meth_diags.extend(
            _effect_diags(
                fn,
                None,
                {},
                code.co_filename,
                context="kernel",
                what=f"{cls.__name__}.{meth}()",
            )
        )
        meth_diags = apply_suppressions(
            meth_diags, suppressions_for_source(segment)
        )
        # Shift segment-relative lines back to absolute file positions.
        offset = code.co_firstlineno - fn.lineno
        diags.extend(replace(d, line=d.line + offset) for d in meth_diags)
    return diags


def enforce_kernel_dataflow(cls: type) -> None:
    """The DF611 gate: raise ``RegistrationError`` when a Kernel
    subclass's body trips any error-severity dataflow rule.

    Called from ``Kernel.__init_subclass__`` (class-definition time) and
    ``register_kernel`` (registration time).  No-op when the
    ``REPRO_DATAFLOW_VET`` opt-out is set or the class was already
    vetted clean in this process.
    """
    if not dataflow_vet_enabled() or cls in _VETTED_OK:
        return
    errors = [d for d in vet_kernel_class(cls) if d.severity is Severity.ERROR]
    if errors:
        from repro.util.errors import RegistrationError

        listing = "\n  ".join(d.format() for d in errors)
        raise RegistrationError(
            f"DF611: kernel class {cls.__name__!r} failed registration-time "
            f"dataflow vetting ({len(errors)} error(s); set "
            f"{VET_ENV_VAR}=0 to bypass):\n  {listing}"
        )
    _VETTED_OK.add(cls)
