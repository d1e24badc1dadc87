"""Symbolic loop-nest cost certifier (rules CT701-CT709).

Proves, statically, that each shipped kernel implements the analytic
memory-traffic model of :mod:`repro.machine.traffic` — the paper's Eq. 1
access accounting.  The certifier abstractly interprets a kernel's
``execute`` body (plus the helpers it calls) over the chunked-vectorized
NumPy idioms the kernels actually use, and derives a
:class:`CostCertificate`: one exact polynomial per array access class
over the iteration-space symbols of :mod:`repro.analysis.symbolic`
(``nnz``, ``n_fibers``, ``distinct_out``, ``R``, ``n_strips``,
``itemsize``, ``I_out``).

Three contracts are certified per kernel:

* **traffic** — the derived tensor-stream bytes and factor gather counts
  must equal what ``estimate_traffic`` / ``predicted_footprint`` charge
  that kernel family (CT701 mismatch, CT702 model term with no matching
  kernel access, CT703 kernel access the model does not describe);
* **writes** — the derived output-write footprint must be coverable by
  the plan's declared ``write_set()`` (CT704 footprint exceeds the
  declaration, CT705 write target not statically resolvable);
* **counters** — the ``kernel.gathers`` / ``kernel.factor_bytes``
  emission formulas in ``Kernel._traced_execute`` must agree with the
  certificate (CT706 / CT707), so traces stay trustworthy as kernels
  evolve.

CT708 (calibration drift) and CT709 (certificate unverifiable) belong to
the runtime cross-check in :mod:`repro.analysis.calibrate`; CT709 is
also raised here when a kernel uses a construct the abstract interpreter
cannot bound (an unrecognized loop shape, an unresolvable branch over
the access structure).

Every access stream is mapped to the model's canonical taxonomy:
``val`` / ``j_index`` / ``k_index`` / ``k_pointer`` tensor streams, row
gathers from ``B`` and ``C``, and output writes.  One access class is
*excluded* from the byte comparison by design and reported only in the
certificate: materialized output-row maps (``fiber_rows``, CSF root
``fids``/``fptr`` — the model charges output-row bookkeeping to the
``A`` term, not the stream term; see docs/static-analysis.md for the
derivation walkthrough).

Kernels are certified per family (COO, SPLATT, CSF, any-mode CSF): one
``execute`` body serves every registry preset of a family, and a preset
without rank strips certifies with ``n_strips -> 1``.

The COO kernel has no fiber compression: its sorted row stream ``i``
plays the ``k_pointer`` role (segment delimiter) and its ``k`` stream
the ``k_index`` role, with the family substitution ``n_fibers -> nnz``
matching ``BlockStats.n_fibers == nnz`` for COO plans.
"""

from __future__ import annotations

import ast
import os
import weakref
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.symbolic import (
    DISTINCT_OUT,
    I_OUT,
    ITEMSIZE,
    N_FIBERS,
    N_STRIPS,
    NNZ,
    RANK,
    ZERO,
    Poly,
)

# ---------------------------------------------------------------------
# Canonical stream taxonomy and the model mirror
# ---------------------------------------------------------------------

#: Canonical tensor-stream classes and their per-element byte widths
#: (``val`` scales with the factor itemsize; indices are 8-byte ints).
STREAM_CLASSES: dict[str, Poly] = {
    "val": ITEMSIZE,
    "j_index": Poly.const(8),
    "k_index": Poly.const(8),
    "k_pointer": Poly.const(8),
}

#: Access classes excluded from the model comparison (reported in the
#: certificate, never compared): materialized output-row maps.
EXCLUDED_STREAMS = frozenset({"row_map"})


def model_stream_bytes() -> dict[str, Poly]:
    """The model's per-class stream bytes — a mirror of
    ``estimate_traffic``'s ``stream_bytes`` term, split by class:
    ``n_strips * ((itemsize + 8) * nnz + 16 * n_fibers)``."""
    return {
        "val": N_STRIPS * NNZ * ITEMSIZE,
        "j_index": 8 * N_STRIPS * NNZ,
        "k_index": 8 * N_STRIPS * N_FIBERS,
        "k_pointer": 8 * N_STRIPS * N_FIBERS,
    }


def model_gather_rows() -> dict[str, Poly]:
    """``predicted_footprint``'s access counts: B once per nonzero per
    strip, C once per fiber per strip."""
    return {"B": N_STRIPS * NNZ, "C": N_STRIPS * N_FIBERS}


# ---------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------


@dataclass
class WriteRecord:
    """One derived output write site."""

    #: ``"distinct_out"`` (scatter via output-row indices) or
    #: ``"all_rows"`` (strip slab store touching every row).
    kind: str
    #: Elements written per full execution.
    elements: Poly
    line: int
    #: True for ``+=`` accumulation (read-modify-write).
    accumulate: bool = False


@dataclass
class CostCertificate:
    """Per-kernel symbolic access accounting, before model comparison."""

    kernel: str
    file: str
    exec_line: int
    #: Canonical stream class -> bytes moved (full execution).
    stream_bytes: dict[str, Poly] = field(default_factory=dict)
    stream_lines: dict[str, int] = field(default_factory=dict)
    #: Factor role ("B"/"C") -> gathered rows / elements.
    gather_rows: dict[str, Poly] = field(default_factory=dict)
    gather_elements: dict[str, Poly] = field(default_factory=dict)
    gather_lines: dict[str, int] = field(default_factory=dict)
    writes: list[WriteRecord] = field(default_factory=list)
    #: Excluded-class bytes (row maps), reported but never compared.
    excluded_bytes: dict[str, Poly] = field(default_factory=dict)

    def substitute(self, subs: "Mapping[str, Poly | int]") -> None:
        """Apply symbol substitutions to every derived polynomial."""
        for table in (
            self.stream_bytes,
            self.gather_rows,
            self.gather_elements,
            self.excluded_bytes,
        ):
            for key, poly in table.items():
                table[key] = poly.substitute(subs)
        for w in self.writes:
            w.elements = w.elements.substitute(subs)

    def gathers_counter(self) -> Poly:
        """What ``kernel.gathers`` should count: gathered rows folded to
        one pass over the rank (strips re-gather thinner rows, so
        per-element totals are strip-invariant)."""
        total = ZERO
        for role in ("B", "C"):
            total = total + self.gather_elements.get(role, ZERO)
        return total / RANK

    def factor_bytes_counter(self) -> Poly:
        """What ``kernel.factor_bytes`` should count: gathered B/C
        elements plus the model's ``distinct_out`` output term, at the
        factor itemsize.  The A term follows the traffic model's
        convention (distinct rows fetched+written once per phase)."""
        total = DISTINCT_OUT * RANK
        for role in ("B", "C"):
            total = total + self.gather_elements.get(role, ZERO)
        return total * ITEMSIZE


# ---------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------


class AV:
    """Base abstract value."""

    __slots__ = ()


class Unknown(AV):
    __slots__ = ()


UNKNOWN = Unknown()


@dataclass
class Const(AV):
    """A statically known Python scalar (int / None / bool)."""

    value: object


@dataclass
class AxisLen(AV):
    """A scalar equal to a symbolic axis length."""

    axis: Poly


@dataclass
class StreamArray(AV):
    """A full 1-D plan array: a tensor stream or a row map."""

    axis: Poly  #: symbolic length
    stream: str  #: canonical class, or "row_map"
    space: str  #: index space of its values: inner/fiber/out/ptr/val


@dataclass
class Chunk(AV):
    """A counted slice (or derived transform) of a StreamArray."""

    axis: Poly
    space: str
    #: True when derived by subsetting (``i[starts]``) — still in the
    #: same index space but no longer a full tile of the axis.
    subset: bool = False


@dataclass
class DerivedIndex(AV):
    """Positional indices computed from chunk contents (flatnonzero,
    searchsorted, argsort results) — valid for subsetting chunks, never
    for gathering factor rows."""

    __slots__ = ()


@dataclass
class Matrix(AV):
    """A 2-D factor-like array."""

    role: str  #: "B" / "C" / "A" / "A_factor" / "anymode"
    width: Poly
    rows: "Poly | None" = None
    is_output: bool = False


@dataclass
class MatChunk(AV):
    """A 2-D value chunk (products, reduceat results)."""

    width: Poly


@dataclass
class ModeRef(AV):
    """A mode index with a known role."""

    role: str  #: "out" / "inner" / "fiber"


@dataclass
class ShapeHandle(AV):
    order: int


@dataclass
class FactorList(AV):
    """The checked factor list; width R (or a strip width)."""

    width: Poly


@dataclass
class ModeOrder(AV):
    """``csf.mode_order`` for a 3-mode tree: [out, fiber, inner]."""

    order: int


@dataclass
class LevelsHandle(AV):
    order: int


@dataclass
class LevelHandle(AV):
    kind: str  #: "root" or "fiber"


@dataclass
class CSFHandle(AV):
    order: int = 3


@dataclass
class StripsVal(AV):
    """The strip list; iterating multiplies by ``n_strips`` and binds
    (lo, hi) strip bounds of width ``R / n_strips``."""

    __slots__ = ()


@dataclass
class StripBound(AV):
    side: str  #: "lo" / "hi"


@dataclass
class BoundVal(AV):
    """A block-boundary scalar from ``block.bounds[...]``."""

    __slots__ = ()


@dataclass
class BoundsHandle(AV):
    __slots__ = ()


@dataclass
class BlockHandle(AV):
    csf_order: int = 3


@dataclass
class BlockList(AV):
    """``plan.blocked.blocks`` — iterate once with aggregate symbols."""

    __slots__ = ()


@dataclass
class BlockPairList(AV):
    """``plan.blocks`` of the blocked CSF kernel: (block, csf) pairs."""

    csf_order: int = 3


@dataclass
class PerBlockList(AV):
    """A per-block list zipped against the block list."""

    item: AV = UNKNOWN


@dataclass
class ZipVal(AV):
    items: "list[AV]" = field(default_factory=list)


@dataclass
class ListVal(AV):
    """A list literal / builder; ``item`` is the representative value."""

    item: AV = UNKNOWN


@dataclass
class TupleVal(AV):
    items: "list[AV]" = field(default_factory=list)


@dataclass
class RangeVal(AV):
    args: "list[AV]" = field(default_factory=list)


@dataclass
class HandleVal(AV):
    """A structured object with a known attribute table."""

    attrs: "dict[str, AV]" = field(default_factory=dict)
    name: str = ""


@dataclass
class HelperFn(AV):
    """A call target inlined by the interpreter."""

    module: str
    func: str


@dataclass
class BuiltinFn(AV):
    name: str


@dataclass
class NumpyNS(AV):
    """The ``np`` namespace (and its ``np.add`` sub-namespace)."""

    path: str = "np"


class Unverifiable(Exception):
    """A construct the interpreter cannot bound (rule CT709)."""

    def __init__(self, message: str, line: int = 1) -> None:
        super().__init__(message)
        self.message = message
        self.line = line


# ---------------------------------------------------------------------
# Kernel specs: how each shipped kernel binds its plan and compares to
# the model
# ---------------------------------------------------------------------


def _splatt_handle() -> HandleVal:
    return HandleVal(
        name="splatt",
        attrs={
            "vals": StreamArray(NNZ, "val", "val"),
            "jidx": StreamArray(NNZ, "j_index", "inner"),
            "fiber_kidx": StreamArray(N_FIBERS, "k_index", "fiber"),
            "fiber_ptr": StreamArray(N_FIBERS, "k_pointer", "ptr"),
            "n_fibers": AxisLen(N_FIBERS),
            "nnz": AxisLen(NNZ),
            "n_rows": AxisLen(I_OUT),
        },
    )


def _row_map(axis: Poly) -> StreamArray:
    return StreamArray(axis, "row_map", "out")


def _common_plan_attrs() -> dict[str, AV]:
    return {
        "shape": ShapeHandle(3),
        "mode": ModeRef("out"),
        "inner_mode": ModeRef("inner"),
        "fiber_mode": ModeRef("fiber"),
    }


def _coo_plan() -> HandleVal:
    attrs = _common_plan_attrs()
    attrs.update(
        {
            # The sorted output-row stream doubles as the segment
            # delimiter (the k_pointer role); k carries the k_index role.
            "i": StreamArray(NNZ, "k_pointer", "out"),
            "j": StreamArray(NNZ, "j_index", "inner"),
            "k": StreamArray(NNZ, "k_index", "fiber"),
            "vals": StreamArray(NNZ, "val", "val"),
        }
    )
    return HandleVal(attrs=attrs, name="COOPlan")


def _strips_method() -> AV:
    """``plan.strips`` — calling it yields the strip list."""
    return _BoundMethod(UNKNOWN, "strips")


def _splatt_plan() -> HandleVal:
    attrs = _common_plan_attrs()
    attrs.update(
        {
            "blocked": HandleVal(
                name="BlockedTensor", attrs={"blocks": BlockList()}
            ),
            "block_rows": PerBlockList(item=_row_map(N_FIBERS)),
            "strips": _strips_method(),
        }
    )
    return HandleVal(attrs=attrs, name="SplattPlan")


def _csf_plan() -> HandleVal:
    attrs = _common_plan_attrs()
    attrs.update({"blocks": BlockPairList(3), "strips": _strips_method()})
    return HandleVal(attrs=attrs, name="CSFPlan")


def _csf_any_plan() -> HandleVal:
    attrs = _common_plan_attrs()
    # Certified at the root placement (target_level == 0), where the
    # kernel reduces to the root-mode CSF kernel; other placements share
    # the same streams but scatter through level fids the model's
    # BlockStats already summarize.
    attrs.update({"csf": CSFHandle(3), "target_level": Const(0)})
    return HandleVal(attrs=attrs, name="CSFAnyPlan")


@dataclass(frozen=True)
class KernelCostSpec:
    """Everything the certifier knows about one kernel family."""

    module: str
    kernel_class: str
    plan_class: str
    plan_env: Callable[[], HandleVal]
    #: Registry name of each preset -> whether it runs rank strips.
    presets: "dict[str, bool]"
    #: Symbol substitutions applied to *both* sides before comparison:
    #: the family's structural identities (COO: every nonzero is its own
    #: fiber).
    subs: "dict[str, Poly | int]"
    #: Whether the plan's declared write_set() is the full output range.
    full_write_set: bool

    def subs_for(self, name: str) -> "dict[str, Poly | int]":
        """The family identities plus ``n_strips -> 1`` for a preset
        without rank strips."""
        if self.presets[name]:
            return self.subs
        return {**self.subs, "n_strips": 1}


_FAMILY_SPECS = [
    KernelCostSpec(
        "repro.kernels.coo_mttkrp",
        "COOKernel",
        "COOPlan",
        _coo_plan,
        {"coo": False},
        {"n_fibers": NNZ},
        full_write_set=False,
    ),
    KernelCostSpec(
        "repro.kernels.splatt_mttkrp",
        "SplattKernel",
        "SplattPlan",
        _splatt_plan,
        {"splatt": False, "mb": False, "rankb": True, "mb+rankb": True},
        {},
        full_write_set=False,
    ),
    KernelCostSpec(
        "repro.kernels.csf_mttkrp",
        "CSFKernel",
        "CSFPlan",
        _csf_plan,
        {"csf": False, "csf-blocked": True},
        {},
        full_write_set=False,
    ),
    KernelCostSpec(
        "repro.kernels.csf_any",
        "CSFAnyKernel",
        "CSFAnyPlan",
        _csf_any_plan,
        {"csf-any": False},
        {},
        full_write_set=True,
    ),
]

#: Registry name -> the spec of its family.
KERNEL_COST_SPECS: dict[str, KernelCostSpec] = {
    name: spec for spec in _FAMILY_SPECS for name in spec.presets
}

#: Modules whose function bodies the interpreter may inline.
_HELPER_FUNCS = {
    "execute_splatt_into": "repro.kernels.splatt_mttkrp",
    "execute_csf_into": "repro.kernels.csf_mttkrp",
    "_scatter_add_rows": "repro.kernels.csf_any",
}

_BASE_MODULE = "repro.kernels.base"


# ---------------------------------------------------------------------
# Module source / AST registry
# ---------------------------------------------------------------------


class ModuleRegistry:
    """Loads and caches kernel-module sources and ASTs.

    ``source_overrides`` maps module name -> source text (the mutant
    tests perturb one module); ``trees`` lets the runner share its
    parse cache (file path -> parsed module)."""

    def __init__(
        self,
        source_overrides: "Mapping[str, str] | None" = None,
        trees: "Mapping[str, ast.Module | None] | None" = None,
    ) -> None:
        self._overrides = dict(source_overrides or {})
        self._shared_trees = dict(trees or {})
        self._sources: dict[str, str] = {}
        self._trees: dict[str, ast.Module] = {}
        self._files: dict[str, str] = {}

    def file_of(self, module: str) -> str:
        if module not in self._files:
            import importlib

            mod = importlib.import_module(module)
            self._files[module] = str(mod.__file__)
        return self._files[module]

    def source_of(self, module: str) -> str:
        if module not in self._sources:
            if module in self._overrides:
                self._sources[module] = self._overrides[module]
            else:
                with open(self.file_of(module), encoding="utf-8") as fh:
                    self._sources[module] = fh.read()
        return self._sources[module]

    def tree_of(self, module: str) -> ast.Module:
        if module not in self._trees:
            file = self.file_of(module)
            shared = (
                self._shared_trees.get(file)
                if module not in self._overrides
                else None
            )
            if shared is not None:
                self._trees[module] = shared
            else:
                self._trees[module] = ast.parse(
                    self.source_of(module), filename=file
                )
        return self._trees[module]

    def function(self, module: str, name: str) -> ast.FunctionDef:
        for node in ast.walk(self.tree_of(module)):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return node
        raise Unverifiable(f"function {name} not found in {module}")

    def method(self, module: str, cls: str, name: str) -> ast.FunctionDef:
        for node in self.tree_of(module).body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and item.name == name
                    ):
                        return item
        raise Unverifiable(f"{cls}.{name} not found in {module}")

    def class_def(self, module: str, cls: str) -> "ast.ClassDef | None":
        for node in self.tree_of(module).body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                return node
        return None


# ---------------------------------------------------------------------
# The abstract interpreter
# ---------------------------------------------------------------------


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


class _Walker:
    """Abstractly interprets one function body, recording accesses."""

    MAX_DEPTH = 4
    MAX_UNROLL = 8

    def __init__(
        self, registry: ModuleRegistry, cert: CostCertificate
    ) -> None:
        self.registry = registry
        self.cert = cert
        self.problems: list[Diagnostic] = []
        self.mult: Poly = Poly.const(1)
        self.depth = 0
        #: Nesting depth of chunk-tiling loops (while f0 < n, or
        #: range(0, n, chunk)).  Slices inside tile the axis exactly
        #: once; a *full* stream-array fancy read inside re-reads the
        #: whole stream per chunk — unbounded, and flagged (CT703).
        self.chunk_depth = 0

    # -- recording -----------------------------------------------------
    def _record_stream(self, arr: StreamArray, line: int) -> None:
        bytes_per = STREAM_CLASSES.get(arr.stream)
        if bytes_per is None:
            bucket = self.cert.excluded_bytes
            bucket[arr.stream] = (
                bucket.get(arr.stream, ZERO) + self.mult * arr.axis * 8
            )
            return
        self.cert.stream_bytes[arr.stream] = (
            self.cert.stream_bytes.get(arr.stream, ZERO)
            + self.mult * arr.axis * bytes_per
        )
        self.cert.stream_lines.setdefault(arr.stream, line)

    def _record_gather(
        self, matrix: Matrix, index: Chunk, line: int
    ) -> None:
        role = matrix.role
        expected_space = {"B": "inner", "C": "fiber"}.get(role)
        if expected_space is None:
            self.problems.append(
                _ct703(
                    self.cert,
                    line,
                    f"gather from factor role {role!r} "
                    "(the model charges gathers to B and C only)",
                )
            )
            return
        if index.space != expected_space:
            self.problems.append(
                _ct703(
                    self.cert,
                    line,
                    f"{role} gathered through a {index.space!r}-space "
                    f"index stream; the model gathers {role} through "
                    f"{expected_space!r} indices",
                )
            )
            return
        if index.subset:
            self.problems.append(
                _ct703(
                    self.cert,
                    line,
                    f"{role} gathered through a subsetted index chunk; "
                    "the per-access count is data-dependent",
                )
            )
            return
        rows = self.mult * index.axis
        self.cert.gather_rows[role] = (
            self.cert.gather_rows.get(role, ZERO) + rows
        )
        self.cert.gather_elements[role] = (
            self.cert.gather_elements.get(role, ZERO) + rows * matrix.width
        )
        self.cert.gather_lines.setdefault(role, line)

    def _record_write(
        self,
        kind: str,
        elements: Poly,
        line: int,
        accumulate: bool,
    ) -> None:
        self.cert.writes.append(
            WriteRecord(kind, elements, line, accumulate)
        )

    # -- expression evaluation -----------------------------------------
    def eval(self, node: ast.AST) -> AV:
        if isinstance(node, ast.Name):
            return self._eval_name(node)
        if isinstance(node, ast.Constant):
            return Const(node.value)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, store=False)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            inner = self.eval(node.operand)
            if isinstance(inner, Const) and isinstance(
                inner.value, (int, float)
            ):
                if isinstance(node.op, ast.USub):
                    return Const(-inner.value)
            return inner
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.IfExp):
            return self._eval_ifexp(node)
        if isinstance(node, (ast.Tuple, ast.List)):
            items = [self.eval(el) for el in node.elts]
            if isinstance(node, ast.Tuple):
                return TupleVal(items)
            rep: AV = UNKNOWN
            for it in items:
                if not isinstance(it, (Unknown, Const)):
                    rep = it
                    break
            return ListVal(rep)
        if isinstance(node, ast.Slice):
            return UNKNOWN
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                self.eval(v)
            return UNKNOWN
        return UNKNOWN

    def _eval_name(self, node: ast.Name) -> AV:
        if node.id in self.env:
            return self.env[node.id]
        if node.id == "np":
            return NumpyNS("np")
        if node.id in _HELPER_FUNCS:
            return HelperFn(_HELPER_FUNCS[node.id], node.id)
        if node.id in (
            "check_factors",
            "alloc_output",
            "factor_dtype",
            "max",
            "min",
            "int",
            "float",
            "len",
            "range",
            "zip",
        ):
            return BuiltinFn(node.id)
        return UNKNOWN

    def _eval_attribute(self, node: ast.Attribute) -> AV:
        base = self.eval(node.value)
        attr = node.attr
        if isinstance(base, HandleVal):
            if attr in base.attrs:
                return base.attrs[attr]
            return UNKNOWN
        if isinstance(base, NumpyNS):
            return NumpyNS(f"{base.path}.{attr}")
        if isinstance(base, CSFHandle):
            return self._csf_attr(base, attr)
        if isinstance(base, LevelHandle):
            return self._level_attr(base, attr)
        if isinstance(base, BlockHandle):
            if attr == "splatt":
                return _splatt_handle()
            if attr == "bounds":
                return BoundsHandle()
            return UNKNOWN
        if isinstance(base, Matrix):
            if attr == "shape":
                shape_attrs: dict[str, AV] = {}
                if base.rows is not None:
                    shape_attrs["__rows__"] = AxisLen(base.rows)
                shape_attrs["__width__"] = AxisLen(base.width)
                return HandleVal(name="shape", attrs=shape_attrs)
            if attr == "dtype":
                return UNKNOWN
            if attr == "astype":
                return UNKNOWN  # Matrix.astype never appears in kernels
        if isinstance(base, StreamArray):
            if attr == "astype":
                return _BoundMethod(base, "astype")
            if attr == "shape":
                return TupleVal([AxisLen(base.axis)])
        if isinstance(base, Chunk) and attr == "astype":
            return _BoundMethod(base, "astype")
        if isinstance(base, ListVal) and attr == "append":
            return _BoundMethod(base, "append")
        return UNKNOWN

    def _csf_attr(self, csf: CSFHandle, attr: str) -> AV:
        if attr == "vals":
            return StreamArray(NNZ, "val", "val")
        if attr == "leaf_fids":
            return StreamArray(NNZ, "j_index", "inner")
        if attr == "levels":
            return LevelsHandle(csf.order)
        if attr == "mode_order":
            return ModeOrder(csf.order)
        if attr == "nnz":
            return AxisLen(NNZ)
        if attr == "order":
            return Const(csf.order)
        return UNKNOWN

    def _level_attr(self, lvl: LevelHandle, attr: str) -> AV:
        if lvl.kind == "fiber":
            if attr == "fids":
                return StreamArray(N_FIBERS, "k_index", "fiber")
            if attr == "fptr":
                return StreamArray(N_FIBERS, "k_pointer", "ptr")
            if attr == "n_nodes":
                return AxisLen(N_FIBERS)
        else:  # root
            if attr == "fids":
                return _row_map(DISTINCT_OUT)
            if attr == "fptr":
                return StreamArray(DISTINCT_OUT, "row_map", "ptr")
            if attr == "n_nodes":
                return AxisLen(DISTINCT_OUT)
        return UNKNOWN

    def _index_value(self, node: ast.AST) -> AV:
        """Evaluate a subscript index, counting full fancy reads of
        stream arrays (one pass over the array's axis)."""
        value = self.eval(node)
        if isinstance(value, StreamArray):
            line = getattr(node, "lineno", 1)
            if self.chunk_depth > 0:
                # e.g. B[splatt.jidx] instead of B[splatt.jidx[lo:hi]]
                # inside the chunk loop: the full stream is re-gathered
                # once per chunk, a data-dependent multiplicity the
                # model cannot describe
                self.problems.append(
                    _ct703(
                        self.cert,
                        line,
                        f"full {value.stream!r} stream used as a gather "
                        "index inside a chunk loop (re-read once per "
                        "chunk, unbounded statically)",
                    )
                )
            self._record_stream(value, line)
            return Chunk(value.axis, value.space)
        return value

    def _eval_subscript(self, node: ast.Subscript, store: bool) -> AV:
        base = self.eval(node.value)
        sl = node.slice
        # -- plain slices over stream arrays: one pass over the axis --
        if isinstance(base, StreamArray):
            if isinstance(sl, ast.Slice):
                self._record_stream(base, node.lineno)
                return Chunk(base.axis, base.space)
            idx = self._index_value(sl)
            if isinstance(idx, (Const,)):
                return UNKNOWN  # scalar element read: free
            if isinstance(idx, (DerivedIndex, Chunk)):
                return Chunk(base.axis, base.space, subset=True)
            return UNKNOWN
        if isinstance(base, Chunk):
            # subscripting a counted chunk never re-reads memory
            if isinstance(sl, ast.Tuple):
                for el in sl.elts:
                    self.eval(el)
                return Chunk(base.axis, base.space, subset=base.subset)
            idx = self._index_value(sl)
            if isinstance(idx, (DerivedIndex, Chunk)):
                return Chunk(base.axis, base.space, subset=True)
            if isinstance(idx, Const):
                return UNKNOWN
            return Chunk(base.axis, base.space, subset=base.subset)
        if isinstance(base, MatChunk):
            self.eval(sl)
            return base
        if isinstance(base, Matrix):
            return self._subscript_matrix(base, node, store)
        if isinstance(base, (FactorList,)):
            return self._subscript_factors(base, sl, node)
        if isinstance(base, ModeOrder):
            return self._subscript_mode_order(base, sl)
        if isinstance(base, LevelsHandle):
            return self._subscript_levels(base, sl)
        if isinstance(base, BoundsHandle):
            self.eval(sl)
            return TupleVal([BoundVal(), BoundVal()])
        if isinstance(base, ShapeHandle):
            mode = self.eval(sl)
            if isinstance(mode, ModeRef) and mode.role == "out":
                return AxisLen(I_OUT)
            return UNKNOWN
        if isinstance(base, TupleVal):
            idx = self.eval(sl)
            if isinstance(idx, Const) and isinstance(idx.value, int):
                try:
                    return base.items[idx.value]
                except IndexError:
                    return UNKNOWN
            return UNKNOWN
        if isinstance(base, ListVal):
            idx = self.eval(sl)
            item = base.item
            # a per-mode list of packed factor strips (csf-blocked's
            # local_factors): the helper selects through mode_order, which
            # restores the role the pack loop erased
            if (
                isinstance(idx, ModeRef)
                and isinstance(item, Matrix)
                and item.role == "anymode"
            ):
                role = {"inner": "B", "fiber": "C", "out": "A_factor"}[
                    idx.role
                ]
                return Matrix(role, item.width, item.rows, item.is_output)
            return item
        if isinstance(base, HandleVal) and base.name == "shape":
            idx = self.eval(sl)
            rows = base.attrs.get("__rows__")
            width = base.attrs.get("__width__")
            if isinstance(idx, Const):
                if idx.value == 0 and rows is not None:
                    return rows
                if idx.value == 1 and width is not None:
                    return width
            return UNKNOWN
        if isinstance(base, Unknown):
            idx = self.eval(sl)
            if isinstance(idx, (Chunk, StreamArray, DerivedIndex)) or (
                isinstance(sl, ast.Slice)
            ):
                self.problems.append(
                    _ct703(
                        self.cert,
                        node.lineno,
                        "array-shaped read of an unregistered object; "
                        "the certifier cannot map it to a model stream",
                    )
                )
            return UNKNOWN
        self.eval(sl)
        return UNKNOWN

    def _subscript_matrix(
        self, base: Matrix, node: ast.Subscript, store: bool
    ) -> AV:
        sl = node.slice
        if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
            r, c = sl.elts
            # B[:, lo:hi] — column strip (a view; counted when rows are
            # gathered from it)
            width = self._slice_width(c, base.width)
            if isinstance(r, ast.Slice) and r.lower is None and r.upper is None:
                return Matrix(
                    base.role, width, base.rows, base.is_output
                )
            # A[out_lo:out_hi, lo:hi] — row+column view
            if isinstance(r, ast.Slice):
                self.eval(r.lower) if r.lower is not None else None
                self.eval(r.upper) if r.upper is not None else None
                return Matrix(base.role, width, None, base.is_output)
            self.eval(r)
            return UNKNOWN
        if isinstance(sl, ast.Slice):
            # row-sliced view (block bounds): same role and width
            if sl.lower is not None:
                self.eval(sl.lower)
            if sl.upper is not None:
                self.eval(sl.upper)
            return Matrix(base.role, base.width, None, base.is_output)
        # fancy gather
        idx = self._index_value(sl)
        if isinstance(idx, Chunk):
            if base.is_output:
                # reads of the output through row indices only happen as
                # the load half of `A[rows] += ...`; handled at the store
                return _OutputGatherView(base, idx)
            self._record_gather(base, idx, node.lineno)
            return MatChunk(base.width)
        if isinstance(idx, (DerivedIndex, Unknown, StreamArray)):
            self.problems.append(
                _ct703(
                    self.cert,
                    node.lineno,
                    f"factor {base.role!r} gathered through an index the "
                    "certifier cannot classify",
                )
            )
            return MatChunk(base.width)
        return UNKNOWN

    def _slice_width(self, node: ast.AST, full: Poly) -> Poly:
        """Width of a column slice ``lo:hi``."""
        if isinstance(node, ast.Slice):
            if node.lower is None and node.upper is None:
                return full
            lo = self.eval(node.lower) if node.lower is not None else None
            hi = self.eval(node.upper) if node.upper is not None else None
            if isinstance(lo, StripBound) and isinstance(hi, StripBound):
                return RANK / N_STRIPS
            if (
                isinstance(lo, Const)
                and lo.value == 0
                and hi is not None
                and isinstance(hi, AxisLen)
            ):
                return full
        return full

    def _subscript_factors(
        self, base: FactorList, sl: ast.AST, node: ast.Subscript
    ) -> AV:
        idx = self.eval(sl)
        if isinstance(idx, ModeRef):
            role = {"inner": "B", "fiber": "C", "out": "A_factor"}[idx.role]
            return Matrix(role, base.width)
        if isinstance(idx, Const):
            # csf-blocked's per-mode pack loop: role resolved later via
            # mode_order when the helper gathers from the list
            return Matrix("anymode", base.width)
        return UNKNOWN

    def _subscript_mode_order(self, base: ModeOrder, sl: ast.AST) -> AV:
        idx = self.eval(sl)
        if isinstance(idx, Const) and isinstance(idx.value, int):
            i = idx.value % base.order if idx.value >= 0 else idx.value
            if i in (0,):
                return ModeRef("out")
            if i in (-1, base.order - 1):
                return ModeRef("inner")
            return ModeRef("fiber")
        return UNKNOWN

    def _subscript_levels(self, base: LevelsHandle, sl: ast.AST) -> AV:
        idx = self.eval(sl)
        n_levels = base.order - 1
        if isinstance(idx, Const) and isinstance(idx.value, int):
            i = idx.value if idx.value >= 0 else n_levels + idx.value
            if i == 0:
                return LevelHandle("root")
            if i == n_levels - 1:
                return LevelHandle("fiber")
            return LevelHandle("fiber")  # mid levels (order > 3 only)
        return UNKNOWN

    def _eval_binop(self, node: ast.BinOp) -> AV:
        left = self.eval(node.left)
        right = self.eval(node.right)
        if isinstance(left, Const) and isinstance(right, Const):
            try:
                if isinstance(node.op, ast.Add):
                    return Const(left.value + right.value)
                if isinstance(node.op, ast.Sub):
                    return Const(left.value - right.value)
                if isinstance(node.op, ast.Mult):
                    return Const(left.value * right.value)
                if isinstance(node.op, ast.FloorDiv):
                    return Const(left.value // right.value)
            except TypeError:
                return UNKNOWN
        # strip width: hi - lo over strip bounds
        if (
            isinstance(node.op, ast.Sub)
            and isinstance(left, StripBound)
            and isinstance(right, StripBound)
        ):
            return AxisLen(RANK / N_STRIPS)
        # [None] * order — a list builder of known length
        if isinstance(node.op, ast.Mult) and (
            isinstance(left, ListVal) or isinstance(right, ListVal)
        ):
            lv = left if isinstance(left, ListVal) else right
            return ListVal(lv.item)
        # chunk arithmetic: vals[:, None] * B[jidx] etc.
        for op_first, op_second in ((left, right), (right, left)):
            if isinstance(op_first, (Chunk, MatChunk)):
                if isinstance(op_second, MatChunk):
                    return op_second
                if isinstance(op_first, MatChunk):
                    return op_first
                return op_first
        return UNKNOWN

    def _eval_compare(self, node: ast.Compare) -> AV:
        left = self.eval(node.left)
        rights = [self.eval(c) for c in node.comparators]
        if len(node.ops) == 1 and isinstance(left, Const) and isinstance(
            rights[0], Const
        ):
            op = node.ops[0]
            a, b = left.value, rights[0].value
            try:
                if isinstance(op, ast.Eq):
                    return Const(a == b)
                if isinstance(op, ast.NotEq):
                    return Const(a != b)
                if isinstance(op, ast.Lt):
                    return Const(a < b)
                if isinstance(op, ast.Gt):
                    return Const(a > b)
                if isinstance(op, ast.LtE):
                    return Const(a <= b)
                if isinstance(op, ast.GtE):
                    return Const(a >= b)
            except TypeError:
                return UNKNOWN
        return UNKNOWN

    def _eval_ifexp(self, node: ast.IfExp) -> AV:
        test = self.eval(node.test)
        if isinstance(test, Const):
            return self.eval(node.body if test.value else node.orelse)
        body = self.eval(node.body)
        orelse = self.eval(node.orelse)
        for v in (body, orelse):
            if not isinstance(v, (Unknown, Const)):
                return v
        return body

    # -- calls ---------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> AV:
        func = self.eval(node.func)
        if isinstance(func, _BoundMethod):
            return self._call_method(func, node)
        if isinstance(func, NumpyNS):
            return self._call_numpy(func.path, node)
        if isinstance(func, BuiltinFn):
            return self._call_builtin(func.name, node)
        if isinstance(func, HelperFn):
            return self._inline_helper(func, node)
        for arg in node.args:
            self.eval(arg)
        return UNKNOWN

    def _call_method(self, bound: "_BoundMethod", node: ast.Call) -> AV:
        target, meth = bound.target, bound.method
        if meth == "astype":
            for kw in node.keywords:
                self.eval(kw.value)
            for arg in node.args:
                self.eval(arg)
            if isinstance(target, StreamArray):
                self._record_stream(target, node.lineno)
                return Chunk(target.axis, target.space)
            return target
        if meth == "append" and isinstance(target, ListVal):
            for arg in node.args:
                val = self.eval(arg)
                if not isinstance(val, (Unknown, Const)):
                    target.item = val
            return Const(None)
        if meth == "strips":
            for arg in node.args:
                self.eval(arg)
            return StripsVal()
        return UNKNOWN

    def _call_numpy(self, path: str, node: ast.Call) -> AV:
        args = [self.eval(a) for a in node.args]
        for kw in node.keywords:
            self.eval(kw.value)
        name = path.removeprefix("np.")
        if name in ("add.reduceat",):
            # segmented reduction: pass the data chunk through; the
            # boundary argument was counted during evaluation
            return args[0] if args else UNKNOWN
        if name == "concatenate":
            src = args[0] if args else UNKNOWN
            if isinstance(src, ListVal):
                return src.item
            if isinstance(src, TupleVal):
                for it in src.items:
                    if isinstance(it, (Chunk, MatChunk)):
                        return it
                return DerivedIndex()
            return UNKNOWN
        if name in ("flatnonzero", "argsort", "searchsorted"):
            return DerivedIndex()
        if name == "diff":
            src = args[0] if args else UNKNOWN
            if isinstance(src, Chunk):
                return Chunk(src.axis, "delta", subset=src.subset)
            return UNKNOWN
        if name == "repeat":
            return args[0] if args else UNKNOWN
        if name in ("asarray", "asanyarray", "ascontiguousarray"):
            return args[0] if args else UNKNOWN
        return UNKNOWN

    def _call_builtin(self, name: str, node: ast.Call) -> AV:
        args = [self.eval(a) for a in node.args]
        for kw in node.keywords:
            self.eval(kw.value)
        if name == "check_factors":
            return TupleVal([FactorList(RANK), AxisLen(RANK)])
        if name == "alloc_output":
            return Matrix("A", RANK, I_OUT, is_output=True)
        if name == "len":
            src = args[0] if args else UNKNOWN
            if isinstance(src, LevelsHandle):
                return Const(src.order - 1)
            if isinstance(src, ShapeHandle):
                return Const(src.order)
            return UNKNOWN
        if name == "range":
            return RangeVal(args)
        if name == "zip":
            return ZipVal(args)
        if name in ("int", "float", "max", "min", "factor_dtype"):
            return args[0] if len(args) == 1 else UNKNOWN
        return UNKNOWN

    def _inline_helper(self, fn: HelperFn, node: ast.Call) -> AV:
        if self.depth >= self.MAX_DEPTH:
            raise Unverifiable(
                f"helper inlining too deep at {fn.func}", node.lineno
            )
        func_def = self.registry.function(fn.module, fn.func)
        params = [a.arg for a in func_def.args.args]
        bound: dict[str, AV] = {}
        for name, arg in zip(params, node.args):
            bound[name] = self.eval(arg)
        for kw in node.keywords:
            if kw.arg is not None:
                bound[kw.arg] = self.eval(kw.value)
        # defaults for unbound trailing params
        for name in params[len(node.args):]:
            bound.setdefault(name, UNKNOWN)
        saved_env = self.env
        self.env = bound
        self.depth += 1
        try:
            self.exec_body(func_def.body)
        finally:
            self.depth -= 1
            self.env = saved_env
        return Const(None)

    # -- statements ----------------------------------------------------
    def exec_body(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._exec_assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._exec_augassign(stmt)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt)
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval(stmt.value)
        elif isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            pass
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            pass
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            pass
        else:
            raise Unverifiable(
                f"unsupported statement {type(stmt).__name__}",
                stmt.lineno,
            )

    def _bind(self, target: ast.AST, value: AV, line: int) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            items: "list[AV]"
            if isinstance(value, TupleVal):
                items = value.items
            elif isinstance(value, ZipVal):
                items = value.items
            else:
                items = [UNKNOWN] * len(target.elts)
            if len(items) != len(target.elts):
                items = [UNKNOWN] * len(target.elts)
            for t, v in zip(target.elts, items):
                self._bind(t, v, line)
            return
        if isinstance(target, ast.Subscript):
            self._store_subscript(target, value, line, accumulate=False)
            return
        raise Unverifiable(
            f"unsupported assignment target {type(target).__name__}", line
        )

    def _exec_assign(self, stmt: "ast.Assign | ast.AnnAssign") -> None:
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return
            value = self.eval(stmt.value)
            self._bind(stmt.target, value, stmt.lineno)
            return
        value = self.eval(stmt.value)
        for target in stmt.targets:
            self._bind(target, value, stmt.lineno)

    def _exec_augassign(self, stmt: ast.AugAssign) -> None:
        value = self.eval(stmt.value)
        if isinstance(stmt.target, ast.Name):
            current = self.env.get(stmt.target.id, UNKNOWN)
            combined = current
            if isinstance(value, (Chunk, MatChunk)) and isinstance(
                current, (Unknown,)
            ):
                combined = value
            self.env[stmt.target.id] = combined
            return
        if isinstance(stmt.target, ast.Subscript):
            self._store_subscript(
                stmt.target, value, stmt.lineno, accumulate=True
            )
            return
        raise Unverifiable("unsupported augmented target", stmt.lineno)

    def _store_subscript(
        self, target: ast.Subscript, value: AV, line: int, accumulate: bool
    ) -> None:
        base = self.eval(target.value)
        sl = target.slice
        if isinstance(base, ListVal):
            self.eval(sl)
            if not isinstance(value, (Unknown, Const)):
                base.item = value
            return
        if isinstance(base, Matrix):
            if not (base.is_output or base.role == "A"):
                self.problems.append(
                    _ct703(
                        self.cert,
                        line,
                        f"store into non-output factor {base.role!r}",
                    )
                )
                return
            # slab store: A[:, lo:hi] = A_s
            if (
                isinstance(sl, ast.Tuple)
                and len(sl.elts) == 2
                and isinstance(sl.elts[0], ast.Slice)
                and sl.elts[0].lower is None
                and sl.elts[0].upper is None
            ):
                width = self._slice_width(sl.elts[1], base.width)
                rows = base.rows if base.rows is not None else I_OUT
                self._record_write(
                    "all_rows",
                    self.mult * rows * width,
                    line,
                    accumulate,
                )
                return
            # scatter: A[row_chunk] (+)= ...
            idx = self._index_value(sl)
            if isinstance(idx, Chunk) and idx.space == "out":
                self._record_write(
                    "distinct_out",
                    self.mult * DISTINCT_OUT * base.width,
                    line,
                    accumulate,
                )
                return
            if isinstance(idx, Chunk):
                self.problems.append(
                    Diagnostic(
                        "CT704",
                        self.cert.file,
                        line,
                        0,
                        f"kernel {self.cert.kernel!r} writes the output "
                        f"through a {idx.space!r}-space index; the row "
                        "footprint is not bounded by the declared "
                        "output-row write-set",
                        hint="scatter through output-row indices, or fix "
                        "the index stream wiring",
                    )
                )
                return
            raise Unverifiable(
                "output write with an unresolvable index", line
            )
        if isinstance(base, _OutputGatherView):
            # e.g. nested store through a gathered view — not used
            raise Unverifiable("store through a gathered view", line)
        if isinstance(base, Unknown):
            raise Unverifiable(
                "store into an unresolvable target", line
            )
        self.eval(sl)

    # -- loops ---------------------------------------------------------
    def _exec_for(self, stmt: ast.For) -> None:
        iterable = self.eval(stmt.iter)
        if isinstance(iterable, RangeVal):
            self._exec_range_for(stmt, iterable)
            return
        if isinstance(iterable, StripsVal):
            saved = self.mult
            self.mult = self.mult * N_STRIPS
            try:
                self._bind(
                    stmt.target,
                    TupleVal([StripBound("lo"), StripBound("hi")]),
                    stmt.lineno,
                )
                self.exec_body(stmt.body)
            finally:
                self.mult = saved
            return
        if isinstance(iterable, ZipVal):
            items: list[AV] = []
            for it in iterable.items:
                if isinstance(it, BlockList):
                    items.append(BlockHandle())
                elif isinstance(it, PerBlockList):
                    items.append(it.item)
                elif isinstance(it, ListVal):
                    items.append(it.item)
                else:
                    items.append(UNKNOWN)
            # block loops tile the tensor: one aggregate-symbol pass
            self._bind(stmt.target, TupleVal(items), stmt.lineno)
            self.exec_body(stmt.body)
            return
        if isinstance(iterable, BlockPairList):
            self._bind(
                stmt.target,
                TupleVal([BlockHandle(), CSFHandle(iterable.csf_order)]),
                stmt.lineno,
            )
            self.exec_body(stmt.body)
            return
        raise Unverifiable(
            "for-loop over an unrecognized iterable", stmt.lineno
        )

    def _exec_range_for(self, stmt: ast.For, rng: RangeVal) -> None:
        args = rng.args
        # chunk loop: range(0, axis_len, chunk) — the slices inside tile
        # the axis exactly once, so the body is walked with multiplicity 1
        if (
            len(args) == 3
            and isinstance(args[0], Const)
            and args[0].value == 0
            and isinstance(args[1], AxisLen)
        ):
            self._bind(stmt.target, UNKNOWN, stmt.lineno)
            self.chunk_depth += 1
            try:
                self.exec_body(stmt.body)
            finally:
                self.chunk_depth -= 1
            return
        # constant range: unroll (level walks, per-mode pack loops)
        values: "list[int] | None" = None
        if all(isinstance(a, Const) and isinstance(a.value, int) for a in args):
            ints = [a.value for a in args]  # type: ignore[union-attr]
            if len(ints) == 1:
                values = list(range(ints[0]))
            elif len(ints) == 2:
                values = list(range(ints[0], ints[1]))
            else:
                values = list(range(ints[0], ints[1], ints[2]))
        if values is not None:
            if len(values) > self.MAX_UNROLL:
                raise Unverifiable(
                    "constant loop too long to unroll", stmt.lineno
                )
            for v in values:
                self._bind(stmt.target, Const(v), stmt.lineno)
                self.exec_body(stmt.body)
            return
        raise Unverifiable(
            "range loop with unresolvable bounds", stmt.lineno
        )

    def _exec_while(self, stmt: ast.While) -> None:
        # chunk loop: `while f0 < n_fibers:` — slices inside tile their
        # axes once; anything else is unverifiable
        test = stmt.test
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Lt)
        ):
            bound = self.eval(test.comparators[0])
            if isinstance(bound, AxisLen):
                self.chunk_depth += 1
                try:
                    self.exec_body(stmt.body)
                finally:
                    self.chunk_depth -= 1
                return
        raise Unverifiable(
            "while-loop that is not a bounded chunk loop", stmt.lineno
        )

    def _exec_if(self, stmt: ast.If) -> None:
        test = self.eval(stmt.test)
        if isinstance(test, Const):
            if test.value:
                self.exec_body(stmt.body)
            else:
                self.exec_body(stmt.orelse)
            return
        # unresolvable: walk both branches (counts are upper bounds for
        # early-exit guards like `if nnz == 0: return`, whose body is
        # access-free)
        self.exec_body(stmt.body)
        self.exec_body(stmt.orelse)

    # -- entry ---------------------------------------------------------
    def run_execute(
        self, func: ast.FunctionDef, plan: HandleVal
    ) -> None:
        params = [a.arg for a in func.args.args]
        env: dict[str, AV] = {}
        for name in params:
            env[name] = UNKNOWN
        # execute(self, plan, factors, out=None)
        if len(params) >= 2:
            env[params[1]] = plan
        if len(params) >= 3:
            env[params[2]] = FactorList(RANK)
        self.env = env
        self.exec_body(func.body)


@dataclass
class _BoundMethod(AV):
    target: AV
    method: str


@dataclass
class _OutputGatherView(AV):
    """``A[rows]`` read as the load half of an accumulate."""

    base: Matrix
    index: Chunk


def _ct703(cert: CostCertificate, line: int, detail: str) -> Diagnostic:
    return Diagnostic(
        "CT703",
        cert.file,
        line,
        0,
        f"kernel {cert.kernel!r}: {detail}",
        hint="register the access in the kernel's cost spec, or remove "
        "the unmodeled access",
    )


# ---------------------------------------------------------------------
# Certificate derivation and contract checks
# ---------------------------------------------------------------------


def derive_certificate(
    name: str,
    registry: "ModuleRegistry | None" = None,
) -> "tuple[CostCertificate | None, list[Diagnostic]]":
    """Derive the symbolic certificate for one shipped kernel.

    Returns ``(certificate, diagnostics)``; an unverifiable kernel gives
    ``(None, [CT709])``."""
    spec = KERNEL_COST_SPECS[name]
    registry = registry or ModuleRegistry()
    file = registry.file_of(spec.module)
    try:
        func = registry.method(spec.module, spec.kernel_class, "execute")
    except Unverifiable as exc:
        return None, [
            Diagnostic(
                "CT709",
                file,
                exc.line,
                0,
                f"kernel {name!r}: {exc.message}",
                hint="keep the kernel's execute() analyzable, or exempt "
                "it from cost certification",
            )
        ]
    cert = CostCertificate(kernel=name, file=file, exec_line=func.lineno)
    walker = _Walker(registry, cert)
    try:
        walker.run_execute(func, spec.plan_env())
    except Unverifiable as exc:
        return None, [
            Diagnostic(
                "CT709",
                file,
                exc.line,
                0,
                f"kernel {name!r}: certificate underivable — {exc.message}",
                hint="use the chunk/strip/block loop idioms the certifier "
                "recognizes (see docs/static-analysis.md)",
            )
        ]
    cert.substitute(spec.subs_for(name))
    return cert, walker.problems


def _subbed(poly: Poly, subs: "Mapping[str, Poly | int]") -> Poly:
    return poly.substitute(subs) if subs else poly


def check_traffic_contract(
    cert: CostCertificate, spec: KernelCostSpec
) -> list[Diagnostic]:
    """CT701/CT702: derived streams and gathers vs the model mirror."""
    subs = spec.subs_for(cert.kernel)
    diags: list[Diagnostic] = []
    model_streams = model_stream_bytes()
    for cls in STREAM_CLASSES:
        want = _subbed(model_streams[cls], subs)
        have = _subbed(cert.stream_bytes.get(cls, ZERO), subs)
        line = cert.stream_lines.get(cls, cert.exec_line)
        if have == ZERO and want != ZERO:
            diags.append(
                Diagnostic(
                    "CT702",
                    cert.file,
                    cert.exec_line,
                    0,
                    f"kernel {cert.kernel!r}: the model's {cls!r} stream "
                    f"term ({want}) has no matching kernel access",
                    hint="the kernel no longer reads this tensor stream; "
                    "update the kernel or the traffic model together",
                )
            )
        elif have != want:
            diags.append(
                Diagnostic(
                    "CT701",
                    cert.file,
                    line,
                    0,
                    f"kernel {cert.kernel!r}: derived {cls!r} stream "
                    f"bytes {have} != model {want}",
                    hint="the kernel's loop nest moved away from the "
                    "traffic model; reconcile them",
                )
            )
    model_rows = model_gather_rows()
    for role in ("B", "C"):
        want = _subbed(model_rows[role], subs)
        have = _subbed(cert.gather_rows.get(role, ZERO), subs)
        line = cert.gather_lines.get(role, cert.exec_line)
        if have == ZERO:
            diags.append(
                Diagnostic(
                    "CT702",
                    cert.file,
                    cert.exec_line,
                    0,
                    f"kernel {cert.kernel!r}: the model gathers {role} "
                    f"{want} times but the kernel never gathers it",
                    hint="the factor gather disappeared; update kernel "
                    "or model together",
                )
            )
        elif have != want:
            diags.append(
                Diagnostic(
                    "CT701",
                    cert.file,
                    line,
                    0,
                    f"kernel {cert.kernel!r}: derived {role} gather rows "
                    f"{have} != model {want}",
                    hint="predicted_footprint charges one B row per "
                    "nonzero and one C row per fiber, per strip",
                )
            )
    if not cert.writes:
        diags.append(
            Diagnostic(
                "CT702",
                cert.file,
                cert.exec_line,
                0,
                f"kernel {cert.kernel!r}: no output write derived — the "
                "accumulator store is missing",
                hint="every MTTKRP must store its accumulated rows "
                "into the output",
            )
        )
    return diags


def check_write_contract(
    cert: CostCertificate, spec: KernelCostSpec
) -> list[Diagnostic]:
    """CT704: derived write footprint vs the declared write_set() kind."""
    diags: list[Diagnostic] = []
    for w in cert.writes:
        if w.kind == "all_rows" and not spec.full_write_set:
            diags.append(
                Diagnostic(
                    "CT704",
                    cert.file,
                    w.line,
                    0,
                    f"kernel {cert.kernel!r} stores every output row "
                    "(slab store) but its plan declares a sparse "
                    "write_set()",
                    hint="widen the plan's write_set() to the full range "
                    "or scatter only the owned rows",
                )
            )
    return diags


def declared_write_kind(
    spec: KernelCostSpec, registry: ModuleRegistry
) -> "str | None":
    """Parse the plan's declared ``write_set()`` shape from its AST:
    ``"sparse"`` (intervals_from_rows), ``"full"`` (whole-range tuple or
    inherited base default), or ``None`` when unresolvable (CT705)."""
    cls = registry.class_def(spec.module, spec.plan_class)
    if cls is None:
        return None
    func = None
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "write_set":
            func = item
    if func is None:
        return "full"  # the Plan base default: the full output range
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "intervals_from_rows":
                return "sparse"
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and isinstance(
            node.value, ast.Tuple
        ):
            return "full"
    return None


def emission_polys(
    registry: ModuleRegistry,
) -> "dict[str, tuple[Poly, int]]":
    """Extract the ``kernel.gathers`` / ``kernel.factor_bytes`` emission
    formulas from ``Kernel._traced_execute`` as polynomials.

    Raises :class:`Unverifiable` when an emission expression uses names
    outside the model vocabulary."""
    func = registry.function(_BASE_MODULE, "_traced_execute")
    names = {
        "nnz": NNZ,
        "n_fibers": N_FIBERS,
        "distinct_out": DISTINCT_OUT,
        "rank": RANK,
        "itemsize": ITEMSIZE,
    }

    def to_poly(node: ast.AST) -> Poly:
        if isinstance(node, ast.Constant) and isinstance(
            node.value, (int,)
        ):
            return Poly.const(node.value)
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            raise Unverifiable(
                f"emission uses unmodeled name {node.id!r}", node.lineno
            )
        if isinstance(node, ast.BinOp):
            left, right = to_poly(node.left), to_poly(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
        raise Unverifiable(
            "emission expression outside the polynomial fragment",
            getattr(node, "lineno", 1),
        )

    out: dict[str, tuple[Poly, int]] = {}
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "count"
            and len(node.args) == 2
            and isinstance(node.args[0], ast.Constant)
        ):
            continue
        counter = node.args[0].value
        if counter in ("kernel.gathers", "kernel.factor_bytes"):
            out[counter] = (to_poly(node.args[1]), node.lineno)
    return out


def check_counter_contract(
    cert: CostCertificate,
    spec: KernelCostSpec,
    registry: ModuleRegistry,
) -> list[Diagnostic]:
    """CT706/CT707: counter emission formulas vs the certificate."""
    base_file = registry.file_of(_BASE_MODULE)
    try:
        emissions = emission_polys(registry)
    except Unverifiable as exc:
        return [
            Diagnostic(
                "CT709",
                base_file,
                exc.line,
                0,
                f"counter emission unanalyzable: {exc.message}",
                hint="keep _traced_execute's counter formulas within "
                "the nnz/n_fibers/distinct_out/rank/itemsize polynomial "
                "fragment",
            )
        ]
    diags: list[Diagnostic] = []
    checks = [
        (
            "kernel.gathers",
            "CT706",
            cert.gathers_counter(),
            "gathered B/C rows per rank pass",
        ),
        (
            "kernel.factor_bytes",
            "CT707",
            cert.factor_bytes_counter(),
            "gathered factor elements plus the model's distinct_out "
            "output term, at the factor itemsize",
        ),
    ]
    for counter, rule, expected, describe in checks:
        if counter not in emissions:
            diags.append(
                Diagnostic(
                    rule,
                    base_file,
                    1,
                    0,
                    f"_traced_execute no longer emits {counter!r}",
                    hint="restore the counter emission; traces and the "
                    "certifier both rely on it",
                )
            )
            continue
        emitted, line = emissions[counter]
        subs = spec.subs_for(cert.kernel)
        want = _subbed(expected, subs)
        have = _subbed(emitted, subs)
        if want != have:
            diags.append(
                Diagnostic(
                    rule,
                    base_file,
                    line,
                    0,
                    f"{counter!r} emission {have} disagrees with kernel "
                    f"{cert.kernel!r}'s certificate ({want}: {describe})",
                    hint="the emission formula and the kernel's derived "
                    "access counts must stay consistent",
                )
            )
    return diags


def certify_kernel(
    name: str, registry: "ModuleRegistry | None" = None
) -> "tuple[CostCertificate | None, list[Diagnostic]]":
    """Full static certification (CT701-CT707, CT709) of one kernel."""
    registry = registry or ModuleRegistry()
    spec = KERNEL_COST_SPECS[name]
    cert, diags = derive_certificate(name, registry)
    if cert is None:
        return None, diags
    kind = declared_write_kind(spec, registry)
    if kind is None:
        diags.append(
            Diagnostic(
                "CT705",
                cert.file,
                cert.exec_line,
                0,
                f"kernel {name!r}: the plan's declared write_set() shape "
                "cannot be resolved statically",
                hint="declare write_set() via intervals_from_rows (sparse) "
                "or a literal full-range tuple",
            )
        )
    else:
        # keep the spec's belief honest against the parsed declaration
        declared_full = kind == "full"
        if declared_full != spec.full_write_set:
            diags.append(
                Diagnostic(
                    "CT705",
                    cert.file,
                    cert.exec_line,
                    0,
                    f"kernel {name!r}: declared write_set() is "
                    f"{kind} but the cost spec expects "
                    f"{'full' if spec.full_write_set else 'sparse'}",
                    hint="update KERNEL_COST_SPECS alongside the plan's "
                    "write_set() declaration",
                )
            )
    diags.extend(check_traffic_contract(cert, spec))
    diags.extend(check_write_contract(cert, spec))
    diags.extend(check_counter_contract(cert, spec, registry))
    return cert, diags


def certify_kernel_source(
    name: str, source: str
) -> "tuple[CostCertificate | None, list[Diagnostic]]":
    """Certify ``name`` with its module's source replaced by ``source``
    (the seeded-mutant entry point)."""
    spec = KERNEL_COST_SPECS[name]
    registry = ModuleRegistry(source_overrides={spec.module: source})
    return certify_kernel(name, registry)


@dataclass
class CostScan:
    """Result of certifying every shipped kernel."""

    diagnostics_by_file: dict[str, list[Diagnostic]]
    sources: dict[str, str]
    certificates: dict[str, CostCertificate]


def certify_all(
    trees: "Mapping[str, ast.Module | None] | None" = None,
) -> CostScan:
    """Certify all shipped kernels; the runner merges the result into
    its per-file diagnostic stream (family CT)."""
    registry = ModuleRegistry(trees=trees)
    by_file: dict[str, list[Diagnostic]] = {}
    sources: dict[str, str] = {}
    certs: dict[str, CostCertificate] = {}
    for name, spec in KERNEL_COST_SPECS.items():
        cert, diags = certify_kernel(name, registry)
        if cert is not None:
            certs[name] = cert
        for d in diags:
            by_file.setdefault(d.file, []).append(d)
        file = registry.file_of(spec.module)
        by_file.setdefault(file, [])
        sources[file] = registry.source_of(spec.module)
    base_file = registry.file_of(_BASE_MODULE)
    by_file.setdefault(base_file, [])
    sources[base_file] = registry.source_of(_BASE_MODULE)
    return CostScan(by_file, sources, certs)


# ---------------------------------------------------------------------
# Registration-time vet (opt-in, alongside DF611)
# ---------------------------------------------------------------------

#: Classes already cost-vetted clean in this process.
_COST_VETTED: "weakref.WeakSet" = weakref.WeakSet()


def cost_vet_enabled() -> bool:
    """The cost vet is opt-in (``REPRO_COST_VET=1``): third-party kernels
    have no cost spec and cannot be certified, so unlike DF611 this gate
    defaults off and only guards edits to the shipped kernels."""
    return os.environ.get("REPRO_COST_VET", "0").lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


def enforce_kernel_cost(cls: type) -> None:
    """Registration-time CT gate: certify a shipped kernel class when
    ``REPRO_COST_VET=1``; raise ``RegistrationError`` on any CT error.

    Classes without a cost spec (third-party kernels) are skipped — the
    static certifier only models the shipped kernel idioms."""
    if not cost_vet_enabled() or cls in _COST_VETTED:
        return
    spec = next(
        (
            s
            for s in KERNEL_COST_SPECS.values()
            if s.kernel_class == cls.__name__
            and s.module == cls.__module__
        ),
        None,
    )
    if spec is None:
        return
    errors = [
        d
        for name in spec.presets
        for d in certify_kernel(name)[1]
        if d.severity.value == "error"
    ]
    if errors:
        from repro.util.errors import RegistrationError

        listing = "; ".join(
            f"{d.rule} {d.file}:{d.line} {d.message}" for d in errors[:4]
        )
        raise RegistrationError(
            f"kernel class {cls.__name__} failed cost certification "
            f"({len(errors)} finding(s)): {listing}"
        )
    _COST_VETTED.add(cls)
