"""AST hot-path performance lint for kernel modules (rules HP301-HP303).

The kernels are numpy-vectorized by design (DESIGN.md); a single
devectorized loop over nonzeros or fibers costs orders of magnitude and
is invisible to the test suite (correctness is unaffected).  This pass
flags the three regressions most likely to creep in as Dynasor-style
layout tricks get ported:

* **HP301** — a per-element Python loop over an array
  (``for i in range(len(x)): ... x[i] ...``): the nnz/fiber streams must
  go through bulk ops (fancy indexing, the compiled segment sums of
  :mod:`repro.kernels.base`), never per-element Python iteration.
  Chunk loops (``range(lo, hi, step)``)
  and loops over block lists are structurally exempt.
* **HP302** — a loop-invariant dotted attribute chain (``plan.base.vals``)
  looked up repeatedly inside a loop: each lookup is a dict probe per
  iteration; hoist it to a local before the loop.
* **HP303** — ``np.zeros/empty/ones/full`` without an explicit ``dtype``:
  the float64 default silently promotes float32 pipelines and doubles
  memory traffic — exactly the quantity the machine model meters.

Scope: files under a ``kernels`` directory (the hot path); the runner
enforces that restriction.
"""

from __future__ import annotations

import ast
from collections import Counter

from repro.analysis.diagnostics import Diagnostic

#: Invariant-chain occurrence count at which HP302 fires.
HP302_THRESHOLD = 3

#: numpy allocators and the positional index of their dtype argument.
_ALLOCATORS = {"zeros": 1, "empty": 1, "ones": 1, "full": 2}


def _dotted_chain(node: ast.expr) -> "tuple[str, str] | None":
    """``(root, dotted)`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or not parts:
        return None
    parts.append(node.id)
    parts.reverse()
    return parts[0], ".".join(parts)


def _assigned_names(node: ast.AST) -> set[str]:
    """Every name bound anywhere inside ``node`` (loop targets, assigns,
    with-items, comprehension targets, walrus)."""
    names: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            for t in targets:
                for sub in ast.walk(t):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(n, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(n.target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
        elif isinstance(n, ast.NamedExpr):
            if isinstance(n.target, ast.Name):
                names.add(n.target.id)
        elif isinstance(n, (ast.withitem,)):
            if n.optional_vars is not None:
                for sub in ast.walk(n.optional_vars):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
    return names


def _per_element_index_var(loop: ast.For) -> "str | None":
    """The index variable of a per-element iteration pattern, or None.

    Matches ``for i in range(len(x))``, ``range(x.shape[0])``, and
    ``range(x.size)`` — single-argument range only, so stepped chunk
    loops (``range(lo, hi, chunk)``) and small fixed-trip loops over
    modes/levels are structurally exempt.
    """
    it = loop.iter
    if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)):
        return None
    if it.func.id != "range" or len(it.args) != 1:
        return None
    arg = it.args[0]
    is_len = (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Name)
        and arg.func.id == "len"
    )
    is_shape0 = (
        isinstance(arg, ast.Subscript)
        and isinstance(arg.value, ast.Attribute)
        and arg.value.attr == "shape"
    )
    is_size = isinstance(arg, ast.Attribute) and arg.attr == "size"
    if not (is_len or is_shape0 or is_size):
        return None
    if isinstance(loop.target, ast.Name):
        return loop.target.id
    return None


def _subscripts_by(body: list[ast.stmt], var: str) -> "ast.Subscript | None":
    """First subscript whose index expression mentions ``var``."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Subscript):
                for sub in ast.walk(node.slice):
                    if isinstance(sub, ast.Name) and sub.id == var:
                        return node
    return None


def _check_loops(tree: ast.AST, file: str, diags: list[Diagnostic]) -> None:
    loops = [
        n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While))
    ]
    reported: set[tuple[str, int]] = set()

    for loop in loops:
        # ---- HP301: per-element iteration ---------------------------
        if isinstance(loop, ast.For):
            idx = _per_element_index_var(loop)
            if idx is not None:
                hit = _subscripts_by(loop.body, idx)
                if hit is not None:
                    key = ("<HP301>", loop.lineno)
                    if key not in reported:
                        reported.add(key)
                        diags.append(
                            Diagnostic(
                                "HP301",
                                file,
                                loop.lineno,
                                loop.col_offset,
                                "per-element Python loop indexes an array with "
                                f"the loop variable {idx!r}",
                                hint="replace with a bulk equivalent (fancy "
                                "indexing, or repro.kernels.base.segment_sums_into "
                                "for segmented row sums)",
                            )
                        )

        # ---- HP302: repeated loop-invariant attribute chains --------
        bound = _assigned_names(loop)
        chains: Counter = Counter()
        first_line: dict[str, tuple[int, int]] = {}
        # Count only *maximal* chains: ast.walk visits outer attributes
        # first, so once `self.csf.vals` is counted its prefix `self.csf`
        # is skipped (hoisting the full chain removes both lookups).
        inner: set[int] = set()
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and id(node) not in inner:
                    chain = _dotted_chain(node)
                    if chain is None:
                        continue
                    sub = node.value
                    while isinstance(sub, ast.Attribute):
                        inner.add(id(sub))
                        sub = sub.value
                    root, dotted = chain
                    if root in bound:
                        continue
                    chains[dotted] += 1
                    if dotted not in first_line:
                        first_line[dotted] = (node.lineno, node.col_offset)
        for dotted, count in chains.items():
            if count < HP302_THRESHOLD:
                continue
            line, col = first_line[dotted]
            key = (dotted, line)
            if key in reported:
                continue
            reported.add(key)
            diags.append(
                Diagnostic(
                    "HP302",
                    file,
                    line,
                    col,
                    f"attribute chain {dotted!r} is loop-invariant but looked "
                    f"up {count} times inside the loop",
                    hint=f"hoist it: `{dotted.split('.')[-1]} = {dotted}` before the loop",
                )
            )


def _check_allocations(tree: ast.AST, file: str, diags: list[Diagnostic]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if not (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id in ("np", "numpy")
            and f.attr in _ALLOCATORS
        ):
            continue
        dtype_pos = _ALLOCATORS[f.attr]
        has_dtype = len(node.args) > dtype_pos or any(
            kw.arg == "dtype" for kw in node.keywords
        )
        if not has_dtype:
            diags.append(
                Diagnostic(
                    "HP303",
                    file,
                    node.lineno,
                    node.col_offset,
                    f"np.{f.attr}(...) without an explicit dtype defaults to "
                    "float64",
                    hint="pass dtype= (VALUE_DTYPE, or the source array's "
                    ".dtype) so float32 pipelines are not silently promoted",
                )
            )


def scan_source(
    source: str, file: str, tree: "ast.Module | None" = None
) -> list[Diagnostic]:
    """Run the hot-path pass over one module's source.  ``tree``
    optionally reuses the runner's shared parse of the module."""
    diags: list[Diagnostic] = []
    try:
        if tree is None:
            tree = ast.parse(source, filename=file)
    except SyntaxError:  # the runner reports the parse failure (DG002)
        return diags
    _check_loops(tree, file, diags)
    _check_allocations(tree, file, diags)
    return diags
