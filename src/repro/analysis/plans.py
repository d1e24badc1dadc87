"""Symbolic plan verifier (rules PL401-PL406, PL408, PL409).

The paper's blocking structures all make the same implicit promise: they
tile an index space **exactly once**.  MB grids must cover every tensor
mode with no gaps and no overlaps (Fig. 3a), RankB strips must tile
``[0, R)`` with register blocks covering each strip including the
remainder (Sec. V-B), medium-grain slabs must assign every nonzero to
exactly one process block, and the 4D rank-extended decomposition must
keep its layer <-> rank-strip bijection so fold reductions see the full
rank (Sec. VI).  None of that was *proved* anywhere — a bad plan from a
buggy search strategy silently produces wrong MTTKRP output.

This module proves those invariants with a small half-open interval-set
algebra (:func:`tiling_report`) and reports violations through the same
:class:`~repro.analysis.diagnostics.Diagnostic` stream as every other
``repro check`` pass:

* :func:`verify_plan` — dispatch on any plan-like object (``BlockGrid``,
  ``RankBlocking``, ``ProcessGrid``, ``MediumGrainDecomposition``, or a
  kernel ``Plan``) and return diagnostics.
* :func:`scan_source` / :func:`check_file_plans` — an AST pass that
  finds *literal* grid/partition constructions in benchmarks, examples,
  and tests, constructs them, and verifies each one statically.

Plan types are imported lazily inside the dispatcher so this module can
be imported from anywhere (including ``blocking``/``dist`` call sites)
without cycles.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.util.errors import ConfigError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blocking.grid import BlockGrid
    from repro.blocking.rank import RankBlocking
    from repro.dist.grid import ProcessGrid
    from repro.dist.mediumgrain import MediumGrainDecomposition

#: Cap per-call diagnostics for any one failure kind so a degenerate
#: plan does not flood the report.
MAX_REPORTED = 5

#: Ranks a ``RankBlocking`` found without a rank in scope (the AST pass)
#: is probed against.  Covers tiny, register-block-boundary, non-multiple
#: and large ranks.
PROBE_RANKS = (8, 16, 100, 128, 512)


# ----------------------------------------------------------------------
# interval-set algebra
# ----------------------------------------------------------------------
def tiling_report(
    intervals: Iterable[tuple[int, int]], extent: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[tuple[int, int]]]:
    """Prove a set of half-open intervals tiles ``[0, extent)`` exactly.

    Returns ``(gaps, overlaps, malformed)`` — all empty iff the proof
    succeeds.  Empty intervals (``lo == hi``) cover nothing and overlap
    nothing, so they are ignored; reversed (``hi < lo``) or out-of-range
    intervals are reported as malformed.
    """
    gaps: list[tuple[int, int]] = []
    overlaps: list[tuple[int, int]] = []
    malformed: list[tuple[int, int]] = []
    ivs: list[tuple[int, int]] = []
    for lo, hi in intervals:
        lo, hi = int(lo), int(hi)
        if hi < lo or lo < 0 or hi > extent:
            malformed.append((lo, hi))
            continue
        if lo == hi:
            continue
        ivs.append((lo, hi))
    ivs.sort()
    cursor = 0
    for lo, hi in ivs:
        if lo > cursor:
            gaps.append((cursor, lo))
        elif lo < cursor:
            overlaps.append((lo, min(cursor, hi)))
        cursor = max(cursor, hi)
    if cursor < extent:
        gaps.append((cursor, extent))
    return gaps, overlaps, malformed


def boundaries_to_intervals(boundaries: Sequence[int]) -> list[tuple[int, int]]:
    """Consecutive-pair intervals of a boundary vector."""
    b = [int(x) for x in boundaries]
    return [(b[i], b[i + 1]) for i in range(len(b) - 1)]


def _diag(
    rule: str,
    message: str,
    hint: str = "",
    *,
    file: str = "<plan>",
    line: int = 0,
    col: int = 0,
) -> Diagnostic:
    return Diagnostic(rule=rule, file=file, line=line, col=col, message=message, hint=hint)


def _report_tiling(
    intervals: Iterable[tuple[int, int]],
    extent: int,
    *,
    gap_rule: str,
    overlap_rule: str,
    what: str,
    gap_hint: str = "",
    overlap_hint: str = "",
    file: str = "<plan>",
    line: int = 0,
) -> list[Diagnostic]:
    """Run :func:`tiling_report` and convert failures to diagnostics."""
    gaps, overlaps, malformed = tiling_report(intervals, extent)
    out: list[Diagnostic] = []
    for lo, hi in gaps[:MAX_REPORTED]:
        out.append(
            _diag(
                gap_rule,
                f"{what}: indices [{lo}, {hi}) are covered by no interval",
                gap_hint,
                file=file,
                line=line,
            )
        )
    for lo, hi in overlaps[:MAX_REPORTED]:
        out.append(
            _diag(
                overlap_rule,
                f"{what}: indices [{lo}, {hi}) are covered more than once",
                overlap_hint,
                file=file,
                line=line,
            )
        )
    for lo, hi in malformed[:MAX_REPORTED]:
        out.append(
            _diag(
                overlap_rule,
                f"{what}: interval [{lo}, {hi}) is malformed for extent {extent}"
                " (reversed or out of range)",
                overlap_hint,
                file=file,
                line=line,
            )
        )
    return out


# ----------------------------------------------------------------------
# structure verifiers
# ----------------------------------------------------------------------
def verify_boundaries(
    boundaries: Sequence[int],
    extent: int,
    what: str,
    *,
    file: str = "<plan>",
    line: int = 0,
) -> list[Diagnostic]:
    """PL401/PL402 for one mode's boundary vector."""
    return _report_tiling(
        boundaries_to_intervals(boundaries),
        extent,
        gap_rule="PL401",
        overlap_rule="PL402",
        what=what,
        gap_hint="boundaries must start at 0, end at the mode extent, and increase",
        overlap_hint="boundaries must be strictly increasing",
        file=file,
        line=line,
    )


def verify_grid(
    grid: "BlockGrid", *, file: str = "<plan>", line: int = 0
) -> list[Diagnostic]:
    """PL401/PL402: every mode of an MB grid tiles its extent exactly."""
    out: list[Diagnostic] = []
    for m, bounds in enumerate(grid.boundaries):
        out += verify_boundaries(
            bounds, grid.shape[m], f"grid mode {m}", file=file, line=line
        )
    return out


def verify_strips(
    strips: Sequence[tuple[int, int]],
    rank: int,
    *,
    file: str = "<plan>",
    line: int = 0,
) -> list[Diagnostic]:
    """PL403: rank strips must tile ``[0, rank)``."""
    return _report_tiling(
        strips,
        rank,
        gap_rule="PL403",
        overlap_rule="PL403",
        what=f"rank strips over R={rank}",
        gap_hint="strips must cover every rank column exactly once",
        overlap_hint="strips must cover every rank column exactly once",
        file=file,
        line=line,
    )


def verify_rank_blocking(
    rb: "RankBlocking",
    rank: int,
    *,
    file: str = "<plan>",
    line: int = 0,
) -> list[Diagnostic]:
    """PL403/PL404 for a ``RankBlocking`` at a concrete rank.

    Proves the strip set tiles ``[0, rank)`` and that each strip's
    register-block count covers the strip width including the remainder
    block (``(n-1)*reg < width <= n*reg``).
    """
    try:
        strips = rb.strips(rank)
    except ReproError as exc:
        return [
            _diag(
                "PL403",
                f"RankBlocking cannot produce strips for R={rank}: {exc}",
                "n_blocks/block_cols must be consistent with the rank",
                file=file,
                line=line,
            )
        ]
    out = verify_strips(strips, rank, file=file, line=line)
    reg = rb.register_block
    for lo, hi in strips:
        width = hi - lo
        if width <= 0:
            continue
        n = rb.register_blocks(width)
        covered = [(lo + i * reg, lo + min((i + 1) * reg, width)) for i in range(n)]
        gaps, overlaps, malformed = tiling_report(
            [(a - lo, b - lo) for a, b in covered], width
        )
        if gaps or overlaps or malformed:
            out.append(
                _diag(
                    "PL404",
                    f"strip [{lo}, {hi}): {n} register block(s) of width {reg} "
                    f"do not cover the {width}-column strip "
                    f"(gaps={gaps[:2]}, overlaps={overlaps[:2]})",
                    "register_blocks must be ceil(strip_width / register_block)",
                    file=file,
                    line=line,
                )
            )
    return out


def verify_process_grid(
    grid: "ProcessGrid",
    rank: int | None = None,
    *,
    file: str = "<plan>",
    line: int = 0,
) -> list[Diagnostic]:
    """PL408: layer <-> (a, b, c, t) bijection and, when a rank is in
    scope, rank-strip tiling of the t-way rank extension."""
    out: list[Diagnostic] = []
    seen: set[tuple[int, int, int, int]] = set()
    for r in range(grid.n_ranks):
        coords = grid.coords(r)
        if coords in seen:
            out.append(
                _diag(
                    "PL408",
                    f"grid coordinates {coords} map to more than one rank",
                    file=file,
                    line=line,
                )
            )
        seen.add(coords)
        back = grid.rank_of(*coords)
        if back != r:
            out.append(
                _diag(
                    "PL408",
                    f"rank {r} -> coords {coords} -> rank {back}: "
                    "coords/rank_of are not inverse",
                    file=file,
                    line=line,
                )
            )
        if len(out) >= MAX_REPORTED:
            break
    if rank is not None:
        out += verify_rank_extension(
            grid.rank_groups, rank, file=file, line=line
        )
    return out


def verify_rank_extension(
    rank_groups: int,
    rank: int,
    *,
    file: str = "<plan>",
    line: int = 0,
) -> list[Diagnostic]:
    """PL408: the t-way rank extension must split ``[0, rank)`` into
    ``rank_groups`` disjoint strips whose union is the full rank — that
    is what makes the final layer allgather a complete fold."""
    from repro.blocking.rank import RankBlocking

    if rank_groups > rank:
        return [
            _diag(
                "PL408",
                f"rank_groups={rank_groups} exceeds rank {rank}: some layers "
                "would own an empty strip and the allgather under-fills A",
                "use at most `rank` rank groups",
                file=file,
                line=line,
            )
        ]
    try:
        strips = RankBlocking(n_blocks=rank_groups).strips(rank)
    except ReproError as exc:
        return [
            _diag(
                "PL408",
                f"rank extension t={rank_groups} cannot strip R={rank}: {exc}",
                file=file,
                line=line,
            )
        ]
    diags = verify_strips(strips, rank, file=file, line=line)
    # Re-label strip failures as fold-completeness findings.
    return [
        _diag(
            "PL408",
            f"rank extension t={rank_groups}: {d.message}",
            "every rank column must be computed by exactly one layer",
            file=file,
            line=line,
        )
        for d in diags
    ]


def verify_decomposition(
    decomp: "MediumGrainDecomposition",
    rank: int | None = None,
    *,
    file: str = "<plan>",
    line: int = 0,
) -> list[Diagnostic]:
    """PL405/PL406 (and PL408 for 4D grids) for a medium-grain
    decomposition.

    * PL405 — per-mode chunk boundaries tile the tensor shape, every
      grid coordinate has a block, and each block's bounds equal the
      chunks its coordinates select.
    * PL406 — every nonzero a block holds lies inside the block's
      bounds; with disjoint bounds (PL405) and per-process nnz equal to
      the total, this proves the nonzero -> block map is a bijection.
    * PL408 — for 4D grids (``rank_groups > 1``) with a rank in scope,
      the rank extension tiles ``[0, rank)``.
    """
    out: list[Diagnostic] = []
    shape = decomp.tensor_shape
    q, r, s = decomp.grid.dims
    for mode in range(3):
        axis = decomp.axis_of_mode(mode)
        n_chunks = decomp.grid.dims[axis]
        bounds = decomp.boundaries[mode]
        if len(bounds) != n_chunks + 1:
            out.append(
                _diag(
                    "PL405",
                    f"mode {mode}: {len(bounds)} boundary entries for "
                    f"{n_chunks} chunks (need n_chunks + 1)",
                    file=file,
                    line=line,
                )
            )
            continue
        out += _report_tiling(
            boundaries_to_intervals(bounds),
            shape[mode],
            gap_rule="PL405",
            overlap_rule="PL405",
            what=f"decomposition mode {mode}",
            file=file,
            line=line,
        )
    expected = {(a, b, c) for a in range(q) for b in range(r) for c in range(s)}
    have = set(decomp.blocks)
    for coords in sorted(expected - have)[:MAX_REPORTED]:
        out.append(
            _diag(
                "PL405",
                f"grid position {coords} has no block",
                "materialize empty blocks so every process exists",
                file=file,
                line=line,
            )
        )
    for coords in sorted(have - expected)[:MAX_REPORTED]:
        out.append(
            _diag(
                "PL405",
                f"block at {coords} is outside the {q}x{r}x{s} grid",
                file=file,
                line=line,
            )
        )
    total_nnz = 0
    reported_406 = 0
    for coords in sorted(have & expected):
        block = decomp.blocks[coords]
        chunk_for_axis = coords
        for mode in range(3):
            axis = decomp.axis_of_mode(mode)
            want = decomp.mode_chunk(mode, chunk_for_axis[axis])
            if tuple(block.bounds[mode]) != want:
                out.append(
                    _diag(
                        "PL405",
                        f"block {coords} mode-{mode} bounds "
                        f"{tuple(block.bounds[mode])} != chunk {want}",
                        file=file,
                        line=line,
                    )
                )
        sub = block.tensor
        total_nnz += sub.nnz
        if sub.nnz and reported_406 < MAX_REPORTED:
            for mode in range(3):
                lo, hi = block.bounds[mode]
                idx = sub.indices[:, mode]
                bad = int(((idx < lo) | (idx >= hi)).sum())
                if bad:
                    out.append(
                        _diag(
                            "PL406",
                            f"block {coords}: {bad} nonzero(s) fall outside "
                            f"its mode-{mode} bounds [{lo}, {hi}) — they are "
                            "owned by (at least) two blocks or by none",
                            file=file,
                            line=line,
                        )
                    )
                    reported_406 += 1
    if decomp.grid.is_4d and rank is not None:
        out += verify_rank_extension(
            decomp.grid.rank_groups, rank, file=file, line=line
        )
    if decomp.grid.is_4d:
        out += verify_process_grid(decomp.grid, file=file, line=line)
    return out


def verify_capacity(
    plan,
    rank: int,
    machine,
    *,
    target_level: str | None = None,
    file: str = "<plan>",
    line: int = 0,
) -> list[Diagnostic]:
    """PL409 (warning): flag a plan whose worst-block factor working set
    exceeds the cache level the blocking claims to target.

    The working set of one block at one rank strip is the distinct
    factor rows it touches times the strip width (Sec. IV's premise:
    blocking exists to make exactly this fit).  The target defaults to
    the machine's fast tier (``fast_cache_bytes``) and honours the same
    residency fraction the traffic model uses.
    """
    from repro.machine.traffic import _FACTOR_CACHE_FRACTION

    if target_level is None:
        budget = machine.fast_cache_bytes
        level_name = machine.caches[-2].name if len(machine.caches) >= 2 else machine.caches[-1].name
    else:
        matches = [c for c in machine.caches if c.name == target_level]
        if not matches:
            raise ConfigError(
                f"machine has no cache level {target_level!r}; "
                f"known: {[c.name for c in machine.caches]}"
            )
        budget = matches[0].capacity_bytes
        level_name = matches[0].name
    budget = int(budget * _FACTOR_CACHE_FRACTION)
    strip_cols = max(hi - lo for lo, hi in plan.strips(rank))
    itemsize = 8  # VALUE_DTYPE is float64
    worst_rows = 0
    worst_coords = None
    for st in plan.block_stats():
        rows = st.distinct_out + st.distinct_inner + st.distinct_fiber
        if rows > worst_rows:
            worst_rows = rows
            worst_coords = st.coords
    ws_bytes = worst_rows * strip_cols * itemsize
    if ws_bytes > budget:
        return [
            _diag(
                "PL409",
                f"block {worst_coords}: factor working set "
                f"{ws_bytes / 1024:.0f} KiB ({worst_rows} rows x {strip_cols} "
                f"cols) exceeds the {level_name} budget {budget / 1024:.0f} KiB",
                "increase block counts or narrow the rank strips",
                file=file,
                line=line,
            )
        ]
    return []


# ----------------------------------------------------------------------
# dispatcher
# ----------------------------------------------------------------------
def verify_plan(
    obj,
    *,
    rank: int | None = None,
    machine=None,
    target_level: str | None = None,
    file: str = "<plan>",
    line: int = 0,
) -> list[Diagnostic]:
    """Verify any plan-like object and return its diagnostics.

    Dispatches on type: ``BlockGrid`` (PL401/PL402), ``RankBlocking``
    (PL403/PL404 — needs ``rank``), ``ProcessGrid`` (PL408),
    ``MediumGrainDecomposition`` (PL405/PL406/PL408), a kernel ``Plan``
    (its grid, rank blocking, and — with ``machine`` and ``rank`` —
    PL409 capacity).  An empty list is the proof of soundness.
    """
    from repro.blocking.grid import BlockGrid
    from repro.blocking.rank import RankBlocking
    from repro.dist.grid import ProcessGrid
    from repro.dist.mediumgrain import MediumGrainDecomposition
    from repro.kernels.base import Plan

    if isinstance(obj, BlockGrid):
        return verify_grid(obj, file=file, line=line)
    if isinstance(obj, RankBlocking):
        if rank is None:
            return verify_rank_blocking_probes(obj, file=file, line=line)
        return verify_rank_blocking(obj, rank, file=file, line=line)
    if isinstance(obj, ProcessGrid):
        return verify_process_grid(obj, rank, file=file, line=line)
    if isinstance(obj, MediumGrainDecomposition):
        return verify_decomposition(obj, rank, file=file, line=line)
    if isinstance(obj, Plan):
        out: list[Diagnostic] = []
        grid = getattr(obj, "grid", None)
        if grid is not None:
            out += verify_grid(grid, file=file, line=line)
        rb = getattr(obj, "rank_blocking", None)
        if rb is not None:
            if rank is not None:
                out += verify_rank_blocking(rb, rank, file=file, line=line)
            else:
                out += verify_rank_blocking_probes(rb, file=file, line=line)
        if machine is not None and rank is not None:
            out += verify_capacity(
                obj, rank, machine, target_level=target_level, file=file, line=line
            )
        return out
    raise ConfigError(
        f"verify_plan does not know how to verify {type(obj).__name__}"
    )


def verify_rank_blocking_probes(
    rb: "RankBlocking",
    *,
    ranks: Sequence[int] = PROBE_RANKS,
    file: str = "<plan>",
    line: int = 0,
) -> list[Diagnostic]:
    """Verify a ``RankBlocking`` with no rank in scope against a probe
    set of ranks, skipping ranks the blocking is not defined for."""
    out: list[Diagnostic] = []
    for r in ranks:
        if rb.n_blocks is not None and rb.n_blocks > r:
            continue
        out += verify_rank_blocking(rb, r, file=file, line=line)
    return out


# ----------------------------------------------------------------------
# AST pass over literal constructions
# ----------------------------------------------------------------------
_CONSTRUCTOR_RULE = {
    "BlockGrid": "PL401",
    "RankBlocking": "PL403",
    "ProcessGrid": "PL408",
}


def _literal(node: ast.expr):
    """``ast.literal_eval`` that signals failure with a sentinel."""
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError, TypeError):
        return _SKIP


_SKIP = object()


def _raises_spans(tree: ast.AST) -> list[tuple[int, int]]:
    """Line spans of ``with pytest.raises(...)`` bodies — literal plan
    constructions there are *meant* to be invalid."""
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            name = ""
            if isinstance(expr, ast.Call):
                func = expr.func
                name = getattr(func, "attr", "") or getattr(func, "id", "")
            if name == "raises":
                end = getattr(node, "end_lineno", node.lineno) or node.lineno
                spans.append((node.lineno, end))
                break
    return spans


def scan_source(
    source: str, filename: str, tree: "ast.Module | None" = None
) -> list[Diagnostic]:
    """Find literal ``BlockGrid(...)`` / ``BlockGrid.from_boundaries(...)``
    / ``RankBlocking(...)`` / ``ProcessGrid(...)`` constructions in a
    source file, construct each, and verify it.  ``tree`` optionally
    reuses the runner's shared parse of the module.

    Calls whose arguments are not literals are skipped (a dynamic plan
    is the tuner's job to verify), as are calls inside
    ``with pytest.raises(...)`` blocks (deliberately invalid fixtures).
    """
    try:
        if tree is None:
            tree = ast.parse(source, filename=filename)
    except SyntaxError:
        return []
    spans = _raises_spans(tree)
    out: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        ctor: str | None = None
        factory = False
        if isinstance(func, ast.Name) and func.id in _CONSTRUCTOR_RULE:
            ctor = func.id
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "from_boundaries"
            and isinstance(func.value, ast.Name)
            and func.value.id == "BlockGrid"
        ):
            ctor = "BlockGrid"
            factory = True
        if ctor is None:
            continue
        if any(lo <= node.lineno <= hi for lo, hi in spans):
            continue
        args = [_literal(a) for a in node.args]
        kwargs = {k.arg: _literal(k.value) for k in node.keywords if k.arg}
        if any(a is _SKIP for a in args) or any(
            v is _SKIP for v in kwargs.values()
        ):
            continue
        out += _verify_literal(
            ctor, factory, args, kwargs, file=filename, line=node.lineno
        )
    return out


def _verify_literal(
    ctor: str,
    factory: bool,
    args: list,
    kwargs: dict,
    *,
    file: str,
    line: int,
) -> list[Diagnostic]:
    from repro.blocking.grid import BlockGrid
    from repro.blocking.rank import RankBlocking
    from repro.dist.grid import ProcessGrid

    try:
        if ctor == "BlockGrid" and factory:
            obj = BlockGrid.from_boundaries(*args, **kwargs)
        elif ctor == "BlockGrid":
            obj = BlockGrid(*args, **kwargs)
        elif ctor == "RankBlocking":
            obj = RankBlocking(*args, **kwargs)
        else:
            obj = ProcessGrid(*args, **kwargs)
    except ReproError as exc:
        return [
            _diag(
                _CONSTRUCTOR_RULE[ctor],
                f"literal {ctor} construction is invalid: {exc}",
                file=file,
                line=line,
            )
        ]
    except TypeError:
        return []  # signature mismatch (e.g. shadowed name) — not a plan bug
    return verify_plan(obj, file=file, line=line)


def check_file_plans(path: str) -> list[Diagnostic]:
    """Run :func:`scan_source` over one file on disk."""
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    except OSError:
        return []
    return scan_source(source, path)
