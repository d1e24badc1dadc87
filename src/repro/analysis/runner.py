"""Orchestrates the static-analysis passes over a file tree.

``repro check`` calls :func:`run_check`:

* the **contract pass** (:mod:`repro.analysis.contract`) scans every
  Python file — it only speaks up for ``Kernel``/``Plan`` subclasses and
  ``register_kernel`` sites, so scanning broadly is free and catches
  kernels living outside ``kernels/``;
* the **hot-path pass** (:mod:`repro.analysis.hotpath`) is restricted to
  files under a directory named ``kernels`` (the hot path by
  construction; coarse-grained orchestration loops elsewhere are not
  performance hazards);
* the **race pass** (:mod:`repro.analysis.races`) is schedule-shaped, not
  file-shaped — the CLI exposes it through ``--race-grid`` and the
  library wires it into the parallel/distributed entry points directly;
* the **plan pass** (:mod:`repro.analysis.plans`, opt-in via
  ``plans=True`` / ``repro check --plans``) verifies literal
  ``BlockGrid``/``RankBlocking``/``ProcessGrid`` constructions in the
  scanned files — benchmarks, examples, and tests are its natural scope.

Inline ``# repro: noqa[...]`` suppressions are honoured per file before
``--select`` / ``--ignore`` filters apply.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis import contract, hotpath
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    apply_suppressions,
    filter_rules,
    suppressions_for_source,
    unused_suppression_diagnostics,
)

#: Directories never scanned (caches, VCS internals, virtualenvs).
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    ".venv",
    "venv",
}

#: Directory names that are *usually* packaging output — but only when
#: they are not Python packages.  A bare name test here once silently
#: excluded the whole ``repro/dist`` package from every check run, so
#: no pass ever saw the dist sources.
_PACKAGING_DIRS = {"build", "dist"}


def _skip_part(part: str) -> bool:
    return part in _SKIP_DIRS or part.endswith(".egg-info")


def _skip_path(f: "Path") -> bool:
    """True when any ancestor directory disqualifies ``f``: caches and
    VCS dirs always; ``build``/``dist`` only when they are packaging
    output rather than a package (no ``__init__.py``)."""
    for parent in f.parents:
        name = parent.name
        if _skip_part(name):
            return True
        if name in _PACKAGING_DIRS and not (parent / "__init__.py").is_file():
            return True
    return False


def default_paths() -> list[Path]:
    """The repo's own package — ``repro check`` with no arguments is the
    self-hosted run CI gates on."""
    import repro

    return [Path(repro.__file__).parent]


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    out: set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_file() and p.suffix == ".py":
            out.add(p)
        elif p.is_dir():
            for f in p.rglob("*.py"):
                if not _skip_path(f):
                    out.add(f)
    return sorted(out)


def is_hot_path(path: Path) -> bool:
    """Hot-path lint scope: modules under a ``kernels`` directory."""
    return "kernels" in path.parts[:-1]


class ParseCache:
    """One shared AST per source file for every pass in a check run.

    The runner parses each file once here and hands the tree to every
    pass (contract, hotpath, plans).  ``parse_count`` is the number of actual ``ast.parse`` calls — the
    cache-sharing test asserts it equals the number of distinct files.
    """

    def __init__(self) -> None:
        self._trees: dict[str, "ast.Module | None"] = {}
        self.parse_count: int = 0

    def tree(self, file: str, source: str) -> "ast.Module | None":
        """The parsed module, or ``None`` for unparseable source (the
        contract pass still reports KC111 from its own parse attempt)."""
        if file not in self._trees:
            self.parse_count += 1
            try:
                self._trees[file] = ast.parse(source, filename=file)
            except SyntaxError:
                self._trees[file] = None
        return self._trees[file]


@dataclass
class CheckResult:
    """Outcome of one ``repro check`` run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    #: ``ast.parse`` calls actually made via the shared cache.
    parse_count: int = 0

    @property
    def errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return len(self.diagnostics) - self.errors

    @property
    def exit_code(self) -> int:
        """Non-zero when any diagnostic survives filtering — warnings
        included, so CI fails on new hot-path hazards too."""
        return 1 if self.diagnostics else 0


def run_check(
    paths: "Sequence[Path | str] | None" = None,
    select: "set[str] | None" = None,
    ignore: "set[str] | None" = None,
    plans: bool = False,
) -> CheckResult:
    """Run the contract and hot-path passes over ``paths``.

    ``select`` / ``ignore`` are resolved rule-id sets
    (:func:`repro.analysis.diagnostics.resolve_rules`).  ``plans=True``
    additionally runs the plan-verifier AST pass
    (:func:`repro.analysis.plans.scan_source`) over every file.

    Every pass shares one :class:`ParseCache`, so each file is parsed at
    most once per invocation regardless of how many passes are enabled.

    Unused ``# repro: noqa`` comments are reported as DG001, judged only
    against rule families whose pass actually ran on that file this
    invocation.
    """
    from repro.analysis import plans as plans_mod

    files = iter_python_files(
        [Path(p) for p in paths] if paths else default_paths()
    )
    cache = ParseCache()
    diags: list[Diagnostic] = []
    registrations: list[contract.RegisteredKernel] = []
    sources: dict[str, str] = {}
    #: Per-file diagnostics *before* suppression (DG001's evidence).
    raw_by_file: dict[str, list[Diagnostic]] = {}
    hot_files: set[str] = set()

    for f in files:
        rel = str(f)
        try:
            source = f.read_text(encoding="utf-8")
        except OSError:
            continue
        sources[rel] = source
        tree = cache.tree(rel, source)
        scan = contract.scan_source(source, rel, tree)
        file_diags = list(scan.diagnostics)
        registrations.extend(scan.registrations)
        if is_hot_path(f):
            hot_files.add(rel)
            file_diags.extend(hotpath.scan_source(source, rel, tree))
        if plans:
            file_diags.extend(plans_mod.scan_source(source, rel, tree))
        raw_by_file[rel] = file_diags

    # Duplicate-name findings join their file's raw list so both their
    # suppressions and DG001 usage accounting see them.
    for d in contract.duplicate_name_diagnostics(registrations):
        raw_by_file.setdefault(d.file, []).append(d)

    for rel, file_diags in raw_by_file.items():
        source = sources.get(rel)
        if source is None:  # pragma: no cover - defensive
            diags.extend(file_diags)
            continue
        suppressions = suppressions_for_source(source)
        diags.extend(apply_suppressions(file_diags, suppressions))
        active = {"KC", "DG"}
        if rel in hot_files:
            active.add("HP")
        if plans:
            active.add("PL")
        diags.extend(
            unused_suppression_diagnostics(
                file_diags, suppressions, rel, active
            )
        )

    diags = filter_rules(diags, select=select, ignore=ignore)
    diags.sort(key=lambda d: (d.file, d.line, d.col, d.rule))
    return CheckResult(
        diagnostics=diags,
        files_checked=len(files),
        parse_count=cache.parse_count,
    )
