"""Unified diagnostic model for the static-analysis passes.

Every pass (:mod:`repro.analysis.hotpath`, :mod:`repro.analysis.plans`,
:mod:`repro.analysis.sanitize`) reports findings as :class:`Diagnostic`
records — rule id, severity, location, message, fix hint — so the CLI can
render one consistent text or JSON stream and CI can consume it.

Rules are registered in :data:`RULES`; each is individually suppressible,
either inline (``# repro: noqa`` or ``# repro: noqa[HP302]`` on the
flagged line) or globally (``repro check --ignore HP302``).  The full rule
catalog with rationale and examples lives in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import enum
import io
import json
import re
import tokenize
from dataclasses import dataclass, field

from repro.util.errors import ConfigError


class Severity(enum.Enum):
    """How bad a finding is.  ``ERROR`` findings are contract or safety
    violations; ``WARNING`` findings are performance hazards."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Rule:
    """One checkable invariant: id, default severity, one-line summary."""

    id: str
    severity: Severity
    summary: str


#: The rule catalog.  Ids are stable; docs/static-analysis.md documents
#: each with rationale, an example, and the suppression spelling.
RULES: dict[str, Rule] = {
    r.id: r
    for r in [
        # --- hot-path performance (HP3xx) -----------------------------
        Rule("HP301", Severity.WARNING, "per-element Python loop over an array"),
        Rule("HP302", Severity.WARNING, "loop-invariant attribute chain looked up repeatedly in a hot loop"),
        Rule("HP303", Severity.WARNING, "numpy allocation without an explicit dtype"),
        # --- plan verifier (PL4xx) ------------------------------------
        Rule("PL401", Severity.ERROR, "mode boundaries leave an index-space gap"),
        Rule("PL402", Severity.ERROR, "mode boundaries overlap (an index lands in two blocks)"),
        Rule("PL403", Severity.ERROR, "rank strips fail to tile [0, R)"),
        Rule("PL404", Severity.ERROR, "register blocks do not cover their rank strip"),
        Rule("PL405", Severity.ERROR, "decomposition blocks do not tile the index space"),
        Rule("PL406", Severity.ERROR, "nonzero maps to zero or multiple (replica, block) owners"),
        Rule("PL408", Severity.ERROR, "4D rank extension breaks fold completeness or layer bijection"),
        Rule("PL409", Severity.WARNING, "plan working set exceeds the targeted cache level"),
        # --- execution sanitizer (SZ5xx) ------------------------------
        Rule("SZ501", Severity.ERROR, "kernel wrote outside its declared write-set"),
        Rule("SZ502", Severity.ERROR, "gather index out of bounds for the factor it indexes"),
        Rule("SZ503", Severity.ERROR, "NaN emerged from finite inputs"),
        Rule("SZ504", Severity.ERROR, "Inf emerged from finite inputs"),
        Rule("SZ506", Severity.WARNING, "observed factor-row footprint diverges from the traffic model"),
        # --- suppression hygiene (DG0xx) ------------------------------
        Rule("DG001", Severity.WARNING, "unused `# repro: noqa` suppression"),
        Rule("DG002", Severity.ERROR, "file does not parse"),
    ]
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding, pointing at a file:line with a fix hint."""

    rule: str
    file: str
    line: int
    col: int
    message: str
    hint: str = ""
    severity: Severity = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ConfigError(f"unknown diagnostic rule {self.rule!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", RULES[self.rule].severity)

    def format(self) -> str:
        """``file:line:col: RULE [severity] message (hint: ...)``."""
        loc = f"{self.file}:{self.line}:{self.col}"
        text = f"{loc}: {self.rule} [{self.severity.value}] {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        """JSON-serializable form (the ``--format json`` record)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


def resolve_rules(spec: "str | list[str] | None") -> "set[str] | None":
    """Parse a ``--select`` / ``--ignore`` rule list (comma or space
    separated ids, or prefixes like ``HP``); ``None`` means no filter."""
    if spec is None:
        return None
    if isinstance(spec, str):
        parts = [p for p in re.split(r"[,\s]+", spec) if p]
    else:
        parts = list(spec)
    resolved: set[str] = set()
    for part in parts:
        part = part.upper()
        matches = {rid for rid in RULES if rid == part or rid.startswith(part)}
        if not matches:
            raise ConfigError(
                f"unknown rule or prefix {part!r}; known: {sorted(RULES)}"
            )
        resolved |= matches
    return resolved


#: Inline suppression marker: ``# repro: noqa`` (all rules) or
#: ``# repro: noqa[PL401,HP302]`` (listed rules only).
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[\w,\s]+)\])?")


def _record_noqa(
    out: "dict[int, set[str] | None]", lineno: int, m: "re.Match[str]"
) -> None:
    rules = m.group("rules")
    if rules is None:
        out[lineno] = None
    else:
        out[lineno] = {r.strip().upper() for r in rules.split(",") if r.strip()}


def suppressions_for_source(source: str) -> "dict[int, set[str] | None]":
    """Map 1-based line numbers to their suppressed rule ids.

    A value of ``None`` suppresses every rule on that line.  Only real
    comment tokens count — a ``# repro: noqa`` spelling quoted inside a
    docstring (or backtick-quoted inside a doc comment, as in this very
    module) documents the marker rather than applying it.  Sources that
    fail to tokenize fall back to a plain line scan.
    """
    out: dict[int, set[str] | None] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if m is None:
                continue
            if m.start() > 0 and tok.string[m.start() - 1] in "`\"'":
                continue  # quoted mention, not a directive
            _record_noqa(out, tok.start[0], m)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        out.clear()
        for lineno, line in enumerate(source.splitlines(), start=1):
            m = _NOQA_RE.search(line)
            if m is not None:
                _record_noqa(out, lineno, m)
    return out


def apply_suppressions(
    diags: list[Diagnostic], suppressions: "dict[int, set[str] | None]"
) -> list[Diagnostic]:
    """Drop diagnostics whose line carries a matching ``repro: noqa``."""
    kept = []
    for d in diags:
        rules = suppressions.get(d.line, ...)
        if rules is ...:
            kept.append(d)
        elif rules is not None and d.rule not in rules:
            kept.append(d)
    return kept


def filter_rules(
    diags: list[Diagnostic],
    select: "set[str] | None" = None,
    ignore: "set[str] | None" = None,
) -> list[Diagnostic]:
    """Apply ``--select`` / ``--ignore`` filters."""
    out = []
    for d in diags:
        if select is not None and d.rule not in select:
            continue
        if ignore is not None and d.rule in ignore:
            continue
        out.append(d)
    return out


#: Rule-family prefix -> human label, in catalog order (``--statistics``).
RULE_FAMILIES: dict[str, str] = {
    "HP": "hot-path lint",
    "PL": "plan verifier",
    "SZ": "execution sanitizer",
    "DG": "parse errors and suppression hygiene",
}

#: Families whose rules are produced at runtime, never by a file-based
#: pass — a ``# repro: noqa[SZ501]`` in source can therefore never be
#: "exercised" by ``repro check`` and is exempt from DG001.
RUNTIME_FAMILIES: frozenset = frozenset({"SZ"})


def unused_suppression_diagnostics(
    raw_diags: list[Diagnostic],
    suppressions: "dict[int, set[str] | None]",
    file: str,
    active_families: "set[str] | frozenset",
) -> list[Diagnostic]:
    """Rule DG001 (the RUF100 analog): flag ``# repro: noqa`` comments
    that suppressed nothing.

    ``raw_diags`` are the file's diagnostics *before* suppression, so a
    noqa that matched at least one finding counts as used.  Only rules
    whose family pass actually ran this invocation (``active_families``)
    are considered — a ``noqa[PL401]`` is not "unused" just because the
    run skipped ``--plans`` — and the runtime-only family (SZ) is
    always exempt.  Ids that name no rule in :data:`RULES` (a deleted
    rule, a typo) can never fire and are always reported.  A line whose
    noqa names ``DG001`` itself is never flagged (the self-suppression
    spelling).
    """
    by_line: dict[int, set[str]] = {}
    for d in raw_diags:
        by_line.setdefault(d.line, set()).add(d.rule)
    out: list[Diagnostic] = []
    for line in sorted(suppressions):
        rules = suppressions[line]
        fired = by_line.get(line, set())
        if rules is None:
            # Bare `# repro: noqa`: unused only when nothing at all fired.
            if not fired:
                out.append(
                    Diagnostic(
                        "DG001",
                        file,
                        line,
                        0,
                        "bare `# repro: noqa` suppresses nothing on this line",
                        hint="remove it, or scope it to the rule you expect "
                        "(`# repro: noqa[RULE]`)",
                    )
                )
            continue
        if "DG001" in rules:
            continue
        unknown = sorted(r for r in rules if r not in RULES)
        if unknown:
            out.append(
                Diagnostic(
                    "DG001",
                    file,
                    line,
                    0,
                    "unknown rule id: " + ", ".join(unknown),
                    hint="drop the id(s) from the noqa comment; no such "
                    "rule exists",
                )
            )
        considered = {
            r
            for r in rules
            if r in RULES
            and family_of(r) in active_families
            and family_of(r) not in RUNTIME_FAMILIES
        }
        unused = sorted(considered - fired)
        if unused:
            out.append(
                Diagnostic(
                    "DG001",
                    file,
                    line,
                    0,
                    "unused suppression: "
                    + ", ".join(unused)
                    + " never fires on this line",
                    hint="drop the stale rule id(s) from the noqa comment",
                )
            )
    return out


def family_of(rule: str) -> str:
    """The family prefix of a rule id (``"HP302"`` -> ``"HP"``)."""
    alpha = rule.rstrip("0123456789")
    return alpha if alpha in RULE_FAMILIES else rule


def rule_family_counts(diags: list[Diagnostic]) -> dict[str, int]:
    """Per-family diagnostic counts, keyed by prefix, catalog order first."""
    counts: dict[str, int] = {}
    for family in RULE_FAMILIES:
        n = sum(1 for d in diags if family_of(d.rule) == family)
        if n:
            counts[family] = n
    for d in diags:  # anything outside the known families, just in case
        fam = family_of(d.rule)
        if fam not in counts and fam not in RULE_FAMILIES:
            counts[fam] = sum(1 for x in diags if family_of(x.rule) == fam)
    return counts


def render_text(
    diags: list[Diagnostic], files_checked: int, statistics: bool = False
) -> str:
    """The human-readable report."""
    lines = [d.format() for d in diags]
    errors = sum(1 for d in diags if d.severity is Severity.ERROR)
    warnings = len(diags) - errors
    lines.append(
        f"repro check: {files_checked} file(s), "
        f"{errors} error(s), {warnings} warning(s)"
    )
    if statistics:
        counts = rule_family_counts(diags)
        if counts:
            for fam, n in counts.items():
                label = RULE_FAMILIES.get(fam, fam)
                lines.append(f"  {fam}: {n}  ({label})")
        else:
            lines.append("  (no diagnostics in any rule family)")
    return "\n".join(lines)


def render_json(
    diags: list[Diagnostic], files_checked: int, statistics: bool = False
) -> str:
    """The machine-readable report (``--format json``)."""
    errors = sum(1 for d in diags if d.severity is Severity.ERROR)
    payload = {
        "diagnostics": [d.to_dict() for d in diags],
        "summary": {
            "files_checked": files_checked,
            "errors": errors,
            "warnings": len(diags) - errors,
        },
    }
    if statistics:
        payload["statistics"] = rule_family_counts(diags)
    return json.dumps(payload, indent=2)
