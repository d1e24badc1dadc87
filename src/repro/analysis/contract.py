"""AST-based kernel-contract checker (rules KC101-KC111).

The :class:`~repro.kernels.base.Kernel` / :class:`~repro.kernels.base.Plan`
ABCs carry invariants the type system cannot express: every kernel must
allocate its output through ``alloc_output`` (so buffers are zeroed,
float64, and shape-checked), validate factors through ``check_factors``
(so dtype/contiguity coercion is uniform), keep the ``prepare(tensor,
mode, **params)`` / ``execute(plan, factors, out=None)`` signatures the
CLI and CP-ALS driver rely on, and register a unique name.  This pass
proves those properties *statically* — no kernel import, no execution —
so a contract-breaking kernel is caught by ``repro check`` before any
benchmark or CPD run trusts it.

The checker is purely syntactic: it inspects classes whose base-class
spelling is ``Kernel`` / ``Plan`` (possibly dotted, e.g. ``base.Kernel``)
and ``register_kernel(...)`` call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic


def _base_names(cls: ast.ClassDef) -> set[str]:
    """Last components of all base-class expressions (``base.Kernel`` ->
    ``Kernel``)."""
    names = set()
    for b in cls.bases:
        if isinstance(b, ast.Name):
            names.add(b.id)
        elif isinstance(b, ast.Attribute):
            names.add(b.attr)
    return names


def _class_attr_str(cls: ast.ClassDef, attr: str) -> "str | None":
    """Value of a class-level ``attr = "literal"`` assignment, if any."""
    for node in cls.body:
        targets: list[ast.expr] = []
        value: "ast.expr | None" = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for t in targets:
            if isinstance(t, ast.Name) and t.id == attr:
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    return value.value
                return ""  # assigned, but not a string literal
    return None


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _decorator_names(fn: ast.FunctionDef) -> set[str]:
    names = set()
    for d in fn.decorator_list:
        if isinstance(d, ast.Name):
            names.add(d.id)
        elif isinstance(d, ast.Attribute):
            names.add(d.attr)
        elif isinstance(d, ast.Call):
            if isinstance(d.func, ast.Name):
                names.add(d.func.id)
            elif isinstance(d.func, ast.Attribute):
                names.add(d.func.attr)
    return names


def _calls_function(fn: ast.FunctionDef, name: str) -> bool:
    """True if the function body contains a call to ``name`` (bare or as
    the last component of a dotted call)."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == name:
                return True
            if isinstance(f, ast.Attribute) and f.attr == name:
                return True
    return False


@dataclass
class RegisteredKernel:
    """One ``register_kernel(Cls())`` site resolved to its class."""

    class_name: str
    registry_name: "str | None"
    file: str
    line: int


@dataclass
class ContractScan:
    """Findings of one file plus the registration records needed for the
    cross-file duplicate-name rule (KC101)."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    registrations: list[RegisteredKernel] = field(default_factory=list)


def _check_prepare(fn: ast.FunctionDef, file: str, diags: list[Diagnostic]) -> None:
    args = fn.args
    names = [a.arg for a in args.args]
    ok = len(names) >= 3 and names[0] == "self" and names[1] == "tensor" and names[2] == "mode"
    if not ok:
        diags.append(
            Diagnostic(
                "KC103",
                file,
                fn.lineno,
                fn.col_offset,
                f"prepare() must start with (self, tensor, mode, ...), got ({', '.join(names)})",
                hint="match Kernel.prepare(self, tensor, mode, **params)",
            )
        )
        return
    if args.kwarg is None:
        diags.append(
            Diagnostic(
                "KC103",
                file,
                fn.lineno,
                fn.col_offset,
                "prepare() must accept **params so kernel-specific options pass through get_kernel/CLI paths",
                hint="add a trailing **params: object parameter",
            )
        )


def _check_execute(fn: ast.FunctionDef, file: str, diags: list[Diagnostic]) -> None:
    args = fn.args
    names = [a.arg for a in args.args]
    ok = len(names) >= 3 and names[0] == "self" and names[1] == "plan" and names[2] == "factors"
    out_ok = False
    if len(names) >= 4 and names[3] == "out":
        # out must carry a default (None) so execute(plan, factors) works.
        n_defaults = len(args.defaults)
        out_ok = n_defaults >= len(names) - 3
    elif any(a.arg == "out" for a in args.kwonlyargs):
        idx = [a.arg for a in args.kwonlyargs].index("out")
        out_ok = args.kw_defaults[idx] is not None
    if not (ok and out_ok):
        diags.append(
            Diagnostic(
                "KC104",
                file,
                fn.lineno,
                fn.col_offset,
                f"execute() must be (self, plan, factors, out=None), got ({', '.join(names)})",
                hint="match Kernel.execute(self, plan, factors, out=None)",
            )
        )


def _check_kernel_class(
    cls: ast.ClassDef, file: str, scan: ContractScan, named_by_call: set[str]
) -> None:
    diags = scan.diagnostics
    name = _class_attr_str(cls, "name")
    if not name and cls.name not in named_by_call:
        diags.append(
            Diagnostic(
                "KC102",
                file,
                cls.lineno,
                cls.col_offset,
                f"kernel class {cls.name} has no class-level string `name`",
                hint='set name = "<registry-key>" on the class',
            )
        )
    methods = _methods(cls)
    for required in ("prepare", "execute"):
        if required not in methods:
            diags.append(
                Diagnostic(
                    "KC111",
                    file,
                    cls.lineno,
                    cls.col_offset,
                    f"kernel class {cls.name} does not define {required}()",
                    hint="implement the Kernel ABC method",
                )
            )
    if "prepare" in methods:
        _check_prepare(methods["prepare"], file, diags)
    if "execute" in methods:
        ex = methods["execute"]
        _check_execute(ex, file, diags)
        if not _calls_function(ex, "alloc_output"):
            diags.append(
                Diagnostic(
                    "KC105",
                    file,
                    ex.lineno,
                    ex.col_offset,
                    f"{cls.name}.execute() never calls alloc_output()",
                    hint="allocate the (I_mode, R) output with kernels.base.alloc_output "
                    "so the buffer is zeroed, float64, and shape-checked",
                )
            )
        if not _calls_function(ex, "check_factors"):
            diags.append(
                Diagnostic(
                    "KC106",
                    file,
                    ex.lineno,
                    ex.col_offset,
                    f"{cls.name}.execute() never calls check_factors()",
                    hint="validate factors with kernels.base.check_factors for "
                    "uniform dtype/contiguity/rank handling",
                )
            )


def _check_plan_class(cls: ast.ClassDef, file: str, scan: ContractScan) -> None:
    diags = scan.diagnostics
    methods = _methods(cls)
    if "block_stats" not in methods:
        diags.append(
            Diagnostic(
                "KC107",
                file,
                cls.lineno,
                cls.col_offset,
                f"plan class {cls.name} does not implement block_stats()",
                hint="return the per-phase BlockStats list the machine model consumes",
            )
        )
    if _class_attr_str(cls, "kernel_name") is None and "__init__" not in methods:
        diags.append(
            Diagnostic(
                "KC108",
                file,
                cls.lineno,
                cls.col_offset,
                f"plan class {cls.name} never sets kernel_name",
                hint='set kernel_name = "<kernel>" at class level',
            )
        )
    elif _class_attr_str(cls, "kernel_name") is None:
        # Accept an instance-level self.kernel_name assignment in __init__.
        init = methods["__init__"]
        sets_it = any(
            isinstance(n, ast.Assign)
            and any(
                isinstance(t, ast.Attribute)
                and t.attr == "kernel_name"
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
                for t in n.targets
            )
            for n in ast.walk(init)
        )
        if not sets_it:
            diags.append(
                Diagnostic(
                    "KC108",
                    file,
                    cls.lineno,
                    cls.col_offset,
                    f"plan class {cls.name} never sets kernel_name",
                    hint='set kernel_name = "<kernel>" at class level',
                )
            )
    for prop in ("nnz", "n_fibers"):
        fn = methods.get(prop)
        if fn is not None and "property" not in _decorator_names(fn):
            diags.append(
                Diagnostic(
                    "KC110",
                    file,
                    fn.lineno,
                    fn.col_offset,
                    f"{cls.name}.{prop} overrides a Plan property with a plain method",
                    hint="decorate with @property (callers read plan.nnz, not plan.nnz())",
                )
            )


def scan_source(
    source: str, file: str, tree: "ast.Module | None" = None
) -> ContractScan:
    """Run the contract pass over one module's source.

    ``tree`` optionally supplies the already-parsed module (the runner's
    shared parse cache); without it the source is parsed here, keeping
    KC111 syntax-error reporting for standalone callers.
    """
    scan = ContractScan()
    try:
        if tree is None:
            tree = ast.parse(source, filename=file)
    except SyntaxError as exc:  # pragma: no cover - defensive
        scan.diagnostics.append(
            Diagnostic(
                "KC111",
                file,
                exc.lineno or 1,
                0,
                f"file does not parse: {exc.msg}",
                hint="fix the syntax error",
            )
        )
        return scan

    classes = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }

    # Registration sites: register_kernel(Cls()) / register_kernel(Cls) /
    # register_kernel(Cls("name", ...)), the last naming the instance.
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _call_name(node) == "register_kernel"):
            continue
        if not node.args:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Name):
            # A bare class reference registers the class object, whose
            # .prepare/.execute are unbound — a latent TypeError.
            if arg.id in classes:
                scan.diagnostics.append(
                    Diagnostic(
                        "KC109",
                        file,
                        node.lineno,
                        node.col_offset,
                        f"register_kernel({arg.id}) registers the class itself, not an instance",
                        hint=f"call register_kernel({arg.id}())",
                    )
                )
                scan.registrations.append(
                    RegisteredKernel(
                        arg.id,
                        _class_attr_str(classes[arg.id], "name"),
                        file,
                        node.lineno,
                    )
                )
            continue
        if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name):
            cls_name = arg.func.id
            cls = classes.get(cls_name)
            registry_name = _name_argument(arg) or (
                _class_attr_str(cls, "name") if cls is not None else None
            )
            scan.registrations.append(
                RegisteredKernel(cls_name, registry_name, file, node.lineno)
            )

    # A class without a class-level name is fine when every registration
    # of it names the instance.
    unnamed = {reg.class_name for reg in scan.registrations if not reg.registry_name}
    named_by_call = {reg.class_name for reg in scan.registrations} - unnamed
    for cls in classes.values():
        bases = _base_names(cls)
        if "Kernel" in bases:
            _check_kernel_class(cls, file, scan, named_by_call)
        if "Plan" in bases:
            _check_plan_class(cls, file, scan)
    return scan


def _name_argument(call: ast.Call) -> "str | None":
    """The instance name a constructor call passes — its first positional
    argument or ``name=`` keyword, when that is a string literal."""
    candidates = [kw.value for kw in call.keywords if kw.arg == "name"]
    if call.args:
        candidates.insert(0, call.args[0])
    for node in candidates:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
    return None


def _call_name(node: ast.Call) -> "str | None":
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def duplicate_name_diagnostics(
    registrations: list[RegisteredKernel],
) -> list[Diagnostic]:
    """Cross-file rule KC101: every registry name has exactly one owner."""
    by_name: dict[str, list[RegisteredKernel]] = {}
    for reg in registrations:
        if reg.registry_name:
            by_name.setdefault(reg.registry_name, []).append(reg)
    diags: list[Diagnostic] = []
    for name, regs in sorted(by_name.items()):
        if len(regs) <= 1:
            continue
        owners = ", ".join(f"{r.class_name} ({r.file}:{r.line})" for r in regs)
        for reg in regs[1:]:
            diags.append(
                Diagnostic(
                    "KC101",
                    reg.file,
                    reg.line,
                    0,
                    f"kernel name {name!r} registered more than once: {owners}",
                    hint="pick a unique name; register_kernel raises RegistrationError at runtime",
                )
            )
    return diags
