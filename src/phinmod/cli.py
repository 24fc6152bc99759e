"""Command line front end.

Exit codes: 0 for a passing verdict or a computed value, 1 for a failing
verdict, 2 for structural problems (bad files, violated constraints,
unsupported inputs), 3 when the working precision cannot certify an answer,
4 for an internal error (any exception outside the package's error family,
reported as InternalError; inside a batch it stays in its own entry).
Reports go to stdout as canonical JSON (or aligned text with --format text);
diagnostics go to stderr.  For a fixed instance and precision the
report bytes are identical run to run, and batch output does not depend on
the worker count.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .cohomology import cup
from .colmez import colmez_form, degenerate_form, gamma_consistency, solve_ell_scalar
from .errors import (
    InternalError,
    ParseError,
    PhinError,
    PrecisionLoss,
    UnknownCommand,
    ValidationError,
)
from .filtration import hodge_number, is_admissible
from .isom import is_isomorphic
from .modules import newton_number, validate_module
from .monodromy import (
    build_degenerate,
    build_monodromy,
    build_w,
    check_constraints,
    end0_check,
    extract_invariants,
)
from .record import frozen
from .serial import (
    Instance,
    dump_element,
    dump_filtration,
    dump_module,
    dump_monodromy,
    dump_product,
    dump_subspace,
    fraction_out,
    load_json,
    parse_instance,
)


@frozen
class Options:
    precision: int | None = None
    fmt: str = "json"
    jobs: int = 1
    timing: bool = False


def _need(instance: Instance, command: str, *kinds: str):
    if instance.kind not in kinds:
        raise ValidationError(
            f"command {command!r} needs a {' or '.join(kinds)} payload, got {instance.kind}"
        )


def _realized(instance: Instance, command: str):
    """Module plus filtration, building them when the instance is a
    parameter record rather than explicit matrices."""
    if instance.kind == "monodromy":
        record = instance.objects["monodromy"]
        builder = build_degenerate if record.degenerate else build_monodromy
        return builder(record)
    _need(instance, command, "module", "monodromy")
    module = instance.objects["module"]
    return module, instance.objects.get("filtration")


def _admissibility_witness(verdict) -> dict:
    return {
        "t_newton": fraction_out(verdict.t_newton),
        "t_hodge": fraction_out(verdict.t_hodge),
        "balanced": verdict.balanced,
        "certificates": [
            {
                "rank": c.rank,
                "slot0": dump_subspace(c.slot0),
                "t_newton": fraction_out(c.t_newton),
                "t_hodge": fraction_out(c.t_hodge),
                "ok": c.ok,
            }
            for c in verdict.certificates
        ],
        "family": None
        if verdict.family is None
        else {
            "line_newton": fraction_out(verdict.family.line_newton),
            "max_line_hodge": fraction_out(verdict.family.max_line_hodge),
            "ok": verdict.family.ok,
        },
    }


def _iso_witness(verdict) -> dict:
    return {
        "reason": verdict.reason,
        "scaling": None
        if verdict.scaling is None
        else [dump_element(x) for x in verdict.scaling],
    }


def _cmd_validate(instance):
    modules = []
    if instance.kind == "pair":
        modules = [instance.objects[key][0] for key in ("first", "second")]
    elif instance.kind == "module":
        modules = [instance.objects["module"]]
    elif instance.kind == "monodromy":
        # a violated parameter constraint is a structural error (exit 2)
        check_constraints(instance.objects["monodromy"])
    for module in modules:
        try:
            validate_module(module)
        except PhinError as exc:
            return False, None, {"reason": str(exc)}
    return True, None, None


def _cmd_newton(instance):
    module, _ = _realized(instance, "newton")
    validate_module(module)
    return None, fraction_out(newton_number(module)), None


def _cmd_hodge(instance):
    _, fil = _realized(instance, "hodge")
    if fil is None:
        raise ValidationError("hodge number needs a filtration")
    return None, fraction_out(hodge_number(fil)), None


def _cmd_admissible(instance):
    module, fil = _realized(instance, "admissible")
    if fil is None:
        raise ValidationError("admissibility needs a filtration")
    validate_module(module)
    verdict = is_admissible(module, fil)
    return verdict.admissible, None, _admissibility_witness(verdict)


def _cmd_build_monodromy(instance):
    _need(instance, "build-monodromy", "monodromy")
    module, fil = _realized(instance, "build-monodromy")
    value = {"module": dump_module(module), "filtration": dump_filtration(fil)}
    return None, value, None


def _cmd_build_w(instance):
    _need(instance, "build-w", "bracket")
    module, fil = build_w(instance.objects["ell"], instance.objects["k"])
    value = {"module": dump_module(module), "filtration": dump_filtration(fil)}
    return None, value, None


def _cmd_extract(instance):
    _need(instance, "extract", "module")
    fil = instance.objects.get("filtration")
    if fil is None:
        raise ValidationError("extraction needs a filtration")
    record = extract_invariants(instance.objects["module"], fil)
    return None, dump_monodromy(record), None


def _cmd_end0_check(instance):
    _need(instance, "end0-check", "monodromy")
    verdict = end0_check(instance.objects["monodromy"])
    witness = {"intrinsic": _iso_witness(verdict.intrinsic), "direct_map": verdict.direct_map}
    return verdict.ok, None, witness


def _cmd_iso(instance):
    _need(instance, "iso", "pair")
    m1, f1 = instance.objects["first"]
    m2, f2 = instance.objects["second"]
    verdict = is_isomorphic(m1, f1, m2, f2)
    return verdict.isomorphic, None, _iso_witness(verdict)


def _cmd_cup(instance):
    _need(instance, "cup", "classes")
    value = cup(instance.objects["x"], instance.objects["y"])
    return None, dump_element(value.c), None


def _cmd_colmez(instance):
    _need(instance, "colmez", "germ")
    return None, dump_element(colmez_form(instance.objects["germ"])), None


def _cmd_degenerate(instance):
    _need(instance, "degenerate", "germ")
    return None, dump_element(degenerate_form(instance.objects["germ"])), None


def _cmd_gamma_check(instance):
    _need(instance, "gamma-check", "germ")
    germ = instance.objects["germ"]
    gamma, residual = gamma_consistency(germ)
    form = colmez_form(germ)
    witness = {
        "gamma": dump_product(gamma),
        "residual": dump_element(residual),
        "form": dump_element(form),
    }
    return residual == form, None, witness


def _cmd_solve_ell(instance):
    _need(instance, "solve-ell", "germ")
    direction = instance.objects.get("direction")
    if direction is None:
        raise ValidationError("solve-ell needs a direction in the payload")
    scale = solve_ell_scalar(instance.objects["germ"], direction)
    return None, dump_element(scale), None


_HANDLERS = {
    "validate": _cmd_validate,
    "newton": _cmd_newton,
    "hodge": _cmd_hodge,
    "admissible": _cmd_admissible,
    "build-monodromy": _cmd_build_monodromy,
    "build-w": _cmd_build_w,
    "extract": _cmd_extract,
    "end0-check": _cmd_end0_check,
    "iso": _cmd_iso,
    "cup": _cmd_cup,
    "colmez": _cmd_colmez,
    "degenerate": _cmd_degenerate,
    "gamma-check": _cmd_gamma_check,
    "solve-ell": _cmd_solve_ell,
}


def _report(command: str, precision) -> dict:
    return {
        "command": command,
        "verdict": None,
        "value": None,
        "witness": None,
        "error": None,
        "precision": precision,
        "timing_ms": None,
    }


def _error_report(command: str, precision, exc: Exception) -> tuple[dict, int]:
    """The report of a failed command.  An exception outside the package's
    error family becomes an InternalError naming it (exit 4)."""
    if not isinstance(exc, PhinError):
        exc = InternalError(f"{type(exc).__name__}: {exc}")
    report = _report(command, precision)
    report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, PrecisionLoss):
        return report, 3
    return report, 4 if isinstance(exc, InternalError) else 2


def run(command: str, instance: Instance, options: Options) -> tuple[dict, int]:
    """Execute one command against a parsed instance.  Returns the report
    and the process exit code; every error, the package's own and, as a
    last resort, any other exception, becomes an error report rather than
    propagating."""
    handler = _HANDLERS[command]  # execute has refused an unknown command
    started = time.perf_counter()
    try:
        verdict, value, witness = handler(instance)
    except Exception as exc:
        report, code = _error_report(command, instance.desc.default_prec, exc)
    else:
        report = _report(command, instance.desc.default_prec)
        report.update(verdict=verdict, value=value, witness=witness)
        code = 0 if verdict in (None, True) else 1
    if options.timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return report, code


def _is_path(source) -> bool:
    """A Path, or a string that does not open a JSON object."""
    return isinstance(source, Path) or (isinstance(source, str) and not source.lstrip().startswith("{"))


def execute(command: str, source, options: Options) -> tuple[dict, int]:
    """Parse a source (path, text, bytes, or decoded object) and run."""
    if not isinstance(command, str) or command not in _HANDLERS:
        return _error_report(command, options.precision, UnknownCommand(f"unknown command {command!r}"))
    try:
        if _is_path(source):
            source = Path(source).read_bytes()
        instance = parse_instance(source, options.precision)
    except OSError as exc:
        return _error_report(command, options.precision, ParseError(f"cannot read instance: {exc}"))
    except Exception as exc:
        return _error_report(command, options.precision, exc)
    return run(command, instance, options)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":"))
    parts = [report["command"]]
    for key in ("verdict", "value", "witness", "error", "precision", "timing_ms"):
        if report.get(key) is not None:
            parts.append(f"{key}={json.dumps(report[key], sort_keys=True, separators=(',', ':'))}")
    return "  ".join(parts)


# ---------------------------------------------------------------------------
# batch driver


def run_batch(manifest_source, options: Options, base_dir: Path | None = None):
    """Run every manifest entry and return (reports, aggregate_exit).

    Output order follows the manifest regardless of worker count; each
    entry's failure is isolated into its own report.
    """
    if _is_path(manifest_source):
        path = Path(manifest_source)
        base_dir = base_dir or path.parent
        try:
            manifest_source = path.read_bytes()
        except OSError as exc:
            raise ParseError(f"/: cannot read manifest: {exc}") from exc
    if isinstance(manifest_source, (bytes, bytearray, str)):
        manifest = load_json(manifest_source, "manifest is not valid JSON")
    else:
        manifest = manifest_source
    if not isinstance(manifest, dict) or not isinstance(manifest.get("entries"), list):
        raise ParseError("/entries: manifest needs an entries array")
    base = base_dir or Path.cwd()

    def one(entry) -> tuple[dict, int]:
        if not isinstance(entry, dict) or "command" not in entry or "instance" not in entry:
            return _error_report(
                str(entry.get("command", "?")) if isinstance(entry, dict) else "?",
                options.precision,
                ParseError("manifest entry needs command and instance keys"),
            )
        command, source = entry["command"], entry["instance"]
        if isinstance(source, str):
            source = base / source
        # execute turns every error into this entry's report
        return execute(command, source, options)

    entries = manifest["entries"]
    if options.jobs > 1:
        # imported here: a single command or a serial batch never needs it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=options.jobs) as pool:
            results = list(pool.map(one, entries))
    else:
        results = [one(entry) for entry in entries]
    reports = [r for r, _ in results]
    worst = max((c for _, c in results), default=0)
    return reports, worst


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phinmod",
        description="Exact filtered Frobenius-module computations over p-adic fields.",
    )
    parser.add_argument("command", help="one of: %s, batch" % ", ".join(sorted(_HANDLERS)))
    parser.add_argument("path", help="instance file (or manifest for batch)")
    parser.add_argument("--precision", type=int, default=None, help="working p-adic digits")
    parser.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    parser.add_argument("--jobs", type=int, default=1, help="batch worker count")
    parser.add_argument("--timing", action="store_true", help="include wall time in reports")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    options = Options(precision=args.precision, fmt=args.fmt, jobs=max(1, args.jobs), timing=args.timing)
    if args.command == "batch":
        try:
            reports, code = run_batch(args.path, options)
        except PhinError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for report in reports:
            print(render(report, options.fmt))
        return code
    report, code = execute(args.command, args.path, options)
    if report["error"] is not None:
        print(f"{report['error']['type']}: {report['error']['message']}", file=sys.stderr)
    print(render(report, options.fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
