"""Command-line front end.

Exit codes: 0 on success or a verified identity, 1 when a verification
fails, 2 on usage errors and on an unusable cache location, and 141 (128 +
SIGPIPE, as a shell reports a process that signal ends) with nothing on
stderr when the reader of standard output closes it early.  All output is
deterministic: identical inputs produce byte-identical output, and nothing
is randomized.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from functools import cache

from . import __version__
from .elements import EISENSTEIN, MixedSpaceError, MixedWeightError, parse_genid
from .eisenstein import certified_order, recognize_quasimodular
from .expressions import ExpressionSyntaxError, parse_expression
from .identities import (
    identity_report,
    mfprod_i,
    mfprod_ii,
    parity_expression,
    ramanujan,
    relprodandg,
    sum_formula,
)
from .kronecker import (
    check_derivation_diagram,
    closed_form_depth2,
    fay_check,
    kronecker_wplus_candidate,
    kronecker_wplus_check,
    realize_bernoulli,
    realize_kronecker,
    symbolic_b1,
    wplus_check,
)
from .maps import map_partial, map_pi, map_sigma
from .spaces import (
    cache_clear,
    cache_status,
    default_cache_dir,
    dimension,
    enumerate_generators,
    normal_form,
    relations_to_csv,
    relations_to_json,
)


class UsageError(ValueError):
    pass


_DIGITS = re.compile(r"[0-9]+")
_WEIGHTS = re.compile(r"([0-9]+)(?:\.\.([0-9]+))?")


def _parse_weights(text: str) -> list[int]:
    """Accept '12', '1..12', or comma-separated combinations of both, in ASCII digits."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if part:
            m = _WEIGHTS.fullmatch(part)
            if m is None:
                raise UsageError(f"bad weight range {text!r}")
            out.extend(range(int(m[1]), int(m[2] or m[1]) + 1))
    if not out or any(w < 1 for w in out):
        raise UsageError(f"bad weight range {text!r}")
    return out


def _check_bounds(args):
    """Read the integer flags in ASCII digits, as ``--weights`` reads its numbers, and
    reject a q-order that no series uses, before any command runs; then fill in the default."""
    if getattr(args, "kind", None) == "bernoulli" and args.q_order is not None:
        raise UsageError("--q-order applies to the q-series realization only")
    polar = getattr(args, "polar_only", False) or getattr(args, "candidate", None) == "polar"
    if polar and args.q_order is not None:
        raise UsageError("--q-order applies to the Kronecker function; the polar part is rational")
    if getattr(args, "identity", None) == "diagram" and args.cache_dir is not None:
        raise UsageError("--cache-dir applies to the reduced identities, not to the diagram check")
    if args.command == "map" and not args.reduce and args.cache_dir is not None:
        raise UsageError("--cache-dir applies to map --reduce only")
    if args.command == "relations" and not args.reduced and args.cache_dir is not None:
        raise UsageError("--cache-dir applies to relations --reduced only")
    for flag in ("q_order", "degree", "max_weight", "weight"):
        text = getattr(args, flag, None)
        if text is None:
            continue
        if not _DIGITS.fullmatch(text.strip()):
            raise UsageError(f"--{flag.replace('_', '-')} must be an integer >= 0 "
                             f"in ASCII digits, got {text!r}")
        setattr(args, flag, int(text))
    if getattr(args, "q_order", 0) is None:
        args.q_order = 30


def _common_flags(parser: argparse.ArgumentParser, q_order=False, degree: str | None = None,
                  cache_dir=False):
    """``--format`` everywhere; the other flags only where the command uses them
    (``degree`` is the help of ``--degree``, which states its bound)."""
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    if q_order:
        parser.add_argument("--q-order", default=None, help="q-series truncation order (default 30)")
    if degree:
        parser.add_argument("--degree", default="8", help=degree)
    if cache_dir:
        parser.add_argument("--cache-dir", default=None, help="relation-system cache directory")


@cache  # one parser per process; parsing fills a fresh namespace each call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubleeis",
        description="Exact computations in formal double Eisenstein spaces.",
    )
    parser.add_argument("--version", action="version", version=f"doubleeis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dimension", help="dimensions of the formal spaces")
    p.add_argument("--space", choices=("E", "Z"), default="E")
    p.add_argument("--weights", default="1..12")
    _common_flags(p, cache_dir=True)

    p = sub.add_parser("relations", help="relation rows of one weight")
    p.add_argument("--space", choices=("E", "Z"), default="E")
    p.add_argument("--weight", required=True)
    p.add_argument("--reduced", action="store_true", help="emit the row-reduced system")
    _common_flags(p, cache_dir=True)

    p = sub.add_parser("reduce", help="normal form of an expression")
    p.add_argument("--expr", required=True)
    _common_flags(p, cache_dir=True)

    p = sub.add_parser("map", help="apply a structural map to an expression")
    p.add_argument("--which", choices=("pi", "sigma", "partial"), required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--reduce", action="store_true", help="also reduce the image")
    _common_flags(p, cache_dir=True)

    p = sub.add_parser("realize", help="realize a generator as a q-series or rational")
    p.add_argument("--kind", choices=("kronecker", "bernoulli"), default="kronecker")
    p.add_argument("--gen", required=True)
    p.add_argument("--check-closed-form", action="store_true")
    _common_flags(p, q_order=True)

    p = sub.add_parser("recognize", help="express a generator's q-series in G2,G4,G6")
    p.add_argument("--gen", required=True)
    _common_flags(p, q_order=True)

    p = sub.add_parser("fay-check", help="verify the three-term Fay identity")
    p.add_argument("--polar-only", action="store_true", help="check the bare pole part")
    _common_flags(p, q_order=True, degree="total-degree truncation")

    p = sub.add_parser("wplus-check", help="bi-period space membership")
    p.add_argument("--candidate", choices=("kronecker", "polar"), default="kronecker")
    _common_flags(p, q_order=True, degree="check the candidate through total degree D, "
                  "so its numerator over X1 Y1 X2 Y2 through D + 4")

    p = sub.add_parser("verify", help="verify one identity family")
    p.add_argument(
        "--identity",
        choices=("sum-formula", "parity", "relprodandg", "mfprod", "ramanujan", "diagram"),
        required=True,
    )
    p.add_argument("--max-weight", default=None)
    _common_flags(p, q_order=True, cache_dir=True)

    p = sub.add_parser("cache", help="inspect or clear the relation-system cache")
    p.add_argument("action", choices=("status", "clear"))
    _common_flags(p, cache_dir=True)
    return parser


def _emit(args, rows: list[dict], text_lines: list[str]):
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    elif args.format == "csv":
        # a nested field is written as JSON, so every row reads back as a table
        if rows:
            keys = list(rows[0])
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(keys)
            for r in rows:
                values = (r[k] for k in keys)
                writer.writerow(json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else str(v)
                                for v in values)
    else:
        for line in text_lines:
            print(line)


def _cmd_dimension(args) -> int:
    weights = _parse_weights(args.weights)
    rows = [
        {"weight": w, "dimension": dimension(args.space, w, cache_dir=args.cache_dir)}
        for w in weights
    ]
    _emit(args, rows, [f"dim {args.space}_{r['weight']} = {r['dimension']}" for r in rows])
    return 0


def _cmd_relations(args) -> int:
    if args.format == "json":
        print(json.dumps(relations_to_json(args.space, args.weight, args.reduced, args.cache_dir),
                         indent=2))
    else:
        # the CSV table is also the most readable text form
        sys.stdout.write(relations_to_csv(args.space, args.weight, args.reduced, args.cache_dir))
    return 0


def _cmd_reduce(args) -> int:
    element = parse_expression(args.expr)
    nf = normal_form(element, cache_dir=args.cache_dir)
    data = [{"input": element.to_text(), "normal_form": nf.to_text(), "is_zero": not nf}]
    _emit(args, data, [nf.to_text()])
    return 0


def _cmd_map(args) -> int:
    element = parse_expression(args.expr)
    fn = {"pi": map_pi, "sigma": map_sigma, "partial": map_partial}[args.which]
    image = fn(element)
    lines = [image.to_text()]
    data = {"input": element.to_text(), "map": args.which, "image": image.to_text()}
    if args.reduce:
        nf = normal_form(image, cache_dir=args.cache_dir)
        data["normal_form"] = nf.to_text()
        data["is_zero"] = not nf
        lines.append(f"normal form: {nf.to_text()}")
    _emit(args, [data], lines)
    return 0


def _cmd_realize(args) -> int:
    gen = parse_genid(args.gen)
    if args.kind == "bernoulli":
        if args.check_closed_form:
            raise UsageError("--check-closed-form applies to the q-series realization only")
        value = realize_bernoulli(gen)
        _emit(args, [{"gen": str(gen), "value": str(value), "provenance": "constant-term"}],
              [f"{gen} -> {value}"])
        return 0
    if args.check_closed_form:
        if gen.kind != "G2" or gen.args[2] or gen.args[3]:
            raise UsageError("--check-closed-form applies to G(k1,k2;0,0) generators")
        _require_order(args, [gen.weight], "realize --check-closed-form")
    series = realize_kronecker(gen, args.q_order)
    data = {"gen": str(gen), "value": series.to_text(), "provenance": "series-extraction"}
    lines = [f"{gen} -> {series.to_text()}"]
    if args.check_closed_form:
        closed = closed_form_depth2(gen.args[0], gen.args[1], args.q_order)
        data["closed_form"] = closed.to_text()
        data["matches"] = series == closed
        lines.append(f"closed form: {closed.to_text()}")
        lines.append(f"matches: {series == closed}")
        if not data["matches"]:
            _emit(args, [data], lines)
            return 1
    _emit(args, [data], lines)
    return 0


def _cmd_recognize(args) -> int:
    gen = parse_genid(args.gen)
    # recognition solves on q^0..q^N and checks at least one coefficient beyond
    _require_order(args, [gen.weight], "recognize", 1)
    combo = recognize_quasimodular(realize_kronecker(gen, args.q_order), gen.weight)
    if combo is None:
        _emit(args, [{"gen": str(gen), "quasimodular": False}],
              [f"{gen}: not quasimodular of weight {gen.weight} (to the given order)"])
        return 1
    pretty = " + ".join(f"{c} * G2^{a} G4^{b} G6^{c2}" for (a, b, c2), c in sorted(combo.items()))
    _emit(
        args,
        [{"gen": str(gen), "quasimodular": True,
          "monomials": [{"exponents": list(m), "coefficient": str(c)} for m, c in sorted(combo.items())]}],
        [f"{gen} = {pretty or '0'}"],
    )
    return 0


def _cmd_fay(args) -> int:
    if args.degree < 1:
        raise UsageError(f"fay-check needs --degree >= 1; degree {args.degree} checks nothing")
    if args.polar_only:
        ok = fay_check(None, args.degree)
        label = "polar part"
    else:
        # exact; the q-order reported decides weight t - 4 at total degree t <= degree + 5
        _require_order(args, range(1, args.degree + 2), f"fay-check --degree {args.degree}")
        ok = fay_check(symbolic_b1(args.degree), args.degree)
        label = "Kronecker function"
    bound = {} if args.polar_only else {"q_order": args.q_order}  # none bounds a rational check
    _emit(args, [{"candidate": label, "degree": args.degree, **bound, "holds": ok}],
          [f"Fay identity for the {label} at degree {args.degree}"
           + (f", q-order {args.q_order}" if bound else "") + ": " + ("verified" if ok else "FAILED")])
    return 0 if ok else 1


def _cmd_wplus(args) -> int:
    polar = args.candidate == "polar"
    if polar:
        ok = wplus_check(kronecker_wplus_candidate(None, args.degree), args.degree)
    else:
        # exact; the q-order reported decides weight t - 2 at total degree t <= degree + 4
        _require_order(args, range(1, args.degree + 3), f"wplus-check --degree {args.degree}")
        ok = kronecker_wplus_check(args.degree)
    _emit(args, [{"candidate": args.candidate, "degree": args.degree,
                  **({} if polar else {"q_order": args.q_order}), "member": ok}],
          [f"{args.candidate} candidate in the bi-period space: " + ("yes" if ok else "NO")])
    return 0 if ok else 1


def _max_weight(args, default: int) -> int:
    return default if args.max_weight is None else args.max_weight


def _no_instances(args) -> UsageError:
    return UsageError(f"--max-weight {args.max_weight} leaves no {args.identity} instances to check")


def _verify_instances(args):
    name = args.identity
    if name == "sum-formula":
        top = _max_weight(args, 10)
        for k in range(2, top + 1):
            for d in range(top - k + 1):
                yield f"sum-formula k={k} d={d}", {"k": k, "d": d}, sum_formula(k, d)
    elif name == "parity":
        top = _max_weight(args, 9)
        for weight in range(3, top + 1, 2):
            for gen in enumerate_generators(EISENSTEIN, weight):
                if gen.kind == "G2":
                    yield (f"parity {gen}", {"indices": list(gen.args)},
                           parity_expression(*gen.args))
    elif name == "relprodandg":
        top = _max_weight(args, 12)
        for k in range(4, top + 1, 2):
            for k1 in range(1, k):
                yield f"relprodandg ({k1},{k - k1})", {"k1": k1, "k2": k - k1}, relprodandg(k1, k - k1)
    elif name == "mfprod":
        top = _max_weight(args, 12)
        for k in range(4, top + 1, 2):
            yield f"mfprod-i k={k}", {"k": k, "part": "i"}, mfprod_i(k)
        for k in range(6, top + 1, 2):
            yield f"mfprod-ii k={k}", {"k": k, "part": "ii"}, mfprod_ii(k)
    elif name == "ramanujan":
        top = _max_weight(args, 8)
        for which in ("G2", "G4", "G6"):
            element = ramanujan(which)
            if element.weight <= top:
                yield f"ramanujan {which}", {"which": which}, element
    else:
        raise UsageError(f"no instance family for {name!r}")


def _require_order(args, weights, command: str, compared_below: int = 0):
    """Refuse a --q-order at which ``command`` decides nothing: a weight-w
    q-series it compares is quasimodular, so zero once its coefficients of
    q^0..q^N are, N the :func:`.eisenstein.certified_order` of w, and the
    command needs ``compared_below`` coefficients beyond those (the diagram
    compares through q-order - 1, recognition checks past q^N)."""
    need, weight = max(((certified_order(w) + compared_below, w) for w in weights), default=(0, 0))
    if args.q_order < need:
        raise UsageError(f"--q-order {args.q_order} is too low to decide a weight-{weight} series; "
                         f"{command} needs --q-order >= {need}")


def _cmd_verify(args) -> int:
    command = f"verify --identity {args.identity}"
    if args.identity == "diagram":
        weights = range(1, _max_weight(args, 8) + 1)
        if not weights:
            raise _no_instances(args)
        # weight w compares series of weight w + 2 through q-order - 1
        _require_order(args, [w + 2 for w in weights], command, 1)
        reports = []
        ok_all = True
        for weight in weights:
            ok = check_derivation_diagram(weight, args.q_order)
            ok_all &= ok
            reports.append({"name": f"diagram weight {weight}", "holds": ok})
        _emit(args, reports,
              [f"{r['name']}: {'ok' if r['holds'] else 'FAILED'}" for r in reports])
        return 0 if ok_all else 1

    instances = list(_verify_instances(args))
    if not instances:
        raise _no_instances(args)
    _require_order(args, [element.weight for _, _, element in instances if element], command)
    reports = []
    lines = []
    ok_all = True
    for label, params, element in instances:
        report = identity_report(args.identity, params, element, args.q_order, args.cache_dir)
        good = report["reduced_to_zero"] and report["realized_zero_to_order"] is not None
        ok_all &= good
        reports.append(report)
        lines.append(f"{label}: " + ("ok" if good else "FAILED"))
    lines.append(f"{len(reports)} instances, " + ("all verified" if ok_all else "FAILURES present"))
    _emit(args, reports, lines)
    return 0 if ok_all else 1


def _cmd_cache(args) -> int:
    if args.action == "status":
        status = cache_status(args.cache_dir)
        _emit(args, [status], [json.dumps(status, indent=2)])
    else:
        removed = cache_clear(args.cache_dir)
        directory = str(args.cache_dir or default_cache_dir())
        _emit(args, [{"cache_dir": directory, "removed": removed}],
              [f"removed {removed} cache file(s) from {directory}"])
    return 0


_COMMANDS = {
    "dimension": _cmd_dimension,
    "relations": _cmd_relations,
    "reduce": _cmd_reduce,
    "map": _cmd_map,
    "realize": _cmd_realize,
    "recognize": _cmd_recognize,
    "fay-check": _cmd_fay,
    "wplus-check": _cmd_wplus,
    "verify": _cmd_verify,
    "cache": _cmd_cache,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_bounds(args)
        return _COMMANDS[args.command](args)
    except (UsageError, ExpressionSyntaxError, MixedSpaceError, MixedWeightError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout, not the cache: main() ends the process quietly
        raise
    except OSError as exc:  # the relation cache is the only file location a command uses
        print(f"error: relation cache {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; the exit flush would fail again, so point stdout at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
