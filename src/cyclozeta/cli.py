"""Batch command-line front door.

Every subcommand is a thin adapter over the library: it parses flags, runs
the corresponding check or calculator, prints a machine-readable TSV report
to stdout (diagnostics go to stderr) and exits 0 exactly when no row failed.
Parse or precondition errors, and an output file that cannot be written,
exit 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import serialize
from .algebra import harmonic, parse_element_combo, shuffle
from .checks import differences, fold
from .dmr import dmr_check, dmrd_check, eds_dmr_equality_check, phi_from_Z
from .duality import duality_suite
from .errors import CycloZetaError, ParseError
from .groups import divisors_of_order, parse_group, power_structure
from .numeval import (DEFAULT_TOLERANCE, NumericZMap, PolylogQuery,
                      numeric_relation_suite, polylog_numeric)
from .regularization import bar_reg_T
from .relations import fdtd1_grid, regdist_full_check, zhao_case_table
from .rings import COMPLEX, RATIONAL, ring_from_name
from .words import format_x_word


def _meta_row(**fields) -> str:
    return "#meta\t" + "\t".join(f"{k}={v}" for k, v in fields.items() if v is not None)


def load_config_defaults(path) -> dict:
    """Option defaults from a ``key = value`` file; ``#`` starts a comment
    line and a ``subcommand`` line is ignored.  Values stay strings, so
    argparse converts each through its flag's ``type``, as on the command
    line."""
    defaults = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise CycloZetaError(f"bad config line {line!r}")
            if key != "subcommand":
                defaults[key.replace("-", "_")] = value
    return defaults


class Report:
    """A ``#meta`` row over (check, params, status, residual, detail) rows;
    a suite that has no row to print is refused, not passed."""

    columns = ("check", "params", "status", "residual", "detail")

    def __init__(self, meta: str, checks):
        self.meta = meta
        self.checks = list(checks)
        if not self.checks:
            raise ParseError("the input leaves the suite no row to check")

    def emit(self) -> int:
        print(self.meta)
        print("\t".join(self.columns))
        for check in self.checks:
            print(check)
        return 0 if all(c.passed for c in self.checks) else 1


def _bound(args, name: str, least: int = 1) -> int:
    """A bound flag's value; below ``least`` a suite would check nothing."""
    value = getattr(args, name)
    if value < least:
        raise ParseError(
            f"--{name.replace('_', '-')} must be at least {least}, got {value}")
    return value


def _divisor(args):
    """``--d``, refused at 1: both arrows are identities, so every row passes."""
    if args.d == 1:
        raise ParseError("--d 1 checks nothing: at d = 1 both arrows are identities")
    return args.d


def _divisors(args, group) -> list[int]:
    """``[--d]``, or every divisor d >= 2 of the group's order when it is unset."""
    if args.d is not None:
        return [_divisor(args)]
    return [d for d in divisors_of_order(group) if d >= 2]


def _check_tolerance(args) -> None:
    """Reject a ``--tol`` (flag or config value) no residual can be held to:
    with nan every comparison is false, so even a zero residual would FAIL."""
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ParseError(f"--tol must be a finite number >= 0, got {tol}")


def _write(path, text: str) -> None:
    """Write an output file; a path that cannot be written is bad input."""
    try:
        serialize.write_text(path, text)
    except OSError as exc:
        raise CycloZetaError(exc) from None


def _numeric_report(args, degree, checks) -> int:
    meta = _meta_row(group=f"Z{args.N}", degree=degree, ring="complex", tol=args.tol)
    return Report(meta, checks).emit()


def _on_numeric_map(handler):
    """A numeric suite's handler, called with the evaluation map that its
    ``--N`` and ``--tol`` name: the one place the CLI builds a map."""
    return lambda args: handler(args, NumericZMap(args.N, args.tol))


# -- subcommand handlers -----------------------------------------------------


def cmd_product(args) -> int:
    group = parse_group(args.group)
    ring = ring_from_name(args.ring)
    # the harmonic product is defined on Y words only
    kind = "y" if args.harmonic or args.alphabet == "Y" else "x"
    a, b = (parse_element_combo(text, ring, kind, group)
            for text in args.shuffle or args.harmonic or args.concat)
    result = (shuffle(a, b) if args.shuffle else harmonic(a, b) if args.harmonic
              else a.concat(b))
    print(str(result))
    if args.out:
        _write(args.out, serialize.format_element(result))
    return 0


def cmd_reg(args) -> int:
    group = parse_group(args.group)
    ring = ring_from_name(args.ring)
    elem = parse_element_combo(args.element, ring, "x", group)
    tp = bar_reg_T(elem)
    text = serialize.format_tpoly(tp, ring)
    print(text)
    if args.out:
        _write(args.out, text + "\n")
    return 0


def cmd_fdt_verify(args) -> int:
    group = parse_group(args.group)
    results = fdtd1_grid(group, _divisors(args, group))
    checks = [fold("fdt1-decomposition", f"d={','.join(map(str, ds))} h={r.h}", RATIONAL,
                   differences(r.lhs.terms, r.rhs.terms, RATIONAL.zero), format_x_word)
              for ds, r in results]
    meta = _meta_row(group=args.group, degree=2, ring="rational", tol=0)
    return Report(meta, checks).emit()


def cmd_duality_test(args) -> int:
    group = parse_group(args.group)
    check = duality_suite(group, args.degree, args.maps, args.seed)
    meta = _meta_row(group=args.group, degree=args.degree, ring="rational", tol=0)
    return Report(meta, [check]).emit()


def cmd_dmr_check(args, Z) -> int:
    # at degree 1 no word pair is inside the bound; phi_from_Z sets the unit,
    # x0 and x1 coefficients by construction, so the vanish row could not fail
    phi = phi_from_Z(Z, _bound(args, "degree", least=2))
    if args.save_phi:
        _write(args.save_phi, serialize.format_series(phi))
    sh, st, _ = dmr_check(phi)
    return _numeric_report(args, args.degree, [sh, st])


def cmd_dmrd_check(args, Z) -> int:
    # at d = 1 both arrows are identities and the condition reduces to
    # (phi | x1) = 0, which phi_from_Z holds by construction
    structures = [power_structure(Z.group, d) for d in _divisors(args, Z.group)]
    phi = phi_from_Z(Z, _bound(args, "degree"))
    return _numeric_report(args, args.degree, [dmrd_check(phi, ps) for ps in structures])


def cmd_eds_dmr_check(args, Z) -> int:
    return _numeric_report(args, args.degree,
                           [eds_dmr_equality_check(Z, _bound(args, "degree"))])


def cmd_zhao_verify(args, Z) -> int:
    return _numeric_report(args, 2, zhao_case_table(Z, _divisor(args)))


def cmd_regdist(args, Z) -> int:
    return _numeric_report(args, args.max_len, [regdist_full_check(
        Z, _divisor(args), _bound(args, "max_len"))])


def cmd_polylog(args) -> int:
    try:
        ks, zs = (tuple(int(p) for p in text.split(",")) for text in (args.k, args.z))
    except ValueError as exc:
        raise ParseError(f"--k and --z take comma-separated integers: {exc}") from None
    query = PolylogQuery(ks, zs, args.N, args.tol)
    result = polylog_numeric(query)
    print(_meta_row(group=f"Z{args.N}", ring="complex", tol=args.tol))
    print("query\tvalue\tresidual\tbound")
    print(f"Li{ks}@{zs}\t{COMPLEX.format(result.value)}\t\t{result.tail_bound:.3e}")
    if result.low_precision:
        print("warning: tail bound exceeds tolerance", file=sys.stderr)
    return 0


def cmd_relation_suite(args, Z) -> int:
    # no finite double shuffle identity pairs two words within weight one
    return _numeric_report(args, args.weight, numeric_relation_suite(
        Z, _bound(args, "weight", least=2)))


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclozeta",
        description="verification suites and calculators for cyclotomic "
                    "multiple zeta value relations")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.cz_subparsers = sub

    p = sub.add_parser("product", help="shuffle/harmonic/concatenation products")
    p.add_argument("--group", required=True)
    p.add_argument("--ring", default="rational", choices=["rational", "complex"])
    p.add_argument("--alphabet", default="X", choices=["X", "Y"])
    mx = p.add_mutually_exclusive_group(required=True)
    mx.add_argument("--shuffle", nargs=2, metavar=("A", "B"))
    mx.add_argument("--harmonic", nargs=2, metavar=("A", "B"))
    mx.add_argument("--concat", nargs=2, metavar=("A", "B"))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("reg", help="shuffle regularization into T-polynomials")
    p.add_argument("--group", required=True)
    p.add_argument("--ring", default="rational", choices=["rational", "complex"])
    p.add_argument("element")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_reg)

    p = sub.add_parser("fdt-verify", help="exact depth-two distribution decomposition")
    p.add_argument("--group", required=True)
    p.add_argument("--d", type=int)
    p.set_defaults(fn=cmd_fdt_verify)

    p = sub.add_parser("duality-test",
                       help="multiplicative-iff-grouplike on random functionals")
    p.add_argument("--group", default="Z3")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--maps", type=int, default=200)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(fn=cmd_duality_test)

    def numeric_common(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
        p.set_defaults(fn=fn)
        return p

    p = numeric_common("dmr-check", _on_numeric_map(cmd_dmr_check),
                       "double shuffle membership of the numeric series")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--save-phi")

    p = numeric_common("dmrd-check", _on_numeric_map(cmd_dmrd_check),
                       "distribution condition on the numeric series")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--d", type=int)

    p = numeric_common("eds-dmr-check", _on_numeric_map(cmd_eds_dmr_check),
                       "coefficientwise equality of the two corrected series")
    p.add_argument("--degree", type=int, default=4)

    p = numeric_common("zhao-verify", _on_numeric_map(cmd_zhao_verify),
                       "weight-two regularized distribution cells")
    p.add_argument("--d", type=int, required=True)

    p = numeric_common("regdist", _on_numeric_map(cmd_regdist),
                       "regularized distribution over a word range")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-len", type=int, default=3)

    p = numeric_common("polylog", cmd_polylog, "one nested-sum value")
    p.add_argument("--k", required=True)
    p.add_argument("--z", required=True)

    p = numeric_common("relation-suite", _on_numeric_map(cmd_relation_suite),
                       "finite double shuffle residuals")
    p.add_argument("--weight", type=int, default=2)

    return parser


def _apply_config(parser: argparse.ArgumentParser, defaults: dict) -> None:
    """Make config values defaults on every subcommand that knows the key, so
    explicit flags still win; a key no subcommand knows is an error."""
    subparsers = list(parser.cz_subparsers.choices.values())
    known = [{a.dest for a in p._actions if a.dest != "help"} for p in subparsers]
    unknown = sorted(set(defaults).difference(*known))
    if unknown:
        raise CycloZetaError(f"unknown config key {', '.join(unknown)}")
    for subparser, keys in zip(subparsers, known):
        subparser.set_defaults(**{k: v for k, v in defaults.items() if k in keys})


# parsing leaves a parser as it was, so one serves every call without --config
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _shared_parser()
    if "--config" in argv:
        at = argv.index("--config")
        try:
            path = argv[at + 1]
        except IndexError:
            print("error: --config needs a path", file=sys.stderr)
            return 2
        del argv[at:at + 2]
        try:
            defaults = load_config_defaults(path)
            # set_defaults changes the parser, so a config run gets its own
            parser = build_parser()
            _apply_config(parser, defaults)
        except (OSError, CycloZetaError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    try:
        _check_tolerance(args)
        return args.fn(args)
    except CycloZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
