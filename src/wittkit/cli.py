"""Command-line front end.

One logical command per invocation; every command is deterministic given
its flags and seed.  Exit codes: 0 all checks pass, 1 a check failed,
2 usage or parse error, or any other `WittkitError`, a failed self-check
(`SelfCheckFailed`) included, 3 internal error (any other exception, a
defect in wittkit).  JSON output is printed with sorted keys so
identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .centralizer import centralizer_basis, verify_lemma_2_2, verify_lemma_4_1
from .errors import ParseError, WittkitError
from .parsing import parse_element
from .rigidity import (
    PointwiseMap,
    rigidity_pipeline,
    verify_lemma_3_2,
    verify_lemma_3_3,
    verify_lemma_3_4,
    verify_lemma_4_3,
    verify_lemma_4_4,
)
from .witt import (
    AlgebraVariant,
    VariantKind,
    WittAlgebra,
    WittElement,
    bracket,
    check_antisymmetry,
    check_bilinearity,
    check_closure,
    check_jacobi,
    check_monomial_rule_agreement,
)

# Each lemma's verifier and its arguments in call order: x the element
# (positional or --x), n and m the algebra's ranks, prefix the --prefix
# that a winf lemma requires, k and box the flags.  x and k are required
# where listed; box, when not given, is left to the verifier's default.
# A flag a lemma does not take is a usage error rather than silently
# ignored.  A lemma that takes prefix builds winf(n, m), the others W_n;
# --variant may name only the algebra a verifier builds.  The verifier is
# named, and looked up in this module when called, so that a wrapper bound
# over that name (the layer trace in perfbench/trace_layers.py) sees the call.
_LEMMAS = {
    "lemma2.2": ("verify_lemma_2_2", ("n", "k", "box")),
    "lemma3.2": ("verify_lemma_3_2", ("x", "box")),
    "lemma3.3": ("verify_lemma_3_3", ("n", "k")),
    "lemma3.4": ("verify_lemma_3_4", ("x",)),
    "lemma4.1": ("verify_lemma_4_1", ("prefix", "m", "k", "box")),
    "lemma4.3": ("verify_lemma_4_3", ("prefix", "m", "k", "box")),
    "lemma4.4": ("verify_lemma_4_4", ("x", "prefix", "box")),
}
_LAWS = ("antisymmetry", "bilinearity", "jacobi", "closure", "monomial")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _variant_kind(text: str) -> str:
    return text.lower().replace("_", "").replace("-", "")


# --variant names after `_variant_kind`, winftrunc an alias of winf.
_VARIANT_KINDS = {**{kind.value: kind for kind in VariantKind},
                  "winftrunc": VariantKind.W_INF_TRUNC}


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--arity", type=int, required=True, metavar="M",
                     help="ambient rank m (number of t variables)")
    sub.add_argument("--prefix", type=int, default=None, metavar="N",
                     help="mu prefix n; required for winf, defaults to the arity otherwise")
    sub.add_argument("--variant", default="wn",
                     help="wn | wnplus | wnplusplus | wnmu | winf (case-insensitive)")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _add_box_flag(sub: argparse.ArgumentParser, default: Optional[int] = 2) -> None:
    sub.add_argument("--box", type=int, default=default, metavar="N",
                     help="degree box |alpha_j| <= N")


def _algebra_from(args: argparse.Namespace, parser: argparse.ArgumentParser) -> WittAlgebra:
    kind = _VARIANT_KINDS.get(_variant_kind(args.variant))
    if kind is None:
        parser.error(f"unknown variant {args.variant!r}")
    winf = kind is VariantKind.W_INF_TRUNC
    if winf and args.prefix is None:
        parser.error("--variant winf requires --prefix")
    try:
        variant = AlgebraVariant(kind, args.prefix if winf else args.arity, args.arity)
    except WittkitError as exc:
        parser.error(str(exc))
    if not winf and args.prefix is not None and args.prefix != args.arity:
        parser.error("--prefix must equal --arity unless the variant is winf")
    return WittAlgebra(variant)


def _element(text: str, algebra: WittAlgebra, parser: argparse.ArgumentParser) -> WittElement:
    """Parse an element argument; one outside the algebra is a usage error."""
    element = parse_element(text, algebra)
    if not algebra.member(element):
        parser.error(f"{text!r} is not an element of --variant {algebra.variant.kind.value}")
    return element


def _emit(args: argparse.Namespace, payload: Dict[str, object],
          text_lines: Callable[[], Sequence[str]]) -> None:
    """Print the payload as JSON, or the lines text_lines() builds for --format text."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines():
            print(line)


def cmd_parse(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    algebra = _algebra_from(args, parser)
    text = algebra.format(_element(args.element, algebra, parser))
    _emit(args, {"element": text}, lambda: [text])
    return 0


def cmd_bracket(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    algebra = _algebra_from(args, parser)
    x = _element(args.x, algebra, parser)
    y = _element(args.y, algebra, parser)
    text = algebra.format(bracket(x, y))
    _emit(args, {"bracket": text}, lambda: [text])
    return 0


def cmd_centralize(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    algebra = _algebra_from(args, parser)
    z = _element(args.element, algebra, parser)
    result = centralizer_basis(algebra, z, args.box)
    basis = [algebra.format(e) for e in result.basis]
    payload = {"dimension": result.dimension, "basis": basis, "box": args.box}
    _emit(args, payload, lambda: [f"dimension: {result.dimension}"] + [f"  {b}" for b in basis])
    return 0


def _verify_report(args: argparse.Namespace, parser: argparse.ArgumentParser):
    algebra = _algebra_from(args, parser)
    lemma = args.lemma
    verifier, takes = _LEMMAS[lemma]
    text = args.element if args.element is not None else args.x_option
    values = {"x": text, "k": args.k, "box": args.box}
    for name, flag in (("x", "an element"), ("k", "--k"), ("box", "--box")):
        if values[name] is not None and name not in takes:
            parser.error(f"{lemma} does not take {flag}")
        if values[name] is None and name in takes and name != "box":
            parser.error(f"{lemma} needs {flag}")
    if text is not None:
        values["x"] = _element(text, algebra, parser)
    if "prefix" in takes and args.prefix is None:
        parser.error(f"{lemma} needs --prefix")
    values.update(n=algebra.n, prefix=args.prefix, m=algebra.m)
    # Every value but an absent box is set by now, and box is always last.
    return globals()[verifier](*(values[name] for name in takes if values[name] is not None))


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    winf = "prefix" in _LEMMAS[args.lemma][1]
    built = (VariantKind.WN, VariantKind.W_INF_TRUNC) if winf else (VariantKind.WN,)
    if _VARIANT_KINDS.get(_variant_kind(args.variant)) not in built:
        parser.error(f"{args.lemma} is verified in {' or '.join(k.value for k in built)} only; "
                     f"--variant {args.variant} is not supported")
    if winf and args.prefix is not None:
        args.variant = "winf"
    report = _verify_report(args, parser)
    payload = report.to_dict()

    def lines() -> List[str]:
        verdict = "PASS" if report.passed else "FAIL"
        out = [f"lemma {report.lemma} {json.dumps(report.parameters, sort_keys=True)}: {verdict}"]
        for key, value in payload.items():
            if key not in ("lemma", "parameters", "pass"):
                text = json.dumps(value, sort_keys=True) if isinstance(value, (dict, list)) else value
                out.append(f"  {key}: {text}")
        return out

    _emit(args, payload, lines)
    return 0 if report.passed else 1


def cmd_rigidity(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    algebra = _algebra_from(args, parser)
    try:
        with open(args.probes, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError.
        parser.error(f"cannot read probe table: {exc}")
    try:
        pairs = []
        for entry in document["probes"]:
            x, dx = entry["x"], entry["dx"]
            if not isinstance(x, str) or not isinstance(dx, str):
                raise TypeError("probe x and dx must be strings")
            pairs.append((parse_element(x, algebra), parse_element(dx, algebra)))
    except (KeyError, TypeError) as exc:
        parser.error(f"malformed probe table: {exc}")
    delta = PointwiseMap(algebra, pairs)
    report = rigidity_pipeline(delta, args.box)
    payload = report.to_dict()

    def lines() -> List[str]:
        out = [f"verdict: {report.verdict}"]
        if report.recovered_a is not None:
            passing = sum(1 for r in report.residuals if r.passed)
            out += [f"recovered_a: {payload['recovered_a']}",
                    f"residuals: {passing}/{len(report.residuals)} pass"]
        if report.certificate is not None:
            out.append(f"certificate: {json.dumps(payload['certificate'], sort_keys=True)}")
        return out

    _emit(args, payload, lines)
    return 0 if report.passed else 1


def cmd_fuzz(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    algebra = _algebra_from(args, parser)
    rng = random.Random(args.seed)

    def sample():
        return algebra.random_element(rng, args.box)

    def random_scalar():
        return algebra._random_coefficient(rng)

    checks: Dict[str, Callable[[], Optional[str]]] = {
        "antisymmetry": lambda: check_antisymmetry(sample(), sample()),
        "bilinearity": lambda: check_bilinearity(
            random_scalar(), random_scalar(), sample(), sample(), sample()),
        "jacobi": lambda: check_jacobi(sample(), sample(), sample()),
        "closure": lambda: check_closure(algebra, sample(), sample()),
        "monomial": lambda: check_monomial_rule_agreement(sample(), sample()),
    }
    run = checks[args.law]
    failures: List[str] = []
    for _ in range(args.count):
        message = run()
        if message is not None:
            failures.append(message)
    passes = args.count - len(failures)
    payload = {
        "law": args.law,
        "count": args.count,
        "passes": passes,
        "failures": len(failures),
        "first_failure": failures[0] if failures else None,
        "seed": args.seed,
    }
    lines = [f"{args.law}: {passes}/{args.count} pass"]
    if failures:
        lines.append(f"first failure: {failures[0]}")
    _emit(args, payload, lambda: lines)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every `main` call."""
    return _parsers()[0]


@functools.lru_cache(maxsize=None)
def _parsers() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="wittkit",
        description="Exact Witt-algebra computations: brackets, centralizers, "
                    "and 2-local derivation rigidity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="echo the canonical form of an element")
    _add_common_flags(p_parse)
    p_parse.add_argument("element")
    p_parse.set_defaults(handler=cmd_parse)

    p_bracket = sub.add_parser("bracket", help="compute [x, y]")
    _add_common_flags(p_bracket)
    p_bracket.add_argument("x")
    p_bracket.add_argument("y")
    p_bracket.set_defaults(handler=cmd_bracket)

    p_cent = sub.add_parser("centralize", help="centralizer basis of z in a degree box")
    _add_common_flags(p_cent)
    _add_box_flag(p_cent)
    p_cent.add_argument("element")
    p_cent.set_defaults(handler=cmd_centralize)

    p_verify = sub.add_parser("verify", help="run a lemma verifier")
    _add_common_flags(p_verify)
    _add_box_flag(p_verify, default=None)
    p_verify.add_argument("lemma", choices=tuple(_LEMMAS))
    p_verify.add_argument("element", nargs="?", default=None,
                          help="element argument for lemma3.2 / lemma3.4 / lemma4.4, "
                               "right after the lemma name")
    p_verify.add_argument("--x", dest="x_option", default=None, metavar="ELEMENT",
                          help="element argument as a flag, usable anywhere on the line")
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.set_defaults(handler=cmd_verify)

    p_rig = sub.add_parser("rigidity", help="run the 2-local rigidity pipeline")
    _add_common_flags(p_rig)
    _add_box_flag(p_rig)
    p_rig.add_argument("--probes", required=True, metavar="FILE",
                       help='JSON file {"probes": [{"x": "...", "dx": "..."}]}')
    p_rig.set_defaults(handler=cmd_rigidity)

    p_fuzz = sub.add_parser("fuzz", help="randomized law checking")
    _add_common_flags(p_fuzz)
    _add_box_flag(p_fuzz)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("law", choices=_LAWS)
    p_fuzz.add_argument("--count", type=_positive_int, default=100)
    p_fuzz.set_defaults(handler=cmd_fuzz)

    return parser, sub.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line.  An argv that starts with a subcommand's name goes
    straight to its parser: the top-level parser would scan it all only to hand
    that parser the rest.  Leftovers are refused with `parse_args`'s own text."""
    parser, subparsers = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    subparser = subparsers.get(argv[0]) if argv else None
    if subparser is None:
        args = parser.parse_args(argv)
    else:
        args, extra = subparser.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.handler(args, parser)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except WittkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
