"""Command-line front end; deterministic text/JSON output for scripting.

Payload grammars: series as in the core grammar; specs as
``omega:<n> | eta:<bits> | param:@file | cob:<k>:<series>[,...] |
xform(<spec>;a=<series>;b=<series>[;cob=<k>:<series>[,...]])``; extension
elements as ``(<series> ; <series>)``.  Exit codes: 0 success or PASS,
2 a verification produced failures (witnesses printed), 1 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .classify import (
    FiniteAbelianType,
    composition_data,
    canonicalize_spec,
    omega_p_contractive,
    parse_poly,
    primary_decompose,
    schur_cohn,
    spec_from_json,
)
from .cocycles import (
    BasisOmega,
    BitSeq,
    Eta,
    ParamOmega,
    ParamSeq,
    QuadCoboundary,
    Transformed,
    b_map,
    check_cocycle_identity,
    check_equivariance,
    evaluate,
)
from .errors import CongroupError
from .extensions import ExtElement, center_test, commutator
from .fingerprint import fingerprint
from .sections import build_section, make_ext_projection_ctx, make_mod_reduction_ctx, verify_section
from .selftest import CRITERIA, rand_series
from .series import Modulus, TruncSeries, format_series, parse

GRAMMARS = {
    "series": 'series := "0" | term (" + " term)* [" + O(t^" INT ")"];  term := COEFF "*t^" INT | "t^" INT',
    "spec": "spec := omega:<n> | eta:<bits> | param:@file | cob:<k>:<series>[,...] | xform(<spec>;a=<series>;b=<series>[;cob=...])",
    "element": "element := ( <series> ; <series> )",
    "ctx": "ctx := modred:<p>,<m>,<k> | extproj:<spec>",
}


class UsageError(Exception):
    def __init__(self, message, grammar=None):
        super().__init__(message)
        self.grammar = grammar


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_series_arg(ring: Modulus, text: str) -> TruncSeries:
    try:
        return parse(ring, text.strip())
    except CongroupError as err:
        raise UsageError(f"bad series {text!r}: {err}", "series")


def _parse_cob_terms(ring: Modulus, text: str):
    terms = []
    for part in _split_top(text, ","):
        k_text, _, series_text = part.partition(":")
        if not series_text:
            raise UsageError(f"bad coboundary term {part!r}", "spec")
        try:
            k = int(k_text)
        except ValueError:
            raise UsageError(f"bad coboundary index {k_text!r}", "spec")
        terms.append((k, parse_series_arg(ring, series_text)))
    return tuple(terms)


def parse_spec_arg(ring: Modulus, text: str):
    text = text.strip()
    if text.startswith("omega:"):
        try:
            return BasisOmega(ring, int(text[6:]))
        except ValueError:
            raise UsageError(f"bad basis index in {text!r}", "spec")
    if text.startswith("eta:"):
        try:
            return Eta(ring, BitSeq.from_string(text[4:]))
        except CongroupError as err:
            raise UsageError(str(err), "spec")
    if text.startswith("param:@"):
        return ParamOmega(load_param_file(ring, text[7:]))
    if text.startswith("cob:"):
        return QuadCoboundary(ring, _parse_cob_terms(ring, text[4:]))
    if text.startswith("xform(") and text.endswith(")"):
        body = _split_top(text[6:-1], ";")
        if not body:
            raise UsageError("empty xform(...)", "spec")
        base = parse_spec_arg(ring, body[0])
        a = b = None
        cob = ()
        for part in body[1:]:
            key, _, value = part.partition("=")
            if key == "a":
                a = parse_series_arg(ring, value)
            elif key == "b":
                b = parse_series_arg(ring, value)
            elif key == "cob":
                cob = _parse_cob_terms(ring, value)
            else:
                raise UsageError(f"unknown xform field {key!r}", "spec")
        if a is None or b is None:
            raise UsageError("xform needs both a=<series> and b=<series>", "spec")
        try:
            return Transformed(base, a, b, cob)
        except CongroupError as err:
            raise UsageError(str(err), "spec")
    raise UsageError(f"unrecognized spec {text!r}", "spec")


def load_param_file(ring: Modulus, path: str) -> ParamSeq:
    try:
        with open(path) as fh:
            blob = json.load(fh)
        lo, hi = blob["window"]
        entries = {int(n): parse(ring, s) for n, s in blob.get("entries", {}).items()}
        return ParamSeq.from_dict(ring, (lo, hi), entries)
    except (OSError, KeyError, ValueError, CongroupError) as err:
        raise UsageError(f"cannot load parameter file {path!r}: {err}")


def parse_element_arg(ring: Modulus, spec, text: str) -> ExtElement:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise UsageError(f"bad element {text!r}", "element")
    parts = _split_top(text[1:-1], ";")
    if len(parts) != 2:
        raise UsageError(f"bad element {text!r}", "element")
    return ExtElement(
        parse_series_arg(ring, parts[0]), parse_series_arg(ring, parts[1]), spec
    )


def _ring(args) -> Modulus:
    try:
        return Modulus(args.p, getattr(args, "m", 1) or 1)
    except CongroupError as err:
        raise UsageError(str(err))


def _emit(args, blob, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(blob, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- subcommand handlers -----------------------------------------------------------


def cmd_series(args) -> int:
    ring = _ring(args)
    op = args.op
    xs = [parse_series_arg(ring, t) for t in args.values]

    def need(n):
        if len(xs) != n:
            raise UsageError(f"series {op} takes {n} operand(s)", "series")

    if op == "add":
        need(2)
        out = xs[0] + xs[1]
    elif op == "sub":
        need(2)
        out = xs[0] - xs[1]
    elif op == "mul":
        need(2)
        out = xs[0] * xs[1]
    elif op == "neg":
        need(1)
        out = -xs[0]
    elif op == "intmul":
        need(1)
        out = xs[0].int_mul(args.k)
    elif op == "shift":
        need(1)
        out = xs[0].shift(args.k)
    elif op == "canon":
        need(1)
        out = xs[0]
    elif op == "abs":
        need(1)
        v = xs[0].abs_val()
        if v.valuation is None:
            line = "|x| = 0" if v.exact else f"|x| <= {ring.p}^-inf"
        else:
            rel = "=" if v.exact else "<="
            line = f"|x| {rel} {ring.p}^{-v.valuation}"
        _emit(args, {"format": 1, "exact": v.exact, "valuation": v.valuation}, [line])
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown series op {op!r}")
    _emit(args, {"format": 1, "value": format_series(out)}, [format_series(out)])
    return 0


def cmd_cocycle(args) -> int:
    ring = _ring(args)
    spec = parse_spec_arg(ring, args.spec)
    if args.op == "eval":
        if len(args.values) != 2:
            raise UsageError("cocycle eval takes two series", "series")
        x, y = (parse_series_arg(ring, t) for t in args.values)
        out = evaluate(spec, x, y)
        _emit(args, {"format": 1, "value": format_series(out)}, [format_series(out)])
        return 0
    if args.op == "bmap":
        lo, hi = _parse_window(args.window)
        seq = b_map(spec, (lo, hi))
        blob = {
            "format": 1,
            "window": [lo, hi],
            "entries": {str(n): format_series(seq.entry(n)) for n in range(lo, hi + 1)},
        }
        _emit(args, blob, [f"b_{n} = {format_series(seq.entry(n))}" for n in range(lo, hi + 1)])
        return 0
    if args.op == "check":
        rng = random.Random(args.seed)
        triples = [
            (rand_series(rng, ring), rand_series(rng, ring), rand_series(rng, ring))
            for _ in range(args.count)
        ]
        report = check_cocycle_identity(spec, triples)
        report2 = check_equivariance(spec, [(x, y) for x, y, _ in triples], range(-3, 4))
        blob = {
            "format": 1,
            "identity": report.to_json(),
            "equivariance": report2.to_json(),
        }
        lines = [
            f"identity: {report.checked} checked, {report.failed} failed",
            f"equivariance: {report2.checked} checked, {report2.failed} failed",
        ]
        for w in (report.witnesses + report2.witnesses)[:5]:
            lines.append(f"witness: inputs={[str(v) for v in w.inputs]} lhs={w.lhs} rhs={w.rhs}")
        _emit(args, blob, lines)
        return 0 if report.ok and report2.ok else 2
    raise UsageError(f"unknown cocycle op {args.op!r}")


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"bad window {text!r}, expected LO:HI")


def cmd_ext(args) -> int:
    ring = _ring(args)
    spec = parse_spec_arg(ring, args.spec)
    elems = [parse_element_arg(ring, spec, t) for t in args.values]

    def need(n):
        if len(elems) != n:
            raise UsageError(f"ext {args.op} takes {n} element(s)", "element")

    if args.op == "mul":
        need(2)
        out = elems[0] * elems[1]
    elif args.op == "inv":
        need(1)
        out = elems[0].inverse()
    elif args.op == "alpha":
        need(1)
        out = elems[0].alpha(args.k)
    elif args.op == "comm":
        need(2)
        out = commutator(elems[0], elems[1])
    elif args.op == "center":
        need(1)
        try:
            probes = [int(x) for x in args.probes.split(",")] if args.probes else None
        except ValueError:
            raise UsageError(f"bad probes {args.probes!r}, expected comma-separated degrees")
        verdict = center_test(elems[0], probes)
        lines = [verdict.verdict]
        if verdict.witness is not None:
            lines.append(f"probe={verdict.probe} witness={verdict.witness}")
        _emit(args, verdict.to_json(), lines)
        return 0 if verdict.passed else 2
    else:
        raise UsageError(f"unknown ext op {args.op!r}")
    _emit(args, {"format": 1, "value": str(out)}, [str(out)])
    return 0


def cmd_fingerprint(args) -> int:
    ring = _ring(args)
    spec = parse_spec_arg(ring, args.spec)
    probe_rng, trials = None, 1
    if args.probes:
        kind, _, n = args.probes.partition(":")
        n = n or "1"
        if kind != "random" or not n.isdecimal():
            raise UsageError(f"bad probes {args.probes!r}, expected random:N")
        probe_rng, trials = random.Random(args.seed), int(n)
    got, profile = fingerprint(spec, args.window, args.budget, probe_rng, trials)
    blob = got.to_json()
    blob["profile"] = profile.to_json()["profile"]
    lines = [f"status={got.status}"]
    if got.bits is not None:
        lines.append(f"bits={got.bits} c={got.offset}")
    for e in profile.entries:
        lines.append(f"m={e.m}: " + (f"v={e.value}" if e.exact else f"v>={e.value}"))
    _emit(args, blob, lines)
    return 0


def cmd_section(args) -> int:
    ctx_text = args.ctx
    if ctx_text.startswith("modred:"):
        try:
            p, m, k = (int(v) for v in ctx_text[7:].split(","))
        except ValueError:
            raise UsageError(f"bad context {ctx_text!r}", "ctx")
        ctx = make_mod_reduction_ctx(p, m, k)
    elif ctx_text.startswith("extproj:"):
        ring = _ring(args)
        ctx = make_ext_projection_ctx(parse_spec_arg(ring, ctx_text[8:]))
    else:
        raise UsageError(f"bad context {ctx_text!r}", "ctx")
    code = 0
    lines = []
    blob = {"format": 1, "ctx": ctx.name, "index": ctx.index}
    if args.input:
        h = parse_series_arg(ctx.ring_h, args.input)
        sig = build_section(ctx, h, args.upto)
        lines.append(str(sig.element))
        lines.append(f"agrees-through=t^{sig.agrees_through}")
        blob["sigma"] = str(sig.element)
        blob["agrees_through"] = sig.agrees_through
    if args.verify:
        rng = random.Random(args.seed)
        prec = max(args.upto + 2, args.prec or 0)
        samples = []
        for _ in range(args.verify):
            start = rng.randrange(-3, 3)
            cs = [rng.randrange(ctx.ring_h.q) for _ in range(rng.randrange(0, args.upto))]
            samples.append(TruncSeries(ctx.ring_h, start, cs, max(start + len(cs), prec)))
        report = verify_section(ctx, samples, args.upto)
        lines.append(f"verify: {report.checked} checked, {len(report.failures)} failed")
        lines.extend(report.failures[:5])
        blob["verify"] = report.to_json()
        if not report.ok:
            code = 2
    _emit(args, blob, lines)
    return code


def cmd_classify(args) -> int:
    if args.what == "abelian":
        try:
            orders = [int(v) for v in args.orders.split(",")]
        except ValueError:
            raise UsageError(f"bad orders {args.orders!r}, expected e.g. 4,2,3")
        table = primary_decompose(FiniteAbelianType(tuple(orders)))
        lines = [f"nu({p}, {n}) = {m}" for (p, n), m in table.entries] or ["trivial"]
        _emit(args, table.to_json(), lines)
        return 0
    if args.what == "poly":
        f = parse_poly(args.poly)
        if args.place == "inf":
            ok, test = schur_cohn(f), "schur-cohn"
        elif args.place.startswith("p:") and args.place[2:].isdecimal():
            ok, test = omega_p_contractive(f, int(args.place[2:])), "p-adic-valuation"
        else:
            raise UsageError(f"bad place {args.place!r}, expected inf or p:<prime>")
        _emit(
            args,
            {"format": 1, "contractive": ok, "test": test},
            [f"contractive: {'yes' if ok else 'no'} ({test})"],
        )
        return 0
    if args.what == "spec":
        try:
            with open(args.file) as fh:
                text = fh.read()
        except OSError as err:
            raise UsageError(f"cannot read classification tuple {args.file!r}: {err}")
        spec = spec_from_json(text)
        canon = canonicalize_spec(spec)
        print(json.dumps(canon.to_json(), sort_keys=True))
        return 0
    if args.what == "compdata":
        got = composition_data(args.p, args.m)
        _emit(
            args,
            got.to_json(),
            [f"length = {got.length}", f"delta = {got.delta}", f"chain exponents = {list(got.chain_exponents)}"],
        )
        return 0
    raise UsageError(f"unknown classify target {args.what!r}")


def cmd_selftest(args) -> int:
    wanted = range(1, len(CRITERIA) + 1)
    if args.only:
        parts = [v.strip() for v in args.only.split(",")]
        if not all(v.isdecimal() and 1 <= int(v) <= len(CRITERIA) for v in parts):
            raise UsageError(f"--only takes comma-separated criterion numbers 1..{len(CRITERIA)}, got {args.only!r}")
        wanted = sorted({int(v) for v in parts})
    results = [CRITERIA[n - 1](args.seed) for n in wanted]
    _emit(args, {"format": 1, "results": [r.__dict__ for r in results]}, [r.line() for r in results])
    return 0 if all(r.passed for r in results) else 2


# -- argument wiring ------------------------------------------------------------


def _add_ring_flags(sub):
    sub.add_argument("--p", type=int, required=True, help="prime of the coefficient ring")
    sub.add_argument("--m", type=int, default=1, help="ring is Z/p^m (default m=1)")
    sub.add_argument("--json", action="store_true")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use; parsing
    keeps no state in it, so every call of :func:`main` starts clean."""
    ap = argparse.ArgumentParser(prog="congroup", description=__doc__)
    subs = ap.add_subparsers(dest="cmd", required=True)

    s = subs.add_parser("series", help="exact series arithmetic")
    s.add_argument("op", choices=["add", "sub", "mul", "neg", "intmul", "shift", "abs", "canon"])
    s.add_argument("values", nargs="+", help="series in the text grammar")
    s.add_argument("--k", type=int, default=1, help="integer for intmul/shift")
    _add_ring_flags(s)
    s.set_defaults(fn=cmd_series)

    c = subs.add_parser("cocycle", help="evaluate and verify cocycles")
    c.add_argument("op", choices=["eval", "bmap", "check"])
    c.add_argument("values", nargs="*", help="series operands for eval")
    c.add_argument("--spec", required=True)
    c.add_argument("--window", default="-4:4", help="LO:HI probe window for bmap")
    c.add_argument("--count", type=int, default=200, help="random triples for check")
    c.add_argument("--seed", type=int, default=0)
    _add_ring_flags(c)
    c.set_defaults(fn=cmd_cocycle)

    e = subs.add_parser("ext", help="central extension algebra")
    e.add_argument("op", choices=["mul", "inv", "alpha", "comm", "center"])
    e.add_argument("values", nargs="+", help="elements (<series> ; <series>)")
    e.add_argument("--spec", required=True)
    e.add_argument("--k", type=int, default=1, help="shift power for alpha")
    e.add_argument("--probes", default=None, help="comma-separated probe degrees for center")
    _add_ring_flags(e)
    e.set_defaults(fn=cmd_ext)

    f = subs.add_parser("fingerprint", help="recover the bit window of an eta-family spec")
    f.add_argument("--spec", required=True)
    f.add_argument("--window", type=int, required=True)
    f.add_argument("--budget", type=int, default=None)
    f.add_argument("--probes", default=None, help="random:N for randomized probe cross-check")
    f.add_argument("--seed", type=int, default=0)
    _add_ring_flags(f)
    f.set_defaults(fn=cmd_fingerprint)

    x = subs.add_parser("section", help="equivariant section by digit expansion")
    x.add_argument("--ctx", required=True, help=GRAMMARS["ctx"])
    x.add_argument("--input", default=None, help="series to section")
    x.add_argument("--upto", type=int, default=12)
    x.add_argument("--verify", type=int, default=0, help="verify on N random samples")
    x.add_argument("--prec", type=int, default=None, help="sample precision for --verify")
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--p", type=int, default=2, help="prime, for extproj contexts")
    x.add_argument("--m", type=int, default=1)
    x.add_argument("--json", action="store_true")
    x.set_defaults(fn=cmd_section)

    k = subs.add_parser("classify", help="abelian classification data")
    k.add_argument("what", choices=["abelian", "poly", "spec", "compdata"])
    k.add_argument("--orders", default="", help="cyclic orders, e.g. 4,2,3")
    k.add_argument("--place", default="inf", help="inf or p:<prime>")
    k.add_argument("--poly", default="", help='monic polynomial, e.g. "x^2 - 1/2*x + 1/8"')
    k.add_argument("--file", default="", help="classification tuple JSON")
    k.add_argument("--p", type=int, default=2)
    k.add_argument("--m", type=int, default=1)
    k.add_argument("--json", action="store_true")
    k.set_defaults(fn=cmd_classify)

    t = subs.add_parser("selftest", help="run the acceptance criteria")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--only", default=None, help="comma-separated criterion numbers")
    t.add_argument("--json", action="store_true")
    t.set_defaults(fn=cmd_selftest)

    return ap


def main(argv=None) -> int:
    # parse_known_args lets payload positionals follow the flags, as in
    # `cocycle eval --p 2 --spec eta:1 "t^0" "t^2"`; usage errors exit 1
    try:
        args, extra = build_parser().parse_known_args(argv)
    except SystemExit as err:
        return 1 if err.code else 0
    try:
        bad = [t for t in extra if t.startswith("-")]
        if bad:
            raise UsageError(f"unrecognized flags {bad}")
        if extra:
            if not hasattr(args, "values"):
                raise UsageError(f"unexpected arguments {extra}")
            args.values = list(args.values) + extra
        return args.fn(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        if err.grammar:
            print(f"expected {GRAMMARS[err.grammar]}", file=sys.stderr)
        return 1
    except CongroupError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
