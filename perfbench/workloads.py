"""Turn generated inputs into calls on congroup's public API.

:func:`build_setup` builds what a user builds once (rings, specs, section
contexts); :func:`build_queries` turns each query into a zero-argument call
plus a ``normalize`` that maps the call's answer to plain data comparable with
:func:`reference.expected`.  Calls reach the library through module
attributes at call time, so the traced run sees every call it wraps.
congroup is imported lazily: importing this module costs nothing that the
set-up measurement should include.
"""

from __future__ import annotations

import contextlib
import importlib
import io
from dataclasses import dataclass
from typing import Any, Callable

import reference
from gen import modulus


class Lib:
    """The congroup modules, looked up once congroup is importable."""

    def __init__(self):
        mod = lambda name: importlib.import_module(f"congroup.{name}")
        self.series = mod("series")
        self.cocycles = mod("cocycles")
        self.extensions = mod("extensions")
        self.fingerprint = mod("fingerprint")
        self.sections = mod("sections")
        self.classify = mod("classify")
        self.cli = mod("cli")


@dataclass
class Query:
    kind: str
    call: Callable[[], Any]
    normalize: Callable[[Any], Any]
    expect: Any


def norm(x):
    return (x.start, tuple(x.coeffs), x.prec)


class Materializer:
    """Congroup objects built from the raw encodings of gen.py."""

    def __init__(self, lib: Lib):
        self.lib = lib
        self.rings = {}

    def ring(self, raw):
        if raw not in self.rings:
            self.rings[raw] = self.lib.series.Modulus(*raw)
        return self.rings[raw]

    def series(self, ring, raw):
        start, coeffs, prec = raw
        return self.lib.series.TruncSeries(self.ring(ring), start, coeffs, prec)

    def spec(self, raw):
        C = self.lib.cocycles
        kind, ring = raw[0], reference.spec_ring(raw)
        if kind == "omega":
            return C.BasisOmega(self.ring(ring), raw[2])
        if kind == "param":
            return C.ParamOmega(self.param_seq(raw))
        if kind == "eta":
            return C.Eta(self.ring(ring), C.BitSeq(raw[2]))
        if kind == "cob":
            return C.QuadCoboundary(self.ring(ring), self.terms(ring, raw[2]))
        return C.Transformed(
            self.spec(raw[1]), self.series(ring, raw[2]), self.series(ring, raw[3]), self.terms(ring, raw[4])
        )

    def terms(self, ring, raw):
        return tuple((k, self.series(ring, u)) for k, u in raw)

    def param_seq(self, raw):
        _, ring, lo, hi, entries = raw
        return self.lib.cocycles.ParamSeq.from_dict(
            self.ring(ring), (lo, hi), {n: self.series(ring, s) for n, s in entries}
        )

    def context(self, raw):
        if raw[0] == "modred":
            return self.lib.sections.make_mod_reduction_ctx(*raw[1:])
        return self.lib.sections.make_ext_projection_ctx(self.spec(raw[1]))


def build_setup(lib, raw_setup):
    """Rings, specs and section contexts of a workload."""
    b = Materializer(lib)
    for ring in raw_setup.get("rings", ()):
        b.ring(ring)
    specs = [b.spec(s) for s in raw_setup.get("specs", ())]
    contexts = [b.context(c) for c in raw_setup.get("contexts", ())]
    return b, specs, contexts


def _run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(argv))
    return code, out.getvalue()


def _ext_axioms(E, spec, triples):
    """Associativity, both inverse laws, kernel-valued commutators and class 2
    on each triple, as the library's own operations report them."""
    e = E.ext_identity(spec)
    out = []
    for u, v, w in triples:
        out.append(((u * v) * w).agree(u * (v * w)))
        out.append((u * u.inverse()).agree(e) and (u.inverse() * u).agree(e))
        out.append(E.commutator(u, v).g.is_zero())
        out.append(E.commutator(E.commutator(u, v), w).agree(e))
    return tuple(out)


def build_queries(lib, raw, setup):
    b, specs, contexts = setup
    C, E, FP, SEC, CL = lib.cocycles, lib.extensions, lib.fingerprint, lib.sections, lib.classify
    out = []
    for query in raw["queries"]:
        kind = query[0]
        expect = reference.expected(query, raw["setup"])
        ident = lambda a: a
        if kind in ("identity", "equivariance", "ext_axioms", "centre"):
            spec = specs[query[1]]
            ring = reference.spec_ring(raw["setup"]["specs"][query[1]])
            ser = lambda r, ring=ring: b.series(ring, r)
            if kind == "identity":
                triples = [tuple(map(ser, t)) for t in query[2]]
                call = lambda spec=spec, t=triples: C.check_cocycle_identity(spec, t)
                normalize = lambda rep: (rep.checked, rep.failed)
            elif kind == "equivariance":
                pairs = [tuple(map(ser, pr)) for pr in query[2]]
                call = lambda spec=spec, pr=pairs, ks=query[3]: C.check_equivariance(spec, pr, ks)
                normalize = lambda rep: (rep.checked, rep.failed)
            elif kind == "ext_axioms":
                triples = [tuple(E.ExtElement(ser(a), ser(g), spec) for a, g in t) for t in query[2]]
                call = lambda spec=spec, t=triples: _ext_axioms(E, spec, t)
                normalize = ident
            else:
                u = E.ExtElement(ser(query[2][0]), ser(query[2][1]), spec)
                call = lambda u=u: E.center_test(u)
                normalize = lambda v: (v.verdict, v.probe)
        elif kind == "bmap":
            seq = b.param_seq(query[1])
            call = lambda spec=C.ParamOmega(seq), w=(seq.lo, seq.hi): C.b_map(spec, w)
            normalize = lambda got, w=(seq.lo, seq.hi): tuple(norm(got.entry(n)) for n in range(w[0], w[1] + 1))
        elif kind.startswith("cli_"):
            call = lambda argv=_cli_argv(query): _run_cli(lib, argv)
            normalize = ident
        elif kind == "fingerprint":
            call = lambda spec=specs[query[1]], w=query[2]: FP.fingerprint(spec, w)
            normalize = lambda got: (
                got[0].status,
                "".join(map(str, got[0].bits.bits)) if got[0].bits is not None else None,
                got[0].offset,
            )
        elif kind == "sweep":
            pairs = [(specs[i], specs[j]) for i, j in query[2]]
            call = lambda pairs=pairs, w=query[1]: tuple(FP.equivalent_on_window(x, y, w).verdict for x, y in pairs)
            normalize = ident
        elif kind == "section":
            ctx, ctx_raw = contexts[query[1]], raw["setup"]["contexts"][query[1]]
            h = b.series(_h_ring(ctx_raw), query[2])
            call = lambda ctx=ctx, h=h, upto=query[3]: SEC.build_section(ctx, h, upto)
            normalize = lambda sv, ctx_raw=ctx_raw: (_q_image(ctx_raw, sv.element), sv.agrees_through)
        elif kind in ("mul", "add", "sub", "agree", "shift", "roundtrip", "omega", "theta"):
            call, normalize = _wide_call(lib, b, query)
        elif kind == "schur":
            poly = CL.RationalPoly(query[1])
            call = lambda f=poly: CL.schur_cohn(f)
            normalize = ident
        elif kind == "decompose":
            group = CL.FiniteAbelianType(tuple(_order(g) for g in query[1]))
            call = lambda g=group: CL.primary_decompose(g)
            normalize = lambda table: tuple(table.entries)
        else:
            raise ValueError(f"unknown query type {kind}")
        out.append(Query(kind, call, normalize, expect))
    return out


def _h_ring(ctx_raw):
    return (2, 1) if ctx_raw[0] == "extproj" else (ctx_raw[1], ctx_raw[3])


def _q_image(ctx_raw, element):
    """q(sigma(h)) as plain data: coefficient reduction, or the quotient
    component of an extension element."""
    if ctx_raw[0] == "extproj":
        return norm(element.g)
    return reference.canon(modulus(_h_ring(ctx_raw)), *norm(element))


def _order(factors):
    out = 1
    for p, k in factors:
        out *= p**k
    return out


def _cli_argv(query):
    kind = query[0]
    if kind == "cli_series_mul":
        p, m = query[1]
        return ("series", "mul", "--p", str(p), "--m", str(m), reference.fmt(query[2]), reference.fmt(query[3]))
    spec = query[1]
    p, m = reference.spec_ring(spec)
    ring_flags = ("--p", str(p), "--m", str(m), "--spec", reference.spec_text(spec))
    if kind == "cli_check":
        return ("cocycle", "check") + ring_flags + ("--count", str(query[2]), "--seed", str(query[3]))
    elems = tuple(f"({reference.fmt(a)} ; {reference.fmt(g)})" for a, g in query[2])
    return ("ext", "mul") + ring_flags + elems


def _wide_call(lib, b, query):
    S, C, CL = lib.series, lib.cocycles, lib.classify
    kind, ring = query[0], query[1]
    if kind == "theta":
        x, z = b.series(ring, query[2]), b.series(query[3], query[4])
        return (lambda: CL.theta_x(x, z)), norm
    if kind == "omega":
        x, y = b.series(ring, query[3]), b.series(ring, query[4])
        return (lambda n=query[2]: C.eval_basis_omega(n, x, y)), norm
    if kind == "roundtrip":
        x, R = b.series(ring, query[2]), b.ring(ring)

        def call():
            text = S.format_series(x)
            return text, S.parse(R, text)

        return call, lambda got: (got[0], norm(got[1]))
    if kind == "shift":
        x = b.series(ring, query[2])
        return (lambda k=query[3]: x.shift(k)), norm
    x, y = b.series(ring, query[2]), b.series(ring, query[3])
    if kind == "mul":
        return (lambda: S.ring_mul(x, y)), norm
    if kind == "add":
        return (lambda: x + y), norm
    if kind == "sub":
        return (lambda: x - y), norm
    return (lambda: x.agree(y)), (lambda a: a)
