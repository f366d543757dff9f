"""The four benchmark workloads, generated from a seed.

Each workload is a list of tasks run in order by one client: a task starts
only after the previous one has its verdict.  A task has a timed ``call``
and an untimed ``check`` that compares the verdict with an answer fixed by
the maths and re-verifies positive answers through a second public call.

Why these four (see README.md for the layer each one isolates):

* ``sweep``      the bitmask engine (``_fastterms``/``_fastsweep``) and its
                 memo caches; no ``Fraction`` arithmetic, no linear algebra.
* ``hochschild`` random multidifferential identity instances: ``brace``,
                 ``hoch_delta`` and ``exactcore`` on rational coefficients.
* ``solve``      a few large sparse exact linear systems (``_linalg``).
* ``flow``       many small CLI commands on generated documents: the
                 ``PolyVector``/``Cochain`` route, CLI parsing and many tiny
                 linear systems.

The cost mix of ``hochschild``, ``solve`` and ``flow`` is fixed by
per-stratum task counts; the seed picks the concrete operators, fields,
variable labels and coefficients inside each stratum, so different seeds
give different inputs of nearly the same cost.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from gdt import (
    DocError,
    FrameMap,
    Poly,
    d_of_term,
    det,
    doc_form,
    doc_mdo,
    doc_problem,
    fm_add,
    fm_sum,
    fm_term,
    padd,
    pmul,
    read_mdo,
    read_multivector,
    read_series,
    split_report,
)

# The one failure class the seed commit is known to produce: the greedy
# gauge-equivalence search misses witnesses that exist within its bounds.
KNOWN_GAP = "gauge-equiv false negative"


@dataclass
class Task:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    checks: int = 1
    smoke: bool = False


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    from gdcalc.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue() + (("\n[stderr]\n" + err.getvalue()) if err.getvalue() else "")


def fingerprint(out: object) -> str:
    """Stable text of an output, compared between repeats of the same task."""
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
        return f"{out[0]}\n{out[1]}"
    terms = getattr(out, "terms", None)
    if isinstance(terms, dict):  # a MultiDiffOp residual
        return repr(sorted((o, sorted(p.items())) for o, p in terms.items()))
    return repr(out)


class Files:
    """Input documents of one run, under the checkout's work directory."""

    def __init__(self, root: str):
        self.dir = os.path.join(root, ".perfbench_work", str(os.getpid()))
        os.makedirs(self.dir, exist_ok=True)
        self.count = 0

    def write(self, text: str, stem: str = "doc") -> str:
        self.count += 1
        path = os.path.join(self.dir, f"{self.count:05d}-{stem}.gdt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


# ---------------------------------------------------------------------------
# small random objects (plain dicts, see gdt.py)


def monomials(n: int, max_deg: int) -> List[Tuple[int, ...]]:
    return [e for e in itertools.product(range(max_deg + 1), repeat=n) if sum(e) <= max_deg]


def rrat(rng: random.Random, dens=(1, 2, 3, 4, 6)) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(dens))


def rpoly(rng: random.Random, n: int, max_deg: int, nterms: int, dens=(1,)) -> Poly:
    monos = monomials(n, max_deg)
    p: Poly = {}
    while not p:
        for _ in range(nterms):
            p = padd(p, {rng.choice(monos): rrat(rng, dens)})
    return p


def const(n: int, c) -> Poly:
    return {(0,) * n: Fraction(c)}


def relabel(fm: FrameMap, perm: Sequence[int]) -> FrameMap:
    """Push a frame map forward along the coordinate relabelling i -> perm[i]."""
    n = len(perm)

    def mono(e):
        out = [0] * n
        for i, x in enumerate(e):
            out[perm[i]] = x
        return tuple(out)

    return fm_sum(
        fm_term([perm[i] for i in frame], {mono(e): c for e, c in p.items()})
        for frame, p in fm.items()
    )


def rclosed3(rng: random.Random, n: int) -> FrameMap:
    """A closed 3-form: a constant term plus the derivative of a random 2-form term."""
    a, b, c = rng.sample(range(n), 3)
    h = fm_term((a, b, c), const(n, rrat(rng)))
    p, q = rng.sample(range(n), 2)
    return fm_add(h, d_of_term((p, q), rpoly(rng, n, 2, 2), n))


def rvector(rng: random.Random, n: int, max_deg: int, nterms: int) -> FrameMap:
    return fm_sum(fm_term((rng.randrange(n),), rpoly(rng, n, max_deg, 1)) for _ in range(nterms))


# ---------------------------------------------------------------------------
# conversion to library objects (input generation only)


def lib_ctx(n: int):
    from gdcalc.exactcore import VarContext

    return VarContext(tuple(f"x{i + 1}" for i in range(n)))


def lib_poly(n: int, p: Poly):
    from gdcalc.exactcore import poly_from_terms

    return poly_from_terms(n, [(c, e) for e, c in p.items()])


def lib_mv(ctx, fm: FrameMap):
    from gdcalc.polyvec import mv_make

    return mv_make(ctx, [(f, lib_poly(ctx.n, p)) for f, p in fm.items()])


def lib_form(ctx, fm: FrameMap):
    from gdcalc.polyvec import form_make

    return form_make(ctx, [(f, lib_poly(ctx.n, p)) for f, p in fm.items()])


def plain_fm(v) -> FrameMap:
    return {f: dict(p) for f, p in v.terms.items() if p}


def plain_op(D) -> Dict:
    return {o: dict(p) for o, p in D.terms.items() if p}


# ---------------------------------------------------------------------------
# sweep


def _sweep_report_check(name, passed, checked, trivial, need_witness=False):
    def check(rep) -> Optional[str]:
        if rep.passed != passed:
            return f"wrong verdict: {name} passed={rep.passed}"
        if rep.checked != checked or rep.trivial != trivial:
            return f"wrong checked count: {name} {rep.checked}/{rep.trivial}"
        if need_witness and not rep.witness:
            return f"missing witness: {name}"
        return None

    return check


def _cli_checks_check(expect: Dict[str, Tuple[int, int]]):
    def check(out) -> Optional[str]:
        code, text = out
        got = {}
        for ln in text.splitlines():
            if ln.startswith("check "):
                name, rest = ln[6:].split(": ", 1)
                status, checked, trivial = rest.split()
                if status != "pass":
                    return f"wrong verdict: {name} {status}"
                got[name] = (int(checked.split("=")[1]), int(trivial.split("=")[1]))
        if code != 0 or not text.rstrip().endswith("result PASS"):
            return f"wrong verdict: exit {code}"
        if got != expect:
            return f"wrong checked count: {got}"
        return None

    return check


def sweep(rng: random.Random, files: Files) -> List[Task]:
    from gdcalc import _fastsweep as fs

    c3, c4 = lib_ctx(3), lib_ctx(4)
    h3 = fm_term((0, 1, 2), const(3, 1))
    h4 = fm_term((0, 1, 2), const(4, 1))
    h4_open = fm_term((0, 1, 2), {(0, 0, 0, 1): Fraction(1)})
    h3_path = files.write(doc_form(3, h3), "h3")

    tasks: List[Task] = []
    # (checked, trivial) are the exhaustive sizes of each enumeration
    schouten = {
        (3, "antisymmetry"): (2885, 355),
        (3, "jacobi"): (65880, 22680),
        (3, "leibniz"): (129600, 129600),
        (4, "antisymmetry"): (2640, 210),
        (4, "jacobi"): (51810, 21340),
        (4, "leibniz"): (98750, 115000),
    }
    for (n, ident), (checked, trivial) in schouten.items():
        ctx, deg = (c3, 2) if n == 3 else (c4, 1)
        tasks.append(Task(
            f"schouten-{ident}-n{n}",
            lambda ident=ident, ctx=ctx, deg=deg: getattr(fs, f"schouten_{ident}")(ctx, poly_degree=deg, mv_degree=3),
            _sweep_report_check(f"schouten-{ident}-n{n}", True, checked, trivial),
            checked,
            smoke=ident == "antisymmetry",
        ))
    lemma = {"lemma-differential": (16360, 11152), "lemma-bracket": (23526, 21162), "lemma-pairing": (144, 0)}
    tasks.append(Task(
        "cli:lemma-check-n3",
        lambda: run_cli(["lemma-check", "--dim", "3", "--bounds-degree", "1"]),
        _cli_checks_check(lemma),
        sum(c for c, _ in lemma.values()),
    ))
    linfty = {"linfty-jacobi": (64010, 24550), "linfty-mixed": (30336, 22024), "linfty-ternary": (423, 369)}
    tasks.append(Task(
        "cli:linfty-check-n3",
        lambda: run_cli(["linfty-check", h3_path]),
        _cli_checks_check(linfty),
        sum(c for c, _ in linfty.values()),
    ))
    H4 = lib_form(c4, h4)
    tasks.append(Task(
        "linfty-ternary-n4",
        lambda: fs.linfty_ternary(c4, H4, poly_degree=0),
        _sweep_report_check("linfty-ternary-n4", True, 5912, 5716),
        5912,
    ))
    H4_open = lib_form(c4, h4_open)
    tasks.append(Task(
        "linfty-mixed-open-n4",
        lambda: fs.linfty_mixed(c4, H4_open, poly_degree=0),
        _sweep_report_check("linfty-mixed-open-n4", False, 418, 382, need_witness=True),
        418,
        smoke=True,
    ))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# hochschild


def _zero_check(what: str):
    def check(residual) -> Optional[str]:
        return None if not residual.terms else f"wrong verdict: {what} identity fails"

    return check


# (n, slot-order bound, coefficient-degree bound): criterion 4's grids
HOCH_GRIDS = ((2, 2, 2), (3, 1, 1))
# Jacobi instances per arity triple and pass.  Jacobi costs grow steeply
# with the arities; on the n=2 grid, triples whose arities sum to more than
# 6 cost up to a second each with a wide spread, so they are left out to
# keep the pass cost independent of the seed.
HOCH_JACOBI = {2: 3, 3: 3}
HOCH_JACOBI_MAX_ARITY_SUM = {2: 6, 3: 9}
# instances per grid and pass of each linear identity
HOCH_LINEAR = {"delta-squared": 60, "delta-as-bracket": 60, "contraction": 60, "cup-derivation": 60}


def hochschild(rng: random.Random, files: Files) -> List[Task]:
    import gdcalc.hochschild as hs

    def operator(n, order, deg, arity, nterms, alternation=False):
        """Grid terms with rational coefficients, or the alternation of a field (1/k!)."""
        ctx = lib_ctx(n)
        if alternation and arity <= n:
            frames = list(itertools.combinations(range(n), arity))
            fm = fm_sum(fm_term(rng.choice(frames), rpoly(rng, n, deg, 1)) for _ in range(nterms))
            if fm:
                return hs.hkr(lib_mv(ctx, fm))
        if nterms == 1:  # top-degree slots and coefficient: the cost depends little on the seed
            orders = [e for e in monomials(n, order) if sum(e) == order]
            monos = [e for e in monomials(n, deg) if sum(e) == deg]
        else:
            orders, monos = monomials(n, order), monomials(n, deg)
        terms = [
            (tuple(rng.choice(orders) for _ in range(arity)), lib_poly(n, {rng.choice(monos): rrat(rng, (1, 2, 3, 6))}))
            for _ in range(nterms)
        ]
        op = hs.mdo_make(ctx, arity, terms)
        return op if op.terms else operator(n, order, deg, arity, nterms)

    def jacobi(A, B, C):
        lhs = hs.gerstenhaber(A, hs.gerstenhaber(B, C))
        s = -1 if ((A.arity - 1) * (B.arity - 1)) % 2 else 1
        rhs = hs.mdo_add(hs.gerstenhaber(hs.gerstenhaber(A, B), C), hs.mdo_scale(hs.gerstenhaber(B, hs.gerstenhaber(A, C)), s))
        return hs.mdo_sub(lhs, rhs)

    tasks: List[Task] = []
    for n, order, deg in HOCH_GRIDS:
        mu = hs.mult_cochain(lib_ctx(n))
        for _ in range(HOCH_JACOBI[n]):
            for arities in itertools.product((1, 2, 3), repeat=3):
                if sum(arities) > HOCH_JACOBI_MAX_ARITY_SUM[n]:
                    continue
                A, B, C = (operator(n, order, deg, a, 1) for a in arities)
                tasks.append(Task(f"jacobi-n{n}", lambda A=A, B=B, C=C: jacobi(A, B, C), _zero_check("jacobi"),
                                  smoke=sum(arities) == 3))
        for ident, count in HOCH_LINEAR.items():
            for i in range(count):
                D = operator(n, order, deg, 1 + i % 3, 3, alternation=i % 4 == 3)
                a = lib_poly(n, rpoly(rng, n, deg, 2, (1, 2, 3)))
                if ident == "delta-squared":
                    call = lambda D=D: hs.hoch_delta(hs.hoch_delta(D))
                elif ident == "delta-as-bracket":
                    sign = -1 if (D.arity - 1) % 2 else 1
                    call = lambda D=D, sign=sign, mu=mu: hs.mdo_sub(hs.gerstenhaber(mu, D), hs.mdo_scale(hs.hoch_delta(D), sign))
                elif ident == "contraction":
                    call = lambda D=D, a=a: hs.mdo_add(hs.i_func_hoch(a, hs.hoch_delta(D)), hs.hoch_delta(hs.i_func_hoch(a, D)))
                else:
                    E = operator(n, order, deg, 1 + (i // 3) % 2, 3)
                    call = lambda D=D, E=E, a=a: hs.mdo_sub(
                        hs.i_func_hoch(a, hs.cup(D, E)),
                        hs.mdo_add(hs.cup(hs.i_func_hoch(a, D), E), hs.mdo_scale(hs.cup(D, hs.i_func_hoch(a, E)), (-1) ** D.arity)),
                    )
                tasks.append(Task(f"{ident}-n{n}", call, _zero_check(ident), smoke=i == 0))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# shared deformation instances (plain dicts)


def r4_instance(rng: random.Random, n: int, third_pair: bool = False, scales=(1, -1, 2, -2, 3, Fraction(1, 2))):
    """The shipped four-variable twisted instance, moved into n variables.

    H = dx_1^dx_2^dx_3 and pi1 = d_1^d_2 + d_3^d_4, with the order-2
    solution term -3·x_3 d_1^d_2, are pushed forward along a seeded
    coordinate permutation and rescaled by the symmetry
    (H, pi) -> (H/m, m·pi), which multiplies every order of the defect by
    m^2.  With ``third_pair`` pi1 also gets d_5^d_6, away from the coframe
    of H, and no order-2 term is returned.
    """
    perm = rng.sample(range(n), n)
    m = Fraction(rng.choice(scales))
    x3 = tuple(1 if i == 2 else 0 for i in range(n))
    frames = [(0, 1), (2, 3)] + ([(4, 5)] if third_pair else [])
    h = relabel(fm_term((0, 1, 2), const(n, 1 / m)), perm)
    pi1 = relabel(fm_sum(fm_term(f, const(n, m)) for f in frames), perm)
    pi2 = None if third_pair else relabel(fm_term((0, 1), {x3: -3 * m}), perm)
    return h, pi1, pi2


def decomposable(rng: random.Random, n: int, N: int):
    """A closed H and a series sum_k t^k f_k d_a^d_b: a solution for every H.

    Brackets of multiples of one coordinate bivector vanish, and three
    vectors from a two-dimensional span never fill a 3-form, so every order
    of the defect is zero.
    """
    a, b = rng.sample(range(n), 2)
    series = {k: fm_term((a, b), rpoly(rng, n, 1, 2)) for k in range(1, N + 1)}
    return rclosed3(rng, n) if n >= 3 else {}, series


def _mc_defect_zero(files: Files, n: int, h: FrameMap, N: int, series) -> Optional[str]:
    path = files.write(doc_problem(n, "mc-defect", {"h": ("form", h), "series": (N, series)}), "recheck")
    code, text = run_cli(["mc-defect", path])
    if code != 0 or "\nzero true" not in text:
        return f"re-verification failed: mc-defect exit {code}"
    return None


def _expect_exit(code_want: int, needle: str):
    def check(out) -> Optional[str]:
        code, text = out
        if code != code_want or needle not in text:
            return f"wrong verdict: exit {code}, expected {code_want} with {needle!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# solve


def solve(rng: random.Random, files: Files) -> List[Task]:
    from gdcalc.hochschild import gerstenhaber, hkr, mdo_add
    from gdcalc.polyvec import mv_is_zero, schouten

    tasks: List[Task] = []
    c3 = lib_ctx(3)
    pairs = 0
    while pairs < 2:
        # bracket defect of a linear and a constant bivector, with the parity
        # factor (-1)^{(2-1)(2-1)} on the bracket term: exact within the bounds
        j = rng.randrange(3)
        x = tuple(int(i == j) for i in range(3))
        a = lib_mv(c3, fm_term(tuple(rng.sample(range(3), 2)), {x: rrat(rng)}))
        b = lib_mv(c3, fm_term(tuple(rng.sample(range(3), 2)), const(3, rrat(rng))))
        br = schouten(a, b)
        defect = gerstenhaber(hkr(a), hkr(b))
        if not mv_is_zero(br):
            defect = mdo_add(defect, hkr(br))
        if not defect.terms:
            continue
        pairs += 1
        target = plain_op(defect)
        path = files.write(doc_mdo(3, 3, target), "defect")

        def check(out, target=target) -> Optional[str]:
            code, text = out
            head, doc = split_report(text, "primitive")
            if code != 0 or head.get("found") != "true":
                return f"wrong verdict: bracket defect has no primitive (exit {code})"
            if head.get("rank") != "320":
                return f"wrong rank {head.get('rank')}"
            prim = files.write(doc, "primitive")
            dcode, dtext = run_cli(["hoch", "delta", prim])
            if dcode != 0 or read_mdo(dtext) != (3, target):
                return "re-verification failed: delta of the primitive differs from the defect"
            return None

        tasks.append(Task("cli:hoch-primitive-n3",
                          lambda path=path: run_cli(["hoch", "primitive", path, "--bounds-degree", "1", "--bounds-order", "2"]),
                          check))

    # the alternation class of a bivector is never exact; the rank is that of
    # delta on the candidate space, fixed by the bounds
    c2 = lib_ctx(2)
    biv = lib_mv(c2, fm_term((0, 1), rpoly(rng, 2, 2, 2)))
    hpath = files.write(doc_mdo(2, 2, plain_op(hkr(biv))), "hkr-class")
    tasks.append(Task("cli:hoch-primitive-hkr-n2",
                      lambda: run_cli(["hoch", "primitive", hpath]),
                      lambda out: None if out[0] == 1 and "found false\nrank 24\n" in out[1]
                      else f"wrong verdict: hkr class (exit {out[0]})",
                      smoke=True))

    for n, N in ((5, 3), (6, 3)):
        # unit scales only: larger ones change the elimination's cost from seed to seed
        h, pi1, _ = r4_instance(rng, n, third_pair=n == 6, scales=(1, -1))
        path = files.write(doc_problem(n, "mc-solve", {"h": ("form", h), "pi1": ("multivector", pi1)}), "mc-solve")
        tasks.append(Task(f"cli:mc-solve-n{n}",
                          lambda path=path, N=N: run_cli(["mc-solve", path, "--truncation", str(N), "--bounds-degree", "2"]),
                          _solved_check(files, n, h, N)))
    rng.shuffle(tasks)
    return tasks


def _solved_check(files: Files, n: int, h: FrameMap, N: int):
    def check(out) -> Optional[str]:
        code, text = out
        head, doc = split_report(text, "solution")
        if code != 0 or head.get("status") != "solved":
            return f"wrong verdict: expected solved, exit {code}"
        try:
            series = read_series(doc)
        except DocError as exc:
            return f"unreadable solution: {exc}"
        return _mc_defect_zero(files, n, h, N, series)

    return check


# ---------------------------------------------------------------------------
# flow

# tasks per pass, by family
FLOW_COUNTS = {
    "twisted-check-true": 96,
    "twisted-check-false": 72,
    "mc-defect-zero": 96,
    "mc-defect-nonzero": 48,
    "phi-eval": 96,
    "gauge": 72,
    "gauge-equiv": 120,
    "gauge-equiv-distinct": 36,
    "mc-solve": 72,
}


def phi_vectors(h: FrameMap, vs: Sequence[FrameMap], n: int) -> Poly:
    """phi(H)(X, Y, Z) on vector fields: -sum over coframes g·det(<dx_i, X_j>).

    Read off the contraction-cochain formula: every argument has degree 1,
    so the sign exponent is 2+1+0 and the Koszul sign is the sign of the
    permutation, leaving minus the determinant of the pairings.
    """
    total: Poly = {}
    for coframe, g in h.items():
        m = [[v.get((i,), {}) for v in vs] for i in coframe]
        total = padd(total, pmul(g, det(m)), -1)
    return total


def flow(rng: random.Random, files: Files) -> List[Task]:
    from gdcalc.deform import ArtinRing, GaugeParam, gauge_flow, series_make
    from gdcalc.twistcheck import make_twisted

    tasks: List[Task] = []

    def add(name, argv, check, smoke=False):
        tasks.append(Task(name, lambda argv=argv: run_cli(argv), check, smoke=smoke))

    def flow_series(n, h, series, xi, N):
        ctx = lib_ctx(n)
        ring = ArtinRing(N)
        S = make_twisted(lib_form(ctx, h))
        gamma = series_make(ring, {k: lib_mv(ctx, v) for k, v in series.items() if v})
        moved = gauge_flow(S, gamma, GaugeParam(ring, {k: lib_mv(ctx, v) for k, v in xi.items() if v}))
        return {k: plain_fm(v) for k, v in moved.coeffs.items()}

    def solution(n, i):
        """A solution series: the relabelled r4 instance at N = 2 (every other
        call with n >= 4), or a decomposable one at N = 2 or 3."""
        if n >= 4 and i % 2:
            h, pi1, pi2 = r4_instance(rng, n)
            return h, {1: pi1, 2: pi2}, 2
        N = 2 + (i // 2) % 2
        h, series = decomposable(rng, n, N)
        return h, series, N

    for i in range(FLOW_COUNTS["twisted-check-true"]):
        n = 3 + i % 4
        h = rclosed3(rng, n)
        pi = fm_term(tuple(rng.sample(range(n), 2)), rpoly(rng, n, 2, 3))
        path = files.write(doc_problem(n, "twisted-check", {"h": ("form", h), "pi": ("multivector", pi)}))
        add("cli:twisted-check", ["twisted-check", path], _expect_exit(0, "twisted-poisson true"), smoke=i == 0)
    for i in range(FLOW_COUNTS["twisted-check-false"]):
        n = 4 + i % 3
        h, pi1, _ = r4_instance(rng, n)
        path = files.write(doc_problem(n, "twisted-check", {"h": ("form", h), "pi": ("multivector", pi1)}))
        add("cli:twisted-check", ["twisted-check", path], _expect_exit(1, "twisted-poisson false"))
    for i in range(FLOW_COUNTS["mc-defect-zero"]):
        n = 2 + i % 5
        h, series, N = solution(n, i // 5)
        path = files.write(doc_problem(n, "mc-defect", {"h": ("form", h), "series": (N, series)}))
        add("cli:mc-defect", ["mc-defect", path], _expect_exit(0, "\nzero true"), smoke=i == 0)
    for i in range(FLOW_COUNTS["mc-defect-nonzero"]):
        n = 4 + i % 3
        h, pi1, _ = r4_instance(rng, n)
        path = files.write(doc_problem(n, "mc-defect", {"h": ("form", h), "series": (3, {1: pi1})}))
        add("cli:mc-defect", ["mc-defect", path], _expect_exit(1, "\nzero false"))
    for i in range(FLOW_COUNTS["phi-eval"]):
        n = 3 + i % 4
        h = fm_sum(fm_term(tuple(rng.sample(range(n), 3)), rpoly(rng, n, 1, 1, (1, 2))) for _ in range(2))
        vs = [rvector(rng, n, 1, 3) for _ in range(3)]
        paths = [files.write(doc_form(n, h))] + [files.write(doc_form(n, v, "multivector")) for v in vs]
        expect = phi_vectors(h, vs, n)
        want = {(): expect} if expect else {}

        def check(out, want=want):
            code, text = out
            try:
                got = read_multivector(text)
            except DocError as exc:
                return f"wrong output: {exc}"
            return None if code == 0 and got == want else "wrong value: phi-eval"

        tasks.append(Task("cli:phi-eval", lambda paths=paths: run_cli(["phi-eval"] + paths), check))
    for i in range(FLOW_COUNTS["gauge"]):
        n = 2 + i % 4
        h, series, N = solution(n, i // 4)
        xi = {k: rvector(rng, n, 1, 2) for k in range(1, N + 1)}
        path = files.write(doc_problem(n, "gauge", {"h": ("form", h), "series": (N, series), "xi": (N, xi)}))

        def check(out, n=n, h=h, N=N):
            code, text = out
            if code != 0:
                return f"wrong verdict: gauge exit {code}"
            return _mc_defect_zero(files, n, h, N, read_series(text))

        add("cli:gauge", ["gauge", path], check)
    for i in range(FLOW_COUNTS["gauge-equiv"]):
        # pairs related by a flow that moves the series, with a generator
        # inside the search bounds: the right verdict is always "equivalent"
        n, N = 2 + i % 2, 3
        deg = 1 if n == 2 else (i // 2) % 2
        a, b = rng.sample(range(n), 2)
        h = fm_term((0, 1, 2), const(n, rrat(rng))) if n == 3 else {}
        series = {1: fm_term((a, b), rpoly(rng, n, deg, 1))}
        for _ in range(100):
            xi = {k: rvector(rng, n, deg, 2) for k in range(1, N)}
            moved = flow_series(n, h, series, xi, N)
            if moved != series:
                break
        else:
            raise RuntimeError("no generator within the bounds moves the series")
        path = files.write(doc_problem(n, "gauge-pair", {"a": (N, series), "b": (N, moved), "h": ("form", h)}))

        def check(out, n=n, h=h, N=N, series=series, moved=moved):
            code, text = out
            head, doc = split_report(text, "witness")
            if head.get("equivalent") == "false":
                return f"{KNOWN_GAP} at n={n}"
            if code != 0 or head.get("equivalent") != "true":
                return f"wrong verdict: gauge-equiv exit {code}"
            wit = read_series(doc)
            gpath = files.write(doc_problem(n, "gauge", {"h": ("form", h), "series": (N, series), "xi": (N, wit)}), "recheck")
            gcode, gtext = run_cli(["gauge", gpath])
            if gcode != 0 or read_series(gtext) != moved:
                return "re-verification failed: the witness does not reproduce b"
            return None

        add(f"cli:gauge-equiv-n{n}-d{deg}", ["gauge-equiv", path, "--bounds-degree", str(deg)], check, smoke=i == 0)
    for i in range(FLOW_COUNTS["gauge-equiv-distinct"]):
        # the flow never moves the first-order coefficient
        n = 2 + i % 2
        h = fm_term((0, 1, 2), const(n, 1)) if n == 3 else {}
        a, b = rng.sample(range(n), 2)
        s1 = {1: fm_term((a, b), const(n, 1))}
        s2 = {1: fm_term((a, b), const(n, rng.choice((2, 3, -1))))}
        path = files.write(doc_problem(n, "gauge-pair", {"a": (2, s1), "b": (2, s2), "h": ("form", h)}))
        add("cli:gauge-equiv-distinct", ["gauge-equiv", path], _expect_exit(1, "equivalent false"))
    for i in range(FLOW_COUNTS["mc-solve"]):
        kind = i % 3
        if kind == 2:
            n = 3 + i % 4
            h, series = decomposable(rng, n, 1)
            path = files.write(doc_problem(n, "mc-solve", {"h": ("form", h), "pi1": ("multivector", series[1])}))
            add("cli:mc-solve", ["mc-solve", path, "--truncation", "3", "--bounds-degree", "1"],
                _solved_check(files, n, h, 3))
            continue
        n = 4 + i % 2
        h, pi1, _ = r4_instance(rng, n)
        path = files.write(doc_problem(n, "mc-solve", {"h": ("form", h), "pi1": ("multivector", pi1)}))
        if kind == 0:
            add("cli:mc-solve", ["mc-solve", path, "--truncation", "2", "--bounds-degree", "1"],
                _solved_check(files, n, h, 2))
        else:
            # with constant coefficients [pi1, pi2] = 0, so order 3 cannot be met
            add("cli:mc-solve", ["mc-solve", path, "--truncation", "2", "--bounds-degree", "0"],
                _expect_exit(1, "status obstructed\npoly-degree 0\nobstruction-order 3\n"))
    rng.shuffle(tasks)
    return tasks


WORKLOADS = {"sweep": sweep, "hochschild": hochschild, "solve": solve, "flow": flow}
