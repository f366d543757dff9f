"""Exhaustive identity sweeps at gate scale, on the term engine.

Each sweep enumerates canonical basis tuples in a fixed deterministic
order, prunes tuples on which every term of the identity is forced to
vanish structurally, and evaluates the identity exactly.  One loop,
`_drive`, runs them all from blocks of (tuple source, prune, evaluate,
witness): pruned tuples count as `trivial`, evaluated ones as `checked`,
and the first tuple with a nonzero value is the witness.

Two prunes are used.  Grading: a bracket term's output degree is fixed by
the degrees of its inputs, and a degree outside 0..n cannot be
represented (it would need more than n distinct frame indices), so both
sides of the identity are the empty map.  Coverage: every value produced
by the contraction cochain of a form carries only frame indices drawn
from its arguments, and contracts away one full coframe of the form, so
a tuple whose frame union misses the coframe evaluates to zero in every
composition.  Kernels skip zero contractions inside a tuple the same way.

Every sweep element is one unit term x^e theta_m, so every product is a
short sum of unit terms.  A sweep's `_Pool` interns each term key (frame
mask, exponents) as a small int id, elements first, and reads degree and
mask off the id.  A unit product is filled once, straight from its
operands' keys into a tuple of (id, coefficient) with each output key
interned once, and memoised: in one table per element keyed by the other
id for the Schouten sweeps, in tables keyed by packed id tuples
(`_Packed`) for the sweeps through `_kernel`.  Its frame signs come from
the shared tables that the TermMap producers of `_fastterms` read too:
the bracket's half plans (`_fastterms.bracket_plans`), the merge signs
and the contraction's frame table (`_fastterms.frame_entry`).  Each entry
is computed from its own operands, never derived from another entry by an
identity that a sweep checks (antisymmetry, graded commutativity), so a
wrong sign in a table shows in the sweeps.  m(x, y) = (-1)^{|x|-1}[x, y]
is the bracket read by sign, and a kernel sums memoised values into an
{id: coefficient} accumulator, so a nested value such as [[a, b], c]
costs lookups only.  Memos live for one sweep, Leibniz's [a, .] for the
row of a and lemma_differential's contraction for its form; Leibniz keeps
one wedge memo, which b^c and [a, b]^c both read.  Unshuffle signs come
from `_fastterms.subset_plan`, folded with each sweep's own signs into
one row per odd-degree mask.  Every public sweep refuses a negative bound
with ValueError before it starts.

A kernel row (subset, rest, sign) adds inner(x_subset) into outer(., x_rest).
Contraction never differentiates, so whether a contraction vanishes on
unit terms, and the frames of its terms, depend on the arguments' frame
masks alone (`_fastterms.frame_entry`).  A sweep that can see a tuple shape
recur (a frame mask repeated among its elements, as dressed elements
repeat their frames, or among its blocks' forms) keeps one plan store for
the sweep: under (the parts' row tables and coframes, the tuple's packed
frame masks) it holds the rows that can be nonzero, found on the first
tuple of that shape and held as references to the shared row records,
each distinct plan once.  Blocks with the same row tables and coframes,
such as the forms of one frame, share the plans; later tuples of a shape
run only its live rows.  A sweep where no shape recurs tests every row on
every tuple and plans nothing.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ._fastterms import (
    FastCtx,
    TermMap,
    _Table,
    bracket_plans,
    frame_entry,
    odd_mask,
    phi_eval,
    subset_plan,
    tm_add_into,
)
from .exactcore import Exponents, VarContext, format_rat, monomials_upto
from .polyvec import DiffForm, basis_keys, canonical_keys, d_form, form_degree

__all__ = [
    "CheckReport",
    "Element",
    "sweep_elements",
    "schouten_antisymmetry",
    "schouten_jacobi",
    "schouten_leibniz",
    "lemma_differential",
    "lemma_bracket_vanishes",
    "lemma_pairing_on_vectors",
    "linfty_jacobi",
    "linfty_mixed",
    "linfty_ternary",
]


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    checked: int
    trivial: int
    witness: Optional[str]


@dataclass(frozen=True)
class Element:
    """One canonical basis multivector x^exps theta_frame, coefficient 1."""

    mask: int
    exps: Exponents
    deg: int


def _mono_label(names: Sequence[str], exps: Exponents) -> str:
    parts = [names[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
    return "*".join(parts) if parts else "1"


def element_label(names: Sequence[str], fc: FastCtx, el: Element) -> str:
    frame = ",".join(str(i) for i in fc.bits[el.mask])
    return f"{_mono_label(names, el.exps)}@({frame})"


def format_terms(names: Sequence[str], fc: FastCtx, tm: TermMap) -> str:
    keys = canonical_keys(fc.n, [key for key, c in tm.items() if c])
    if not keys:
        return "0"
    return " + ".join(
        f"{format_rat(tm[m, e])}*{_mono_label(names, e)}@({','.join(map(str, fc.bits[m]))})"
        for m, e in keys
    )


def sweep_elements(
    fc: FastCtx, poly_degree: int, mv_degrees: Sequence[int]
) -> List[Element]:
    """Same enumeration order as the canonical PolyVector basis (``polyvec.basis_keys``)."""
    keys = basis_keys(fc.n, poly_degree, mv_degrees)
    return [Element(mask, exps, k) for mask, exps, k in keys]


def _witness(
    names: Sequence[str], fc: FastCtx, els: Sequence[Element], value: TermMap
) -> str:
    tup = " | ".join(element_label(names, fc, e) for e in els)
    return f"({tup}) -> {format_terms(names, fc, value)}"


# ---------------------------------------------------------------------------
# interned unit terms and their memoised products

Value = Tuple[Tuple[int, int], ...]  # (id, coefficient) pairs
_SHIFT = 32  # ids stay below 2**32, so packed id tuples do not collide
_LOW = (1 << _SHIFT) - 1


def _pack(ids: Iterable[int]) -> int:
    key = 0
    for x in ids:
        key = key << _SHIFT | x
    return key


class _Packed(_Table):
    """A unit product on arity-k tuples of ids, memoised by the packed ids.

    `table[key]` memoises and `table.fill(key)` does not.  `need` holds the
    frame indices that a nonzero value needs among its arguments' frames:
    for a contraction, the coframe indices all terms of its form share
    (coverage), so kernels skip a lookup whose arguments miss one.
    `frames` holds a contraction's coframe masks, which with the arguments'
    frame masks decide its value's frames, and is None for other products;
    `_kernel`'s plans key on it, so contractions of forms with the same
    coframes (x*dx1 and dx1, say) share one sweep's plans.
    """

    __slots__ = ("k", "need", "form", "frames")


class _Pool:
    """One sweep's interned unit terms and their unit products."""

    def __init__(self, names: Sequence[str], fc: FastCtx, elements: Sequence[Element]):
        self.names = names
        self.fc = fc
        self.els = elements
        self.ids: Dict[Tuple[int, Exponents], int] = {}
        self.keys: List[Tuple[int, Exponents]] = []  # id -> (mask, exps)
        self.deg: List[int] = []  # id -> frame degree
        self.mask: List[int] = []  # id -> frame mask
        for el in elements:
            self.intern((el.mask, el.exps))

    def intern(self, key: Tuple[int, Exponents]) -> int:
        got = self.ids.get(key)
        if got is None:
            got = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.deg.append(self.fc.pop[key[0]])
            self.mask.append(key[0])
        return got

    def _interned(self, acc: TermMap) -> Value:
        """acc's nonzero terms as (id, coefficient) pairs."""
        ids = self.ids
        out = []
        for key, c in acc.items():
            if c:
                got = ids.get(key)
                out.append((self.intern(key) if got is None else got, c))
        return tuple(out)

    def bracket(self, x: int, y: int) -> Value:
        """[x, y]: a half plan entry (i, mask, s) of D(x, y) differentiates
        y's monomial x^b by x_i, giving s b_i x^{a+b-e_i} theta_mask for x's
        monomial x^a, and D(y, x) the other way round."""
        fc = self.fc
        (m1, e1), (m2, e2) = self.keys[x], self.keys[y]
        ab, ba = fc._plans[m1].get(m2) or bracket_plans(fc, m1, m2)
        if not (ab or ba):
            return ()
        esum = fc.eadd(e1, e2)
        acc: TermMap = {}
        for plan, ed in ((ab, e2), (ba, e1)):
            for i, om, s in plan:
                b = ed[i]
                if b:
                    lowered = list(esum)
                    lowered[i] -= 1
                    key = (om, tuple(lowered))
                    acc[key] = acc.get(key, 0) + s * b
        return self._interned(acc)

    def wedge(self, x: int, y: int) -> Value:
        fc = self.fc
        (m1, e1), (m2, e2) = self.keys[x], self.keys[y]
        s = fc.merge[m1][m2]
        return ((self.intern((m1 | m2, fc.eadd(e1, e2))), s),) if s else ()

    def by_right(self, product) -> List[_Table]:
        """For each element z, the memo t -> product(t, z)."""
        return [_Table(lambda t, z=z: product(t, z)) for z in range(len(self.els))]

    def packed(self, product, k: int) -> _Packed:
        """The memo pack(ids) -> product(*ids) on arity-k id tuples."""
        table = _Packed(lambda key: product(*[key >> _SHIFT * (k - 1 - s) & _LOW for s in range(k)]))
        table.k, table.need, table.frames = k, 0, None
        return table

    def contraction(self, form_terms: TermMap, k: int) -> _Packed:
        """The memo of phi(form) on arity-k id tuples.  On unit terms each
        coframe of the form gives at most one term: its frame and sign are
        the frame table's entry, and its exponents add up."""
        fc, keys, mask = self.fc, self.keys, self.mask
        if any(fc.pop[m] != k for m, _ in form_terms):
            raise ValueError("form degree does not match argument count")
        items = list(form_terms.items())

        def phi(*ids: int) -> Value:
            masks = tuple([mask[x] for x in ids])
            esum = None
            for x in ids:
                e = keys[x][1]
                esum = e if esum is None else fc.eadd(esum, e)
            acc: TermMap = {}
            for (comask, fexps), c in items:
                hit = frame_entry(fc, comask, masks)
                if hit is not None:
                    key = (hit[0], fexps if esum is None else fc.eadd(fexps, esum))
                    acc[key] = acc.get(key, 0) + c * hit[1]
            return self._interned(acc)

        table = self.packed(phi, k)
        table.form = form_terms
        table.frames = tuple(sorted({m for m, _ in form_terms}))
        if form_terms:
            table.need = functools.reduce(int.__and__, [m for m, _ in form_terms])
        return table

    def termmap(self, acc: Dict[int, int]) -> TermMap:
        """An {id: coefficient} accumulator as a TermMap, zeros dropped."""
        return {self.keys[t]: c for t, c in acc.items() if c}

    def witness(self, idx: Sequence[int], acc: Dict[int, int]) -> str:
        return _witness(self.names, self.fc, [self.els[i] for i in idx], self.termmap(acc))


def _refuse_negative(**bounds: int) -> None:
    """Raise ValueError naming each negative bound, before a sweep starts."""
    bad = [f"{name}={value}" for name, value in bounds.items() if value < 0]
    if bad:
        raise ValueError(f"bounds must be non-negative, got {', '.join(bad)}")


def _sweep_pool(ctx: VarContext, poly_degree: int, mv_degree: int) -> _Pool:
    _refuse_negative(poly_degree=poly_degree, mv_degree=mv_degree)
    fc = FastCtx(ctx.n)
    return _Pool(ctx.names, fc, sweep_elements(fc, poly_degree, range(min(mv_degree, ctx.n) + 1)))


def _graded_prune(pool: _Pool, shift: int, need: int = 0):
    """Prune a tuple whose value degree sum(deg) - shift is outside 0..n, or
    whose frame union misses a coframe index in `need`."""
    deg, masks, n = pool.deg, pool.mask, pool.fc.n

    def prune(idx: Sequence[int]) -> bool:
        sd = union = 0
        for x in idx:
            sd += deg[x]
            union |= masks[x]
        return not 0 <= sd - shift <= n or bool(need & ~union)

    return prune


def _signed_plan(r: int, k: int, sign) -> List[List[tuple]]:
    """subset_plan(r, k) with its signs folded in, one row per odd-degree mask.

    rows[par] lists (subset, rest, eps * sign(par, subset)): the unshuffle
    sign eps times the sweep's own sign, which may depend on the parities
    of the slots (the bits of par).
    """
    plan, signs = subset_plan(r, k)
    return [
        [(t, rest, eps * sign(par, t)) for (t, rest), eps in zip(plan, signs[par])]
        for par in range(1 << r)
    ]


# ---------------------------------------------------------------------------
# the kernels


class _Plans:
    """One sweep's kernel plans (see `_kernel`).

    `stores` holds each kernel's plans by tuple shape, under the kernel's
    parts.  `outputs` memoises, per (coframes, argument frame masks), the
    frames of a contraction's value, which the sweep's shapes and kernels
    ask for again and again."""

    __slots__ = ("fc", "stores", "outputs")

    def __init__(self, fc: FastCtx):
        self.fc = fc
        self.stores: Dict[tuple, tuple] = {}
        self.outputs: Dict[tuple, List[int]] = {}

    def frame_outputs(self, table: _Packed, masks: Tuple[int, ...]) -> Optional[List[int]]:
        """The frame masks of the terms of table's value on arguments with
        these frame masks, or None when frames do not decide them (table is
        not a contraction).  A contraction never differentiates, so on unit
        terms its value is one term per coframe of its form whose frame
        entry (`_fastterms.frame_entry`) is not None."""
        if table.frames is None:
            return None
        key = (table.frames, masks)
        got = self.outputs.get(key)
        if got is None:
            entries = [frame_entry(self.fc, comask, masks) for comask in table.frames]
            got = self.outputs[key] = [e[0] for e in entries if e is not None]
        return got

    def row_live(self, inner: _Packed, outer: _Packed, masks, subset, rest) -> bool:
        """False when frames alone show that a kernel row adds nothing on a
        tuple with these frame masks: inner is a contraction that vanishes
        on x_subset, or outer is one too and vanishes on each of inner's
        terms with x_rest.  (A contraction vanishes where its arguments miss
        its `need`, and other products have none.)"""
        outs = self.frame_outputs(inner, tuple([masks[q] for q in subset]))
        if outs is None or outer.frames is None:
            return outs is None or bool(outs)
        rest_masks = tuple([masks[q] for q in rest])
        return any(self.frame_outputs(outer, (m,) + rest_masks) for m in outs)


def _plan_store(pool: _Pool, blocks: Sequence[int] = ()) -> Optional[_Plans]:
    """A sweep's plan store, or None when no frame mask repeats among the
    pool's elements or among the blocks' frames: then no tuple shape recurs."""
    masks = [el.mask for el in pool.els]
    repeats = len(set(masks)) < len(masks) or len(set(blocks)) < len(blocks)
    return _Plans(pool.fc) if repeats else None


def _kernel(pool: _Pool, plans: Optional[_Plans], *parts):
    """evaluate(idx): s v outer(t, x_rest) summed over the parts (rows, inner,
    outer), the rows (subset, rest, s) of the tuple's odd-degree mask and
    the terms (t, v) of inner(x_subset); inner and outer are `_Packed` memos.

    With a plan store (`_Plans`, which lives for one sweep), the rows that can
    be nonzero on a tuple's frame masks are found once per shape and kept,
    by reference, in the store under (parts, masks); without one, every
    row is tested on every tuple."""
    deg, mask, fc = pool.deg, pool.mask, pool.fc
    # per part: its memos and the shift that packs t before x_rest
    tables = [(inner, outer, _SHIFT * len(rows[0][0][1])) for rows, inner, outer in parts]
    if plans is None:
        unplanned = [
            (rows, inner, outer, inner.need, outer.need, shift)
            for (rows, _, _), (inner, outer, shift) in zip(parts, tables)
        ]

        def evaluate(idx):
            par = odd_mask([deg[x] for x in idx])
            masks = [mask[x] for x in idx]
            acc: Dict[int, int] = {}
            for rows, inner, outer, need_in, need, shift in unplanned:
                for subset, rest, s in rows[par]:
                    cover = 0
                    for q in subset:
                        cover |= masks[q]
                    if need_in & ~cover:
                        continue
                    key = 0  # _pack, inlined
                    for q in subset:
                        key = key << _SHIFT | idx[q]
                    value = inner[key]
                    if not value:
                        continue
                    tail = cover = 0
                    for q in rest:
                        tail = tail << _SHIFT | idx[q]
                        cover |= masks[q]
                    for t, v in value:
                        if need & ~(mask[t] | cover):
                            continue
                        v *= s
                        for u, w in outer[t << shift | tail]:
                            acc[u] = acc.get(u, 0) + v * w
            return acc

        return evaluate

    # shape -> plan, and each distinct plan once, so shapes share its storage;
    # the entry holds the row tables, so their ids in its key stay theirs
    store, distinct, _ = plans.stores.setdefault(
        tuple((id(rows), inner.frames, outer.frames) for rows, inner, outer in parts),
        ({}, {}, [rows for rows, _, _ in parts]),
    )
    width = fc.n

    def plan(idx):
        """Per part, the live rows (shared records) on idx's frame masks and
        the outer need still to test per term: none when one inner frame
        has decided it for every row."""
        masks = [mask[x] for x in idx]
        par = odd_mask([fc.pop[m] for m in masks])
        out = tuple(
            (
                tuple([r for r in rows[par] if plans.row_live(inner, outer, masks, r[0], r[1])]),
                0 if inner.frames is not None and len(inner.frames) < 2 else outer.need,
            )
            for rows, inner, outer in parts
        )
        return distinct.setdefault(out, out)

    def evaluate(idx):
        key = 0
        for x in idx:
            key = key << width | mask[x]
        live = store.get(key)
        if live is None:
            live = store[key] = plan(idx)
        acc: Dict[int, int] = {}
        for (rows, need), (inner, outer, shift) in zip(live, tables):
            for subset, rest, s in rows:
                key = 0  # _pack, inlined
                for q in subset:
                    key = key << _SHIFT | idx[q]
                value = inner[key]
                if not value:
                    continue
                tail = cover = 0
                for q in rest:
                    x = idx[q]
                    tail = tail << _SHIFT | x
                    cover |= mask[x]
                for t, v in value:
                    if need & ~(mask[t] | cover):
                        continue
                    v *= s
                    for u, w in outer[t << shift | tail]:
                        acc[u] = acc.get(u, 0) + v * w
        return acc

    return evaluate


def _nested_brackets(pool: _Pool, rows):
    """evaluate(idx) on a triple: s [[x_a, x_b], x_c] summed over the rows
    ((a, b), (c,), s) of its odd-degree mask.  The Jacobi sweeps do little
    work on each of many tuples, so this is _kernel inlined, with the
    bracket memo in one table per element, keyed by the other id."""
    deg, br = pool.deg, pool.by_right(pool.bracket)

    def evaluate(idx):
        i, j, k = idx
        acc: Dict[int, int] = {}
        for (a, b), (c,), s in rows[deg[i] & 1 | (deg[j] & 1) << 1 | (deg[k] & 1) << 2]:
            br_c = br[idx[c]]
            for t, v in br[idx[b]][idx[a]]:
                v *= s
                for u, w in br_c[t]:
                    acc[u] = acc.get(u, 0) + v * w
        return acc

    return evaluate


# ---------------------------------------------------------------------------
# the sweep loop


Block = Tuple[Iterable, object, object, object]  # (tuples, prune, evaluate, witness)


def _drive(name: str, blocks: Iterable[Block]) -> CheckReport:
    """Run a sweep's blocks in order and report on the first tuple that fails.

    Each block gives its tuple source, `prune(idx)` (true: count the tuple
    as trivial and skip it), `evaluate(idx)` (the identity's value, a dict
    that is zero when every coefficient is) and `witness(idx, value)`.
    """
    checked = trivial = 0
    for tuples, prune, evaluate, witness in blocks:
        for idx in tuples:
            if prune(idx):
                trivial += 1
                continue
            checked += 1
            acc = evaluate(idx)
            if any(acc.values()):
                return CheckReport(name, False, checked, trivial, witness(idx, acc))
    return CheckReport(name, True, checked, trivial, None)


# ---------------------------------------------------------------------------
# Schouten identity sweeps


def schouten_antisymmetry(
    ctx: VarContext, *, poly_degree: int = 2, mv_degree: int = 3
) -> CheckReport:
    """[a,b] = -(-1)^{(|a|-1)(|b|-1)}[b,a] over all basis pairs."""
    pool = _sweep_pool(ctx, poly_degree, mv_degree)
    deg, lim = pool.deg, ctx.n + 1
    br = pool.by_right(pool.bracket)

    def evaluate(idx):
        i, j = idx
        acc = dict(br[j][i])
        flip = -1 if ((deg[i] - 1) * (deg[j] - 1)) & 1 else 1
        for t, c in br[i][j]:
            acc[t] = acc.get(t, 0) + flip * c
        return acc

    tuples = itertools.combinations_with_replacement(range(len(pool.els)), 2)
    prune = lambda idx: deg[idx[0]] + deg[idx[1]] > lim  # noqa: E731
    return _drive("schouten-antisymmetry", [(tuples, prune, evaluate, pool.witness)])


def schouten_jacobi(
    ctx: VarContext, *, poly_degree: int = 2, mv_degree: int = 3
) -> CheckReport:
    """Cyclic graded Jacobi over all basis triples (shifted-degree signs)."""
    pool = _sweep_pool(ctx, poly_degree, mv_degree)
    deg, lim = pool.deg, ctx.n + 2
    # [[a,b],c] (-1)^{(|a|-1)(|c|-1)} and its two cyclic shifts
    cyclic = (((0, 1), (2,)), ((1, 2), (0,)), ((2, 0), (1,)))
    rows = [
        [(xy, z, -1 if not (par >> xy[0] | par >> z[0]) & 1 else 1) for xy, z in cyclic]
        for par in range(8)
    ]
    tuples = itertools.combinations_with_replacement(range(len(pool.els)), 3)
    prune = lambda idx: deg[idx[0]] + deg[idx[1]] + deg[idx[2]] > lim  # noqa: E731
    return _drive("schouten-jacobi", [(tuples, prune, _nested_brackets(pool, rows), pool.witness)])


def schouten_leibniz(
    ctx: VarContext, *, poly_degree: int = 2, mv_degree: int = 3
) -> CheckReport:
    """[a, b^c] = [a,b]^c + (-1)^{(|a|-1)|b|} b^[a,c] over basis triples."""
    pool = _sweep_pool(ctx, poly_degree, mv_degree)
    deg, lim = pool.deg, ctx.n + 1
    ids = range(len(pool.els))
    wd = _Table(lambda x: _Table(functools.partial(pool.wedge, x)))  # wd[x][y] = x^y
    pairs = list(itertools.combinations_with_replacement(ids, 2))

    def row(i: int) -> Block:
        """The tuples (a, b, c) of one a, enumerated as the pairs (b, c)."""
        br_a = _Table(functools.partial(pool.bracket, i))  # [a, .], for this row only
        lim_a = lim - deg[i]
        # [a, b^c] - [a,b]^c - (-1)^{(|a|-1)|b|} b^[a,c], the last sign by b
        sign = [1 if ((deg[i] - 1) * deg[j]) & 1 else -1 for j in ids]

        def evaluate(jk):
            j, k = jk
            acc: Dict[int, int] = {}
            wd_j = wd[j]
            for t, c in wd_j[k]:
                for u, d in br_a[t]:
                    acc[u] = acc.get(u, 0) + c * d
            for t, c in br_a[j]:
                for u, d in wd[t][k]:
                    acc[u] = acc.get(u, 0) - c * d
            s = sign[j]
            for t, c in br_a[k]:
                c *= s
                for u, d in wd_j[t]:
                    acc[u] = acc.get(u, 0) + c * d
            return acc

        return (
            pairs,
            lambda jk: deg[jk[0]] + deg[jk[1]] > lim_a,
            evaluate,
            lambda jk, acc: pool.witness((i,) + jk, acc),
        )

    return _drive("schouten-leibniz", (row(i) for i in ids))


# ---------------------------------------------------------------------------
# contraction-cochain lemma sweeps


def _monomial_forms(
    fc: FastCtx, form_degree_max: int, coeff_degree: int, *, min_degree: int = 0
) -> List[Tuple[int, Exponents, int]]:
    """(coframe mask, coefficient exponents, form degree), canonical order."""
    return list(basis_keys(fc.n, coeff_degree, range(min_degree, form_degree_max + 1)))


def _lemma_pool(
    ctx: VarContext, fc: FastCtx, tuple_poly_degree: int, mv_degree: int
) -> Tuple[_Pool, int]:
    """Frame elements first, then the non-constant (dressed) elements.

    Returns the pool and the count of pure-frame elements; tuples built
    from it carry at most one dressed slot.
    """
    cap = range(min(mv_degree, fc.n) + 1)
    frames = sweep_elements(fc, 0, cap)
    dressed = [el for el in sweep_elements(fc, tuple_poly_degree, cap) if any(el.exps)]
    return _Pool(ctx.names, fc, frames + dressed), len(frames)


def _lemma_index_tuples(
    n_frames: int, n_dressed: int, arity: int
) -> Iterator[Tuple[int, ...]]:
    """All-frame index tuples, then tuples with exactly one dressed slot.

    Complete for the identities swept here: both sides are graded-symmetric
    cochains whose total differential-operator order across all slots is at
    most one (each summand applies the bracket exactly once), and such
    operators are determined by values on tuples with at most one
    non-constant slot.
    """
    frame_ids = range(n_frames)
    if arity == 0:
        yield ()
        return
    yield from itertools.combinations_with_replacement(frame_ids, arity)
    for d in range(n_frames, n_frames + n_dressed):
        for rest in itertools.combinations_with_replacement(frame_ids, arity - 1):
            yield (d,) + rest


@functools.lru_cache(maxsize=None)
def _differential_rows(e: int):
    """The signed plans of [m, phi(alpha)] for a form of degree e >= 1.

    Inner rows (subset, (rest,), s): s m(phi(alpha)(subset), x_rest), with
    m's sign (-1)^{|t|-1} for |t| = sum of the subset's degrees - e.  Outer
    rows ((x, y), rest, s): s phi(alpha)(m(x_x, x_y), rest), with m's sign
    (-1)^{|x_x|-1} and the outer sign -(-1)^(e-2).
    """
    outer = 1 if e & 1 else -1
    inner = _signed_plan(e + 1, e, lambda par, t: 1 if sum(par >> q for q in t) + e & 1 else -1)
    pairs = _signed_plan(e + 1, 2, lambda par, t: outer if par >> t[0] & 1 else -outer)
    return inner, pairs


def _differential_of_phi(
    pool: _Pool, alpha: _Packed, br: _Packed, plans: Optional[_Plans] = None
):
    """evaluate(idx): [m, phi(alpha)] on the unit terms idx, for a one-term
    form alpha, given its contraction table and `pool.packed(pool.bracket, 2)`,
    and the sweep's plan store if it keeps one (see `_kernel`)."""
    if alpha.k == 0:  # m(f, a) for the function f, of degree 0: sign -1
        ((_, exps),) = alpha.form
        f = pool.intern((0, exps))
        return lambda idx: {u: -d for u, d in br[f << _SHIFT | idx[0]]}
    inner, pairs = _differential_rows(alpha.k)
    return _kernel(pool, plans, (inner, alpha, br), (pairs, br, alpha))


def lemma_differential(
    ctx: VarContext,
    *,
    form_degree_max: int = 3,
    coeff_degree: int = 2,
    tuple_poly_degree: int = 1,
    mv_degree: int = 3,
) -> CheckReport:
    """[m, phi(alpha)] = phi(d alpha) for every monomial form alpha.

    Monomial forms span all forms within bounds and both sides are linear
    in alpha, so the sweep is complete for the stated bounds.  The tuple
    family is complete for total operator order <= 1 (see
    _lemma_index_tuples); grading and coverage prunes skip structurally
    zero tuples.
    """
    _refuse_negative(
        form_degree_max=form_degree_max,
        coeff_degree=coeff_degree,
        tuple_poly_degree=tuple_poly_degree,
        mv_degree=mv_degree,
    )
    fc = FastCtx(ctx.n)
    pool, n_frames = _lemma_pool(ctx, fc, tuple_poly_degree, mv_degree)
    n_dressed = len(pool.els) - n_frames
    br = pool.packed(pool.bracket, 2)
    forms = _monomial_forms(fc, form_degree_max, coeff_degree)
    plans = _plan_store(pool, [mask for mask, _, _ in forms])

    def block(mask: int, exps: Exponents, e: int) -> Block:
        dform = d_form(DiffForm._wrap(ctx, {(mask, exps): 1}))._tm
        alpha = pool.contraction({(mask, exps): 1}, e)
        differential = _differential_of_phi(pool, alpha, br, plans)
        dphi = pool.contraction(dform, e + 1)

        def evaluate(idx):
            acc = differential(idx)
            if dform:  # every tuple is new, so phi(d alpha) is not memoised
                for u, d in dphi.fill(_pack(idx)):
                    acc[u] = acc.get(u, 0) - d
            return acc

        label = f"form {_mono_label(ctx.names, exps)}*dx({fc.bits[mask]}): "
        return (
            _lemma_index_tuples(n_frames, n_dressed, e + 1),
            _graded_prune(pool, e + 1, mask),
            evaluate,
            lambda idx, acc: label + pool.witness(idx, acc),
        )

    return _drive("lemma-differential", (block(*f) for f in forms))


def lemma_bracket_vanishes(
    ctx: VarContext,
    *,
    form_degree_max: int = 3,
    coeff_degree: int = 0,
    mv_degree: int = 3,
) -> CheckReport:
    """[phi(alpha), phi(beta)] = 0 for all monomial form pairs.

    Both cochains contract their arguments pointwise and never
    differentiate anything, so values on all-frame tuples determine the
    bracket completely, and polynomial coefficients on the forms multiply
    through the contractions unchanged — checking unit coefficients
    (coeff_degree=0) covers every dressed pair exactly.  Larger
    coeff_degree sweeps the dressed pairs explicitly where affordable.
    """
    _refuse_negative(form_degree_max=form_degree_max, coeff_degree=coeff_degree, mv_degree=mv_degree)
    fc = FastCtx(ctx.n)
    n = ctx.n
    pool = _Pool(ctx.names, fc, sweep_elements(fc, 0, range(min(mv_degree, n) + 1)))
    forms = _monomial_forms(fc, form_degree_max, coeff_degree, min_degree=1)
    phis = [pool.contraction({(cof, exps): 1}, e) for cof, exps, e in forms]
    plans = _plan_store(pool, [cof for cof, _, _ in forms])
    # (r, k, sign) -> signed rows, built once for this sweep and shared by its blocks
    rows = functools.lru_cache(maxsize=None)(lambda r, k, s: _signed_plan(r, k, lambda par, t: s))

    def block(fi: int, fj: int) -> Block:
        (amask, aexps, ea), (bmask, bexps, eb) = forms[fi], forms[fj]
        r = ea + eb - 1
        sign = -1 if ((ea - 2) * (eb - 2)) & 1 else 1
        # phi(alpha)(phi(beta)(subset), rest) - sign phi(beta)(phi(alpha)(subset), rest)
        evaluate = _kernel(
            pool,
            plans,
            (rows(r, eb, 1), phis[fj], phis[fi]),
            (rows(r, ea, -sign), phis[fi], phis[fj]),
        )
        la = f"{_mono_label(ctx.names, aexps)}*dx({fc.bits[amask]})"
        lb = f"{_mono_label(ctx.names, bexps)}*dx({fc.bits[bmask]})"
        label = f"forms {la}, {lb}: "
        return (
            itertools.combinations_with_replacement(range(len(pool.els)), r),
            _graded_prune(pool, ea + eb, amask | bmask),
            evaluate,
            lambda idx, acc: label + pool.witness(idx, acc),
        )

    pairs = itertools.combinations_with_replacement(range(len(forms)), 2)
    return _drive("lemma-bracket", (block(fi, fj) for fi, fj in pairs))


def lemma_pairing_on_vectors(ctx: VarContext, *, coeff_degree: int = 2) -> CheckReport:
    """phi(g dx_i)(h theta_j) = g*h*delta_ij over the monomial bases."""
    _refuse_negative(coeff_degree=coeff_degree)
    fc = FastCtx(ctx.n)
    n = ctx.n
    monos = list(monomials_upto(n, coeff_degree))

    def evaluate(idx):
        i, g, j, h = idx
        val = phi_eval(fc, {(1 << i, g): 1}, [{((1 << j), h): 1}])
        expect: TermMap = {(0, fc.eadd(g, h)): 1} if i == j else {}
        tm_add_into(val, expect, -1)
        return val

    tuples = itertools.product(range(n), monos, range(n), monos)
    witness = lambda idx, acc: f"dx{idx[0]} against theta{idx[2]} with monos {idx[1]},{idx[3]}"  # noqa: E731
    return _drive("lemma-pairing", [(tuples, lambda idx: False, evaluate, witness)])


# ---------------------------------------------------------------------------
# reduced homotopy-relation sweeps (binary bracket l2 = m, ternary l3 = phi(H))


def linfty_jacobi(
    ctx: VarContext, H: DiffForm, *, poly_degree: int = 2, mv_degree: int = 3
) -> CheckReport:
    """[l2, l2] = 0 on basis triples (H enters the other relations only).

    m(m(x, y), z) on unit terms, with m(a, b) = (-1)^{|a|-1}[a, b]: the
    nested brackets of `schouten_jacobi` under other signs.
    """
    pool = _sweep_pool(ctx, poly_degree, mv_degree)
    # m(m(x, y), z) = (-1)^{|x|-1} (-1)^{|x|+|y|} [[x, y], z] = (-1)^{|y|-1} [[x, y], z]
    rows = _signed_plan(3, 2, lambda par, t: 2 if par >> t[1] & 1 else -2)
    tuples = itertools.combinations_with_replacement(range(len(pool.els)), 3)
    evaluate = _nested_brackets(pool, rows)
    return _drive("linfty-jacobi", [(tuples, _graded_prune(pool, 2), evaluate, pool.witness)])


def _coframe_need(H: DiffForm) -> int:
    """Coverage requirement: the coframe of a one-term form, else none (0)."""
    masks = {m for m, _ in H._tm}
    return masks.pop() if len(masks) == 1 else 0


def _ternary_setup(ctx: VarContext, H: DiffForm, poly_degree: int, mv_degree: int):
    if form_degree(H) not in (None, 3):
        raise ValueError("the ternary operation takes a 3-form")
    pool = _sweep_pool(ctx, poly_degree, mv_degree)
    return pool, pool.contraction(H._tm, 3), _coframe_need(H)


def linfty_mixed(
    ctx: VarContext, H: DiffForm, *, poly_degree: int = 1, mv_degree: int = 3
) -> CheckReport:
    """[l2, l3] = 0 on basis 4-tuples; fails when H is not closed."""
    pool, phi, need = _ternary_setup(ctx, H, poly_degree, mv_degree)
    # l2 . l3 + l3 . l2 (the bracket sign is -(-1)^{1*1} = +), with
    # m(t, x) = (-1)^{|t|-1}[t, x] for |t| = |x_a| + |x_b| + |x_c| - 3 and
    # m(x_a, x_b) = (-1)^{|x_a|-1}[x_a, x_b]
    rows3 = _signed_plan(4, 3, lambda par, t: -1 if sum(par >> q for q in t) & 1 else 1)
    rows2 = _signed_plan(4, 2, lambda par, t: 1 if par >> t[0] & 1 else -1)
    br = pool.packed(pool.bracket, 2)
    evaluate = _kernel(pool, _plan_store(pool), (rows3, phi, br), (rows2, br, phi))
    tuples = itertools.combinations_with_replacement(range(len(pool.els)), 4)
    return _drive("linfty-mixed", [(tuples, _graded_prune(pool, 4, need), evaluate, pool.witness)])


def linfty_ternary(
    ctx: VarContext, H: DiffForm, *, poly_degree: int = 0, mv_degree: int = 3
) -> CheckReport:
    """[l3, l3] = 0 on basis 5-tuples."""
    pool, phi, need = _ternary_setup(ctx, H, poly_degree, mv_degree)
    rows = _signed_plan(5, 3, lambda par, t: 2)
    evaluate = _kernel(pool, _plan_store(pool), (rows, phi, phi))
    tuples = itertools.combinations_with_replacement(range(len(pool.els)), 5)
    return _drive("linfty-ternary", [(tuples, _graded_prune(pool, 6, need), evaluate, pool.witness)])
