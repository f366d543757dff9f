"""Per-layer metrics for the traced run.

Two instruments, each in its own pass over the workload so that neither
distorts the other:

* ``Counters`` wraps public entry points from outside the program
  (module attributes are swapped for timing wrappers and restored after
  the pass).  It gives inclusive times and data counts: terms produced,
  sweep sizes, memo hit rates, linear-system shape and rank.
* ``self_times`` reads a ``cProfile`` pass.  Self time is summed per
  gdcalc module; the standard-library ``fractions`` module is its own row;
  built-ins and other standard-library code (argparse included) are charged
  to the module that called them.  Call counts come from the profiler,
  which counts every call exactly.

A target that a later version of the program renames or removes is skipped
and its metrics read 0.
"""
from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

LAYERS = (
    "fastterms", "fastsweep", "hochschild", "exactcore", "fractions", "linalg",
    "polyvec", "chevalley", "twistcheck", "deform", "cli",
)

# metric name -> (module file relative to the package, function name)
PROFILED_CALLS = {
    "fastterms.schouten_terms.calls": ("_fastterms.py", "schouten_terms"),
    "fastterms.phi_eval.calls": ("_fastterms.py", "phi_eval"),
    "hochschild.brace.calls": ("hochschild.py", "brace"),
    "hochschild.hoch_delta.calls": ("hochschild.py", "hoch_delta"),
    "exactcore.poly_mul.calls": ("exactcore.py", "poly_mul"),
    "exactcore.poly_add.calls": ("exactcore.py", "poly_add"),
    "linalg.gaussian_solve.calls": ("_linalg.py", "gaussian_solve"),
    "polyvec.schouten.calls": ("polyvec.py", "schouten"),
    "chevalley.evaluate.calls": ("chevalley.py", "evaluate"),
    "twistcheck.mc_defect.calls": ("twistcheck.py", "mc_defect"),
    "deform.gauge_flow.calls": ("deform.py", "gauge_flow"),
    "cli.commands": (os.path.join("cli", "__init__.py"), "main"),
}

# metric name -> (module, attribute) whose inclusive time the wrappers sum
INCLUSIVE = {
    "hochschild.brace.s": ("gdcalc.hochschild", "brace"),
    "hochschild.hoch_delta.s": ("gdcalc.hochschild", "hoch_delta"),
    "linalg.gaussian_solve.s": ("gdcalc._linalg", "gaussian_solve"),
    "polyvec.schouten.s": ("gdcalc.polyvec", "schouten"),
    "chevalley.evaluate.s": ("gdcalc.chevalley", "evaluate"),
    "deform.mc_solve.s": ("gdcalc.deform", "mc_solve"),
    "deform.gauge_flow.s": ("gdcalc.deform", "gauge_flow"),
    "deform.gauge_equivalent.s": ("gdcalc.deform", "gauge_equivalent"),
    "cli.docfmt.parse_s": ("gdcalc.cli.docfmt", "parse_document"),
    "cli.docfmt.serialize_s": ("gdcalc.cli.docfmt", "serialize_document"),
}

SWEEPS = (
    "schouten_antisymmetry", "schouten_jacobi", "schouten_leibniz",
    "lemma_differential", "lemma_bracket_vanishes", "lemma_pairing_on_vectors",
    "linfty_jacobi", "linfty_mixed", "linfty_ternary",
)

# memoized lookups of the sweep engine: (class, method, memo attribute)
MEMOS = (("_Pool", "bracket", "_brackets"), ("_Pool", "m_pair", "_mpairs"), ("_PhiSubsetCache", "value", "store"))


def _term_count(op) -> int:
    return sum(len(p) for p in getattr(op, "terms", {}).values())


class Counters:
    """Timing and counting wrappers around gdcalc entry points, for one pass."""

    def __init__(self):
        self.seconds: Dict[str, float] = {name: 0.0 for name in INCLUSIVE}
        self.n: Dict[str, int] = {
            "terms_out": 0, "checked": 0, "trivial": 0, "memo_hits": 0, "memo_lookups": 0,
            "entries": 0, "nonzeros": 0, "rank": 0, "rank_cap": 0,
        }
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _swap_everywhere(self, orig, wrapped) -> None:
        """Replace every gdcalc module binding of ``orig`` (direct imports included)."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "gdcalc" or name.startswith("gdcalc.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, orig))

    def _wrap(self, module: str, attr: str, after: Callable = None, metric: str = None) -> None:
        mod = sys.modules.get(module)
        orig = getattr(mod, attr, None) if mod is not None else None
        if not callable(orig):
            return
        seconds = self.seconds
        depth = [0]

        def wrapped(*args, **kwargs):
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                depth[0] -= 1
                if metric is not None and depth[0] == 0:
                    seconds[metric] += time.perf_counter() - t0
            if after is not None:
                after(args, kwargs, out)
            return out

        self._swap_everywhere(orig, wrapped)

    def _wrap_memo(self, cls, method: str, memo: str) -> None:
        orig = getattr(cls, method, None)
        if orig is None:
            return
        n = self.n

        def wrapped(obj, *args):
            before = len(getattr(obj, memo, ()))
            out = orig(obj, *args)
            n["memo_lookups"] += 1
            if len(getattr(obj, memo, ())) == before:
                n["memo_hits"] += 1
            return out

        setattr(cls, method, wrapped)
        self._restore.append((cls, method, orig))

    def install(self) -> None:
        import gdcalc._fastsweep as fs
        import gdcalc._linalg  # noqa: F401  (loaded for the wrapper lookup)
        import gdcalc.cli.docfmt  # noqa: F401
        import gdcalc.deform  # noqa: F401

        n = self.n

        def terms_out(args, kwargs, out):
            n["terms_out"] += _term_count(out)

        def sweep_report(args, kwargs, out):
            n["checked"] += getattr(out, "checked", 0)
            n["trivial"] += getattr(out, "trivial", 0)

        def system(args, kwargs, out):
            rows = args[0] if args else kwargs.get("rows", [])
            ncols = kwargs.get("ncols", args[2] if len(args) > 2 else None)
            if ncols is None:
                ncols = len(rows[0]) if rows else 0
            n["entries"] += len(rows) * ncols
            n["nonzeros"] += sum(1 for row in rows for v in row if v)
            n["rank"] += getattr(out, "rank", 0)
            n["rank_cap"] += min(len(rows), ncols)

        after = {
            "hochschild.brace.s": terms_out,
            "hochschild.hoch_delta.s": terms_out,
            "linalg.gaussian_solve.s": system,
        }
        for metric, (module, attr) in INCLUSIVE.items():
            self._wrap(module, attr, after.get(metric), metric)
        for attr in SWEEPS:
            self._wrap("gdcalc._fastsweep", attr, sweep_report)
        for cls_name, method, memo in MEMOS:
            cls = getattr(fs, cls_name, None)
            if cls is not None:
                self._wrap_memo(cls, method, memo)

    def uninstall(self) -> None:
        while self._restore:
            obj, key, orig = self._restore.pop()
            setattr(obj, key, orig)

    # -- results ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        n = self.n
        out: Dict[str, float] = dict(self.seconds)
        out["hochschild.terms_out"] = n["terms_out"]
        out["fastsweep.checked"] = n["checked"]
        out["fastsweep.trivial_ratio"] = _ratio(n["trivial"], n["checked"] + n["trivial"])
        out["fastsweep.pool_hit_ratio"] = _ratio(n["memo_hits"], n["memo_lookups"])
        out["linalg.entries"] = n["entries"]
        out["linalg.nonzero_ratio"] = _ratio(n["nonzeros"], n["entries"])
        out["linalg.rank_ratio"] = _ratio(n["rank"], n["rank_cap"])
        return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ---------------------------------------------------------------------------
# profiler attribution


def _layer_of(filename: str, package_dir: str):
    """Layer of a source file, 'bench' for this benchmark, None to charge the caller."""
    if filename.startswith("<") or filename == "~":
        return None
    path = os.path.abspath(filename)
    if path.startswith(package_dir + os.sep):
        rel = path[len(package_dir) + 1:]
        if rel.startswith("cli" + os.sep):
            return "cli"
        stem = rel[:-3].lstrip("_") if rel.endswith(".py") else rel
        return stem if stem in LAYERS else "gdcalc"
    if path.startswith(HERE + os.sep):
        return "bench"
    if os.path.basename(path) == "fractions.py":
        return "fractions"
    return None


def self_times(stats: Dict, package_dir: str) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds per layer and the profiled call counts, from ``pstats.Stats.stats``."""
    layer_cache: Dict[str, object] = {}

    def layer(func):
        fn = func[0]
        if fn not in layer_cache:
            layer_cache[fn] = _layer_of(fn, package_dir)
        return layer_cache[fn]

    shares_memo: Dict[Tuple, Dict[str, float]] = {}

    def shares(func, visiting) -> Dict[str, float]:
        """How a function's self time splits over layers, following callers up."""
        own = layer(func)
        if own is not None:
            return {own: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        if func in visiting or func not in stats:
            return {}
        top = not visiting
        callers = stats[func][4]
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[1] for c, edge in callers.items()}
            total = sum(weights.values())
        out: Dict[str, float] = {}
        if total > 0:
            visiting = visiting | {func}
            for caller, w in weights.items():
                for name, s in shares(caller, visiting).items():
                    out[name] = out.get(name, 0.0) + s * w / total
        if top:  # results inside a caller cycle depend on the path taken
            shares_memo[func] = out
        return out

    seconds: Dict[str, float] = {}
    for func, (_, _, tt, _, _) in stats.items():
        split = shares(func, frozenset())
        rest = tt
        for name, s in split.items():
            seconds[name] = seconds.get(name, 0.0) + tt * s
            rest -= tt * s
        if rest > 1e-12:
            seconds["unattributed"] = seconds.get("unattributed", 0.0) + rest

    calls: Dict[str, int] = {}
    for metric, (rel, fname) in PROFILED_CALLS.items():
        path = os.path.join(package_dir, rel)
        calls[metric] = sum(
            v[1] for k, v in stats.items() if k[2] == fname and os.path.abspath(k[0]) == path
        )
    calls["fractions.new.calls"] = sum(
        v[1] for k, v in stats.items() if k[2] == "__new__" and os.path.basename(k[0]) == "fractions.py"
    )
    return seconds, calls
