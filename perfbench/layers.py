"""The program's layers, how the tracer hooks into them, and the per-layer
metrics read from a traced job.

Layers are the modules of ``qonsager``, bottom up: the integer-polynomial
kernel, Q(q) scalars, matrices, series and Pade, loop-sl2 modules, rank-one
families, spectra, and rank-N type A.  The tracer wraps the public
functions and public methods of each layer module and rebinds every name
under which a ``qonsager`` module refers to them, so that ``pgcd`` is
traced whether ``scalars`` or ``series`` calls it.  Nothing under ``src/``
is edited.  Truth tests and hashing (``__bool__``, ``__hash__``) are left
unwrapped: they are the most frequent calls and do no arithmetic.

Per-layer metrics describe the verdict phase of the job, except the two
``*.build.s`` metrics, which describe its set-up phase, where the input
modules are built.
"""

from __future__ import annotations

import importlib
import inspect
import sys

LAYERS = (
    ("kernel", "qonsager._kernel"),
    ("scalars", "qonsager.scalars"),
    ("linmat", "qonsager.linmat"),
    ("series", "qonsager.series"),
    ("loopsl2", "qonsager.loopsl2"),
    ("onsager", "qonsager.onsager"),
    ("spectra", "qonsager.spectra"),
    ("ranka", "qonsager.ranka"),
)

KERNEL_NAMES = ("pnorm", "padd", "psub", "pneg", "pmul", "pmul_int", "pshift",
                "pcontent", "pprim", "pdiv_exact", "prem", "pgcd")

# Operator methods wrapped besides the public ones.
OPERATORS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__matmul__", "__eq__",
))

# Callables that feed a named metric: (layer, qualified name) -> group.
METERED = {
    ("kernel", "pgcd"): "kernel.pgcd",
    ("linmat", "Matrix.__matmul__"): "linmat.matmul",
    ("series", "pade_reconstruct"): "series.pade",
    ("series", "solve_linear"): "series.solve_linear",
    ("loopsl2", "build_evaluation"): "loopsl2.build",
    ("loopsl2", "tensor"): "loopsl2.build",
    ("loopsl2", "extend_loop_data"): "loopsl2.build",
    ("loopsl2", "verify_drinfeld_relations"): "loopsl2.verify",
    ("loopsl2", "kacmoody_from_drinfeld"): "loopsl2.verify",
    ("loopsl2", "verify_aux_identities"): "loopsl2.verify",
    ("onsager", "generate_family"): "onsager.generate",
    ("onsager", "verify_presentation"): "onsager.verify",
    ("onsager", "verify_qdolangrady"): "onsager.verify",
    ("onsager", "tau_dual_check"): "onsager.verify",
    ("onsager", "rationality_check"): "onsager.verify",
    ("spectra", "factorization_check"): "spectra.verify",
    ("spectra", "grouplike_check"): "spectra.verify",
    ("spectra", "coproduct_aplus_check"): "spectra.verify",
    ("spectra", "drf_reports"): "spectra.verify",
    ("ranka", "build_vector_evaluation"): "ranka.build",
    ("ranka", "AffineModule.tensor"): "ranka.build",
    ("ranka", "generate_rankn_family"): "ranka.generate",
    ("ranka", "apply_word"): "ranka.words",
    ("ranka", "evaluate_bexpr"): "ranka.eval",
    ("ranka", "verify_grel"): "ranka.grel",
    ("ranka", "rankn_spectral_check"): "ranka.spectral",
}

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("kernel.calls", "count"),
    ("kernel.s", "s"),
    ("kernel.pgcd.calls", "count"),
    ("kernel.pgcd.s", "s"),
    ("kernel.pgcd.trivial_ratio", "ratio"),
    ("kernel.pgcd.monomial_ratio", "ratio"),
    ("kernel.max_qdeg", "degree"),
    ("kernel.max_coeff_bits", "bits"),
    ("scalars.ops", "count"),
    ("scalars.self_s", "s"),
    ("linmat.matmul.calls", "count"),
    ("linmat.matmul.mults", "count"),
    ("linmat.matmul.self_s", "s"),
    ("linmat.self_s", "s"),
    ("series.pade.calls", "count"),
    ("series.pade.closed_ratio", "ratio"),
    ("series.pade.s", "s"),
    ("series.solve_linear.calls", "count"),
    ("series.self_s", "s"),
    ("loopsl2.build.s", "s"),
    ("loopsl2.verify.s", "s"),
    ("loopsl2.self_s", "s"),
    ("onsager.generate.s", "s"),
    ("onsager.verify.s", "s"),
    ("onsager.self_s", "s"),
    ("spectra.verify.s", "s"),
    ("spectra.self_s", "s"),
    ("ranka.build.s", "s"),
    ("ranka.generate.s", "s"),
    ("ranka.words.s", "s"),
    ("ranka.words.terms", "count"),
    ("ranka.eval.s", "s"),
    ("ranka.grel.s", "s"),
    ("ranka.spectral.s", "s"),
    ("ranka.self_s", "s"),
    ("trace.setup_s", "s"),
    ("trace.verdict_s", "s"),
    ("trace.overhead_s", "s"),
)


# -- observers: counters read at the call boundary --------------------------------


def _poly(x):
    """The coefficient list inside a kernel argument or result, if any."""
    if isinstance(x, tuple):  # pprim returns (content, primitive part)
        x = x[-1]
    return x if isinstance(x, list) and x else None


def _kernel_observer(tracer):
    def observe(args, result):
        for x in (*args, result):
            p = _poly(x)
            if p is not None:
                tracer.raise_to("kernel.max_qdeg", len(p) - 1)
                tracer.raise_to("kernel.max_coeff_bits", max(max(p), -min(p)).bit_length())
    return observe


def _pgcd_observer(tracer):
    shape = _kernel_observer(tracer)

    def observe(args, result):
        shape(args, result)
        if any(len(p) - p.count(0) == 1 for p in args):
            tracer.count("kernel.pgcd.monomial")
        if len(result) <= 1:
            tracer.count("kernel.pgcd.trivial")
    return observe


def _matmul_observer(tracer):
    def observe(args, result):
        if result is not NotImplemented:
            a, b = args
            tracer.count("linmat.matmul.mults", a.n * a.m * b.m)
    return observe


def _pade_observer(tracer):
    def observe(args, result):
        if result is not None:
            tracer.count("series.pade.closed")
    return observe


def _words_observer(tracer):
    def observe(args, result):
        tracer.count("ranka.words.terms", len(result.terms))
    return observe


OBSERVERS = {
    "kernel.pgcd": _pgcd_observer,
    "linmat.matmul": _matmul_observer,
    "series.pade": _pade_observer,
    "ranka.words": _words_observer,
}


# -- installation -----------------------------------------------------------------


def _targets(layer, module):
    """(owner, name, qualified name) of every callable the layer exposes."""
    if layer == "kernel":
        for name in KERNEL_NAMES:
            yield module, name, name
        return
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield module, name, name
        elif inspect.isclass(obj):
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_") and attr not in OPERATORS:
                    continue
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    yield obj, attr, f"{name}.{attr}"


def install(tracer):
    """Wrap every layer of ``qonsager`` in ``tracer``; undo with
    ``tracer.restore()``."""
    modules = [importlib.import_module(m) for _, m in LAYERS]
    package = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "qonsager" or name.startswith("qonsager."))]
    functions = {}
    for (layer, _), module in zip(LAYERS, modules):
        for owner, name, qual in _targets(layer, module):
            group = METERED.get((layer, qual))
            observe = None
            if group in OBSERVERS:
                observe = OBSERVERS[group](tracer)
            elif layer == "kernel":
                observe = _kernel_observer(tracer)
            if inspect.isclass(owner):
                tracer.patch_method(owner, name, layer, group, group is not None, observe)
            else:
                fn = vars(owner)[name]
                functions[id(fn)] = (fn, tracer.wrap(fn, layer, group, group is not None, observe))
    # rebind each wrapped function under every name a package module uses for it
    for module in package:
        for name, value in list(vars(module).items()):
            hit = functions.get(id(value))
            if hit is not None and hit[0] is value:
                tracer.rebind(module, name, hit[1])


# -- metrics ----------------------------------------------------------------------


def snapshot(tracer):
    """A JSON-ready copy of the tracer's aggregates."""
    return {
        "groups": {name: {"layer": g.layer, "calls": g.calls, "total_s": g.total_s,
                          "self_s": g.self_s}
                   for name, g in tracer.groups.items()},
        "counters": dict(tracer.counters),
    }


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(setup, verdict, setup_s, verdict_s):
    """Per-layer metrics from the set-up and verdict snapshots of one job
    (``trace.overhead_s`` is filled in by the caller, which knows the
    untraced time)."""
    groups, counters = verdict["groups"], verdict["counters"]

    def grp(name, key, snap=verdict):
        g = snap["groups"].get(name)
        return g[key] if g else 0

    def layer(name, key):
        return sum(g[key] for g in groups.values() if g["layer"] == name)

    pgcd_calls = grp("kernel.pgcd", "calls")
    pade_calls = grp("series.pade", "calls")
    values = {
        "kernel.calls": layer("kernel", "calls"),
        "kernel.s": layer("kernel", "total_s"),
        "kernel.pgcd.calls": pgcd_calls,
        "kernel.pgcd.s": grp("kernel.pgcd", "total_s"),
        "kernel.pgcd.trivial_ratio": _ratio(counters.get("kernel.pgcd.trivial", 0), pgcd_calls),
        "kernel.pgcd.monomial_ratio": _ratio(counters.get("kernel.pgcd.monomial", 0), pgcd_calls),
        "kernel.max_qdeg": counters.get("kernel.max_qdeg", 0),
        "kernel.max_coeff_bits": counters.get("kernel.max_coeff_bits", 0),
        "scalars.ops": layer("scalars", "calls"),
        "linmat.matmul.calls": grp("linmat.matmul", "calls"),
        "linmat.matmul.mults": counters.get("linmat.matmul.mults", 0),
        "linmat.matmul.self_s": grp("linmat.matmul", "self_s"),
        "series.pade.calls": pade_calls,
        "series.pade.closed_ratio": _ratio(counters.get("series.pade.closed", 0), pade_calls),
        "series.pade.s": grp("series.pade", "total_s"),
        "series.solve_linear.calls": grp("series.solve_linear", "calls"),
        "loopsl2.build.s": grp("loopsl2.build", "total_s", setup),
        "loopsl2.verify.s": grp("loopsl2.verify", "total_s"),
        "onsager.generate.s": grp("onsager.generate", "total_s"),
        "onsager.verify.s": grp("onsager.verify", "total_s"),
        "spectra.verify.s": grp("spectra.verify", "total_s"),
        "ranka.build.s": grp("ranka.build", "total_s", setup),
        "ranka.generate.s": grp("ranka.generate", "total_s"),
        "ranka.words.s": grp("ranka.words", "total_s"),
        "ranka.words.terms": counters.get("ranka.words.terms", 0),
        "ranka.eval.s": grp("ranka.eval", "total_s"),
        "ranka.grel.s": grp("ranka.grel", "total_s"),
        "ranka.spectral.s": grp("ranka.spectral", "total_s"),
        "trace.setup_s": setup_s,
        "trace.verdict_s": verdict_s,
    }
    for name in ("scalars", "linmat", "series", "loopsl2", "onsager", "spectra", "ranka"):
        values[f"{name}.self_s"] = layer(name, "self_s")
    return values
