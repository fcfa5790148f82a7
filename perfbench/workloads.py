"""The benchmark's workloads.

Each workload is one certification job: ``setup`` builds and certifies the
input modules, ``verdict`` grows the families and runs the check suites.
``verdict`` returns, per stage, the check entries as (name, indices, ok,
witness); ``expected.json`` holds how many entries each stage must give
and their verdict.

The seed picks one variant of a workload's parameters.  Every variant gives
the same check count and verdicts, and the variants of a workload do nearly
the same work: their traced scalar operations, matrix entry products and
kernel calls agree within 5%.  Variants that certify but do visibly more
work are left out: ``W_3(q) (x) W_3(q^5)`` raises the largest q-degree from
56 to 70 and the pgcd calls by 9%, and the rank-one CPU time grows about
twelvefold from ``W_1(q^-2)`` to ``W_1(q^4)``, so the rank-one seed never
moves ``a``.
"""

from __future__ import annotations

import random


def _p(text):
    from qonsager.scalars import parse_scalar

    return parse_scalar(text)


def _entries(report):
    return [(e.name, e.indices, e.ok, e.witness) for e in report.entries]


# -- rank1-shift-T13: W_1(q^2), T = R = 13 -----------------------------------------


def _rank1_setup(v):
    from qonsager.ranka import build_vector_evaluation

    return build_vector_evaluation(1, _p(v["a"]))


def _rank1_verdict(v, module):
    from qonsager.ranka import RankNParams, generate_rankn_family, rankn_spectral_check

    params = RankNParams([_p(x) for x in v["c"]], [_p(x) for x in v["s"]])
    fam = generate_rankn_family(module, params, R=13, T=13)
    rep, _ = rankn_spectral_check(fam, T=13)
    return {"spectral": _entries(rep)}


# -- tensor16-A3: W_3(a) (x) W_3(b), T = R = 3 -------------------------------------


def _tensor16_setup(v):
    from qonsager.ranka import build_vector_evaluation

    left, right = (build_vector_evaluation(3, _p(a)) for a in v["a"])
    return left.tensor(right)


def _tensor16_verdict(v, module):
    from qonsager.ranka import RankNParams, generate_rankn_family, verify_grel

    fam = generate_rankn_family(module, RankNParams([1, 1, 1, 1]), R=3, T=3)
    return {"grel": _entries(verify_grel(fam, rwin=1, mmax=2))}


# -- rank1-tensor54-num: V_2 (x) V_2 (x) V_2 (x) V_1 at q0 = 1.3, T = R = 8 ---------


def _tensor54_setup(v):
    from qonsager.loopsl2 import EvalParams, build_evaluation, tensor
    from qonsager.scalars import NumericField

    field = NumericField(1.3)
    factors = [build_evaluation(EvalParams(n, _p(a)), window=1, T=8, field=field)
               for n, a in zip((2, 2, 2, 1), v["a"])]
    module = factors[0]
    for factor in factors[1:]:
        module = tensor(module, factor)
    return module


def _tensor54_verdict(v, module):
    from qonsager.onsager import OnsagerParams, generate_family, verify_presentation
    from qonsager.spectra import factorization_check

    params = OnsagerParams(_p("q^2"), _p("q^-1"), 0, 0)
    fam = generate_family(params, module, T=8, R=8)
    pres = verify_presentation(fam, rwin=2, mmax=3)
    fact, _ = factorization_check(fam, 8)
    return {"presentation": _entries(pres), "factorization": _entries(fact)}


# -- rank5-word: T_omega_i(B_i) against A_{i,-1} on W_5(1) -------------------------


def _rank5_setup(v):
    from qonsager.ranka import build_vector_evaluation

    return build_vector_evaluation(5, _p("1"))


def _rank5_verdict(v, module):
    from qonsager.ranka import (BExpr, RankNParams, apply_word, build_Ai_minus1,
                                evaluate_bexpr, omega_word)

    params = RankNParams([1] * 6)
    entries = []
    for i in v["nodes"]:
        word = evaluate_bexpr(apply_word(omega_word(i, 5), BExpr.gen(5, i)), module, params)
        bracket = evaluate_bexpr(build_Ai_minus1(i, 5), module, params)
        entries.append(("word_equals_bracket", (i,), word == bracket, None))
    return {"word": entries}


WORKLOADS = {
    "rank1-shift-T13": {
        # swapping c keeps the kernel calls within 0.2%
        "variants": [
            {"a": "q^2", "c": ["q^2", "q^-1"], "s": ["1", "q"]},
            {"a": "q^2", "c": ["q^-1", "q^2"], "s": ["1", "q"]},
        ],
        "setup": _rank1_setup,
        "verdict": _rank1_verdict,
    },
    "tensor16-A3": {
        "variants": [{"a": ["q", "q^3"]}, {"a": ["q^3", "q"]}],
        "setup": _tensor16_setup,
        "verdict": _tensor16_verdict,
    },
    "rank1-tensor54-num": {
        "variants": [{"a": ["q", "q^3", "q^-2", "q^5"]}, {"a": ["q", "q^5", "q^-2", "q^3"]}],
        "setup": _tensor54_setup,
        "verdict": _tensor54_verdict,
    },
    "rank5-word": {
        # nodes 5 and 4 mirror nodes 1 and 2 under the diagram flip
        "variants": [{"nodes": [1, 2]}, {"nodes": [5, 4]}],
        "setup": _rank5_setup,
        "verdict": _rank5_verdict,
    },
}


def variant(name, seed):
    """The parameters the seed picks for a workload."""
    variants = WORKLOADS[name]["variants"]
    return variants[random.Random(seed).randrange(len(variants))]
