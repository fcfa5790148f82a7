"""Negative controls: for each check name that the relation suites judge
with ``linmat.relation``, one planted damage that the name must report.

A check that passes on every input certifies nothing.  So each name here
runs twice on a small module, loop data or family: built as it is, where
the name passes, and with one matrix damaged after its build, where its
first failing entry is pinned, index and exact witness.  A damage either
scales a matrix by q or raises one entry by 1; a module or loop data is
read-only, so it is damaged in an uncertified copy (``damage.uncertified``).
The names of the Chevalley and Drinfeld suites run again at q0 = 1.3,
where the same entry fails.

``ranka.verify_braid_relations`` emits ``commute``, ``braid`` and
``seed_word`` entries, each with a control here.  It checks no rotation
pi T_i = T_{i+1} pi: the braid images apply pi by relabelling the seeds,
so the two sides would take the same q-brackets of the same seed
matrices, and no damage to a module or its parameters could fail it.
"""

import pytest
from damage import uncertified

from qonsager import spectra
from qonsager.linmat import Matrix
from qonsager.loopsl2 import (
    AffineModule,
    EvalParams,
    LoopData,
    build_evaluation,
    loop_data,
    tensor,
    verify_affine_presentation,
    verify_aux_identities,
    verify_drinfeld_relations,
)
from qonsager.onsager import OnsagerParams, generate_family, rationality_check
from qonsager.ranka import (
    RankNParams,
    build_vector_evaluation,
    generate_rankn_family,
    rankn_spectral_check,
    verify_braid_relations,
)
from qonsager.scalars import ExactField, NumericField, Q, parse_scalar
from qonsager.spectra import factorization_check, grouplike_check

F = ExactField()


def _damaged(X, how):
    """X scaled by q when how is "scale", else X with entry how = (i, j)
    raised by 1."""
    f = X.field
    if how == "scale":
        return X.scale(f.q)
    i, j = how
    rows = [list(r) for r in X.rows]
    rows[i][j] += f.one
    return Matrix(rows, f)


def _plant(obj, attr, *keys, how):
    """obj with the matrix at obj.attr[keys...] damaged.  A module or loop
    data is read-only, so the damage goes into an uncertified copy, which
    is returned; a family is damaged in place and returned."""
    new = _planted(getattr(obj, attr), keys, how)
    if isinstance(obj, (AffineModule, LoopData)):
        return uncertified(obj, **{attr: new})
    setattr(obj, attr, new)
    return obj


def _planted(value, keys, how):
    """A copy of value with the matrix at value[keys...] damaged; into a
    module or loop data, a key names an attribute."""
    if not keys:
        return _damaged(value, how)
    k, *rest = keys
    if isinstance(value, (AffineModule, LoopData)):
        return _plant(value, k, *rest, how=how)
    return {**value, k: _planted(value[k], rest, how)}


def _first(rep, name):
    """The first failing entry of ``name`` in rep, or None."""
    return next((e for e in rep.failures() if e.name == name), None)


# ------------------------------------------------------- loop-module suites

#: (suite, name, damaged matrix, damage, indices, exact witness) on V_2(q):
#: the presentation suite runs on the module, the others on its loop data
LOOP_CONTROLS = [
    (verify_affine_presentation, "k_invertible", ("Kcinv", 0), "scale", (0,),
     "entry (0,0) = q-1"),
    (verify_affine_presentation, "k_commute", ("Kc", 0), (0, 1), (0, 1),
     "entry (0,1) = -q^2+1"),
    (verify_affine_presentation, "level_zero", ("Kc", 0), "scale", (),
     "entry (0,0) = q-1"),
    (verify_affine_presentation, "cartan_conj_e", ("E", 1), (0, 0), (0, 1),
     "entry (0,0) = (q^2-1)/(q^2)"),
    (verify_affine_presentation, "cartan_conj_f", ("F", 1), (0, 0), (0, 1),
     "entry (0,0) = -q^2+1"),
    (verify_affine_presentation, "ef_pair", ("E", 1), "scale", (1, 1),
     "entry (0,0) = (q^3-q^2+q-1)/(q)"),
    (verify_drinfeld_relations, "K_invertible", ("module", "Kcinv", 1), "scale", (),
     "entry (0,0) = q-1"),
    (verify_drinfeld_relations, "K_h_commute", ("h", 1), (0, 1), (1,),
     "entry (0,1) = q^2-1"),
    (verify_drinfeld_relations, "h_commute", ("h", 1), (0, 1), (-2, 1),
     "entry (0,1) = (q^6+q^4+q^2+1)/(2*q^9)"),
    (verify_drinfeld_relations, "K_conj_x", ("xp", 0), (0, 0), ("+", 0),
     "entry (0,0) = -q^4+q^2"),
    (verify_drinfeld_relations, "h_x_ladder", ("xp", 1), "scale", (-2, "+", 1),
     "entry (0,1) = (q^9-q^8+2*q^7-2*q^6+2*q^5-2*q^4+2*q^3-2*q^2+q-1)/(2*q^7)"),
    (verify_drinfeld_relations, "x_exchange", ("xp", 1), "scale", ("+", -2, 0),
     "entry (0,2) = (q^7-q^6+q^5-q^4-q^3+q^2-q+1)/(q^4)"),
    (verify_drinfeld_relations, "x_pair_commutator", ("xp", 1), "scale", (1, -2),
     "entry (0,0) = (q^3-q^2+q-1)/(q^4)"),
    (verify_drinfeld_relations, "psi_series_def", ("psi", 1), "scale", (1,),
     "entry (0,0) = q^6-q^5-q^2+q"),
    (verify_drinfeld_relations, "phi_series_def", ("phi", 1), "scale", (1,),
     "entry (0,0) = (-q^5+q^4+q-1)/(q^5)"),
    (verify_aux_identities, "phi_x_homogeneous", ("phi", 1), "scale", (1, -1),
     "entry (0,1) = (-q^7+q^6-q^5+q^4+q^3-q^2+q-1)/(q^11)"),
    (verify_aux_identities, "phi_x_expansion", ("phi", 1), "scale", (1, -1),
     "entry (0,1) = (q^7-q^6+q^5-q^4-q^3+q^2-q+1)/(q^9)"),
    (verify_aux_identities, "phi_xminus_qcomm", ("phi", 1), "scale", (0,),
     "entry (1,0) = (-q^5+q^4+q-1)/(q^4)"),
]


@pytest.mark.parametrize("field", [F, NumericField(1.3)], ids=["exact", "q0=1.3"])
@pytest.mark.parametrize("suite, name, target, how, at, witness", LOOP_CONTROLS,
                         ids=[row[1] for row in LOOP_CONTROLS])
def test_loop_suite_name_fails_its_planted_damage(field, suite, name, target, how, at,
                                                  witness):
    mod = build_evaluation(EvalParams(2, Q), window=2, T=4, field=field)
    obj = mod if suite is verify_affine_presentation else loop_data(mod, window=2, T=4)
    assert _first(suite(obj), name) is None
    bad = _first(suite(_plant(obj, *target, how=how)), name)
    assert bad is not None and bad.indices == at
    if field.exact:
        assert bad.witness == witness


# ----------------------------------------------------------- family suites


def _v1():
    return build_evaluation(EvalParams(1, Q), window=2, T=6)


def _factorization():
    fam = generate_family(OnsagerParams(1, 1, 0, 0), _v1(), T=3, R=6)
    return fam, lambda fam: factorization_check(fam)[0]


def _rationality():
    fam = generate_family(OnsagerParams(1, 1, 1, Q), _v1(), T=3, R=6)
    return fam, lambda fam: rationality_check(fam)[0]


def _braids():
    return (build_vector_evaluation(3, Q),
            lambda mod: verify_braid_relations(mod, RankNParams(("1",) * 4)))


def _spectral_w2():
    fam = generate_rankn_family(build_vector_evaluation(2, Q), RankNParams(("1", "q", "q^2")),
                                T=2, R=2)
    return fam, lambda fam: rankn_spectral_check(fam)[0]


def _anchored():
    fam = generate_rankn_family(build_vector_evaluation(1, parse_scalar("q^2")),
                                RankNParams(("q^2", "q^-1")), T=3, R=3)
    return fam, lambda fam: rankn_spectral_check(fam)[0]


#: (name, build, damaged matrix, damage, indices, exact witness); build
#: gives the object holding the damaged matrix and the suite to run on it
FAMILY_CONTROLS = [
    ("diagonal", _factorization, ("theta_grave", 1, 2), (0, 0), (2,), "entry (0,0) = 1"),
    ("recursion", _rationality, ("A", 1, 2), (0, 0), (2,), "entry (0,0) = 1"),
    ("commute", _braids, ("E", 2), (0, 0), (0, 2, 1), "entry (1,3) = (1)/(q)"),
    ("braid", _braids, ("E", 2), (0, 0), (0, 1, 2), "entry (1,3) = -1"),
    ("seed_word", _braids, ("E", 2), (0, 0), (1,), "entry (0,2) = (-1)/(q^6)"),
    ("cross_node", _spectral_w2, ("theta_grave", 1, 1), (0, 1), (1, 1, 2, 1),
     "entry (0,1) = q^9-q^7-q^2+1"),
    ("anchor_module", _anchored, ("module", "E", 0), "scale", (),
     "node 0: entry (1,0) = q^3-q^2"),
    ("anchor_towers", _anchored, ("A", 1, -1), (0, 0), (), "A[-1]: entry (0,0) = 1"),
]


@pytest.mark.parametrize("name, build, target, how, at, witness", FAMILY_CONTROLS,
                         ids=[row[0] for row in FAMILY_CONTROLS])
def test_family_suite_name_fails_its_planted_damage(name, build, target, how, at, witness):
    obj, run = build()
    assert _first(run(obj), name) is None
    bad = _first(run(_plant(obj, *target, how=how)), name)
    assert bad is not None and (bad.indices, bad.witness) == (at, witness)


@pytest.mark.parametrize("name, module", [
    ("scaled_diagonal", lambda: _v1()),
    ("tensor_diagonal", lambda: tensor(_v1(), build_evaluation(EvalParams(1, Q**3), T=6))),
])
def test_grouplike_name_fails_a_damaged_tower(monkeypatch, name, module):
    # grouplike_check grows its own families: the first one, at the
    # shifted parameters, gets (0, 0) of its grave Theta_2 raised by 1
    p = OnsagerParams(1, 1, 1, Q)
    assert _first(grouplike_check(p, module(), T=3), name) is None
    grown = []

    def damaging(*args, **kwargs):
        fam = generate_family(*args, **kwargs)
        if not grown:
            _plant(fam, "theta_grave", 1, 2, how=(0, 0))
        grown.append(fam)
        return fam

    monkeypatch.setattr(spectra, "generate_family", damaging)
    bad = _first(grouplike_check(p, module(), T=3), name)
    assert bad is not None and (bad.indices, bad.witness) == ((2,), "entry (0,0) = 1")
