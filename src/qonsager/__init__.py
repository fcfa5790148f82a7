"""qonsager: exact-arithmetic certification of q-Onsager realizations inside
quantum loop algebras.

Subpackage map:

* scalars   — the exact coefficient field Q(q) and the numeric backend
* linmat    — matrices in one sparse row store (integer images when exact,
              nonzero floats or complex numbers when numeric), linear
              combinations, gradings, q-brackets
* series    — truncated series as lists of their known coefficients, exp/log,
              rational functions and their expansions at 0 and infinity,
              Pade reconstruction
* loopsl2   — the one module type over the affine A_N diagram, its tensor
              product and presentation suite; rank one (N = 1) adds the
              loop-sl2 generators, which extend_loop_data alone derives
              from the Chevalley action, and their relation certificates
* onsager   — the one parameter type and family type, the one generator
              of every rank (generate_family: seeds certified by their
              i-Serre relations, verify_iserre, then the tower core), and
              the rank-one (N = 1, node 1) certification suites
* spectra   — spectral factorization, Drinfeld data, coproduct checks
* ranka     — vector evaluation modules W_N(a), braided seed words and
              their relation suite, the rank-N relation suite, its
              transpose dual and the spectral suite; generate_rankn_family
              is generate_family with the arguments (module, params, R, T)
"""

from ._kernel import KERNEL_NAME
from .scalars import (
    ONE,
    Q,
    ZERO,
    ExactField,
    NumericField,
    Scalar,
    parse_scalar,
    qbinom,
    qfact,
    qint,
    specialize,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_NAME",
    "Scalar",
    "ZERO",
    "ONE",
    "Q",
    "ExactField",
    "NumericField",
    "parse_scalar",
    "qint",
    "qfact",
    "qbinom",
    "specialize",
    "__version__",
]
