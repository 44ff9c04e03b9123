"""Euler sums as exact combinations of multiple zeta values.

The library expands classical and alternating Euler sums into Q-linear
combinations of (alternating) multiple zeta values by multiplying out their
harmonic numbers as nested sums (the quasi-shuffle product), reduces the
results with a toolkit of closed-form identities and user-supplied tables,
and verifies everything against an independent high-precision numerical
oracle.

Quick start::

    >>> from eulersums import parse_index, expand_t1, reduce_lincomb
    >>> idx = parse_index("S(1,1,-3)")
    >>> expand_t1(idx).render()
    '-z(-5) - 2*z(-4,1) - 2*z(-3,1,1) - z(-3,2)'
"""

from .algebra import (
    LinComb,
    MzvAtom,
    SymbolicTerm,
    as_fraction,
    li_half,
    parse_atom,
    z,
)
from .expansion import (
    DegreeCapError,
    UnsupportedHypothesisError,
    expand_t1,
    expand_t2,
    linearize,
)
from .indices import (
    ConvergenceError,
    EulerSumIndex,
    IndexParseError,
    make_index,
    parse_index,
    render_index,
)
from .numerics import (
    NumericResult,
    WordCapError,
    eval_euler_sum_best,
    eval_lincomb_best,
)
from .reduction import (
    IdentityTable,
    ReduceResult,
    alt_depth1,
    build_starter_table,
    depth2_odd,
    load_identity_table,
    log_integral,
    reduce_lincomb,
    save_table,
    symmetric_sum,
    zeta_ones,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level cache of the package: atom values, tail
    expansions, closed forms, parsed identity tables, the atom text
    templates and the CLI parser, found as the attributes that have
    ``cache_clear``.
    Results do not change; later calls are cold."""
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(__path__):
        for obj in vars(importlib.import_module(f"{__name__}.{info.name}")).values():
            if hasattr(obj, "cache_clear") and not isinstance(obj, type):  # a class's is unbound
                obj.cache_clear()
