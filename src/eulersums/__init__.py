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

# Each public name by the module that holds it.  ``import eulersums`` loads
# none of them: a name, or a module such as ``eulersums.numerics``, is
# imported on first access (PEP 562), so a command loads only what it runs.
_NAMES = {
    "algebra": ("LinComb", "MzvAtom", "SymbolicTerm", "as_fraction", "li_half", "parse_atom", "z"),
    "expansion": ("DegreeCapError", "UnsupportedHypothesisError", "expand_t1", "expand_t2", "linearize"),
    "indices": ("ConvergenceError", "EulerSumIndex", "IndexParseError", "make_index", "parse_index",
                "render_index"),
    "numerics": ("NumericResult", "WordCapError", "eval_euler_sum_best", "eval_lincomb_best"),
    "reduction": ("IdentityTable", "ReduceResult", "alt_depth1", "build_starter_table", "depth2_odd",
                  "load_identity_table", "log_integral", "reduce_lincomb", "save_table",
                  "symmetric_sum", "zeta_ones"),
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names}
_MODULES = ("algebra", "cli", "expansion", "indices", "numerics", "reduction", "words")

__all__ = sorted([*_OWNER, "clear_caches"])

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level cache of the package: atom values, tail
    expansions, closed forms, parsed identity tables, the atom text
    templates and the CLI parser, found as the attributes that have
    ``cache_clear`` in the modules imported so far; one not yet imported
    holds nothing.
    Results do not change; later calls are cold."""
    import sys

    for module in [m for name, m in sys.modules.items() if name.startswith(__name__ + ".")]:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and not isinstance(obj, type):  # a class's is unbound
                obj.cache_clear()


def __getattr__(name: str):
    import importlib

    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")  # which binds it here
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
