"""Rank time-course genes by agreement with a pre-specified expression
profile.

The pipeline: encode the two-colour comparisons as a design matrix, compose
it with a profile basis, fit each gene by least squares, moderate the
residual variances across genes, score every test-bearing coefficient by
its standardized distance to the criterion boundary, and rank genes by the
minimum of those distances. Fixed-level accept/reject decisions combine
per-criterion confidence-interval inclusion tests.
"""

import importlib

__version__ = "0.1.0"

# The modules whose __all__ declares the public names, each after the
# modules it imports. The first use of a name imports them in this order up
# to the one that declares it (__getattr__), so importing the package
# imports none of them.
_PUBLIC = ("errors", "design", "profiles", "expression", "fitting", "svgplot", "synth",
           "ranking")

# Every module, an attribute of the package imported on its first access. A
# module left out would be imported only after the search for a name of
# that spelling had imported every public module.
_MODULES = (*_PUBLIC, "special", "outputs", "cli")


def _public():
    return (importlib.import_module(f".{name}", __name__) for name in _PUBLIC)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        value = sorted(public for module in _public() for public in module.__all__)
    else:
        module = next((module for module in _public() if name in module.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__"), *_MODULES})
