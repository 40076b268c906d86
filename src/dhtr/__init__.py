"""Exact double Hurwitz numbers, pruning, and topological recursion checks
on the rational curve x = z exp(-s P(z)), y = P(z).

The public names are loaded on first use (PEP 562), so `import dhtr`, or
one engine such as `dhtr.cutjoin`, does not import the others.
"""

__version__ = "0.1.0"

_HOMES = {
    "cutjoin": ("DHTable", "ResourceLimitError"),
    "curve": ("CurveSpec", "SpectralCurve", "invert_x_exact"),
    "oracle": ("FactorizationOracle",),
    "pruning": ("PruningKernel", "PruningTransform"),
    "quantum": ("WaveFunction", "apply_quantum_curve", "semiclassical_check"),
    "series": ("ComplexRing", "Poly", "RationalRing", "Series"),
    "toprec": ("CorrelationForm", "RecursionEngine"),
    "weightpoly": ("WeightPolynomial", "WeightPolyRing"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [name for names in _HOMES.values() for name in names] + ["__version__"]


def __getattr__(name):
    from importlib import import_module

    if name in _HOMES:
        return import_module(f".{name}", __name__)
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    # what an eager import listed: the dunders, the public names and the
    # engine modules, without this module's own lazy-loading helpers
    loaded = {n for n in globals() if n[:1] != "_" or n[:2] == "__"}
    return sorted(loaded - {"__getattr__", "__dir__"} | set(__all__) | set(_HOMES))
