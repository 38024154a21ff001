"""entbound: entanglement measures on finite-dimensional bipartite states
and closed-form entanglement bounds for field-theory models.

The public names below are resolved on first access (PEP 562), so importing
the package, or a submodule such as ``entbound.integrable``, loads no more
than that submodule needs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys((
        "DensityMatrix", "density_matrix", "load_state", "maximally_entangled",
        "partial_trace", "partial_transpose", "product_state", "pure_state",
        "random_density_matrix", "save_state", "trace_norm"), "linalg"),
    **dict.fromkeys((
        "MeasureResult", "SeparableAnsatz", "SeparableDecomposition", "bell_correlation",
        "log_dominance_upper", "modular_nuclearity_pure", "modular_nuclearity_upper",
        "mutual_information", "ordering_audit", "relative_entanglement_entropy_upper",
        "schmidt_entropy"), "measures"),
    "relative_entropy": "modular",
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    # looked up on every access, so the package always hands out the
    # submodule's current binding
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
