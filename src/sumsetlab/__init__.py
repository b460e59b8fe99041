"""sumsetlab: exact sumset variants, direct bounds, witnesses, and searches.

The search and witness names load their modules on first use, so importing
the package to compute or verify one set loads neither of them, nor the
process pool the search starts.
"""

import importlib

from .errors import (
    BadParams,
    CostCapExceeded,
    PoolFailed,
    RegimeUnsupported,
    SumsetLabError,
)
from .intset import (
    IntegerSet,
    SumsetResult,
    subsums,
    classify_structure,
)
from .engine import (
    SumsetVariant,
    compute_oracle,
    compute_dp,
)
from .bounds import (
    ALL_LEMMAS,
    BoundCatalogEntry,
    BoundReport,
    bound_catalogue,
    catalogue_to_json,
    check_bounds,
)
from .inverse import InverseVerdict, inverse_verdict

# Resolved on each access (PEP 562), never cached here: a function patched
# in its own module is then the one this package hands out.  __all__ and
# dir() list these names from here.
_LAZY = {
    "WitnessChecks": "witness",
    "WitnessFamily": "witness",
    "WitnessPart": "witness",
    "generate": "witness",
    "ordering_guards_hold": "witness",
    "SearchReport": "search",
    "SearchSpace": "search",
    "minimize": "search",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *_LAZY])


__all__ = [
    "SumsetLabError",
    "BadParams",
    "CostCapExceeded",
    "RegimeUnsupported",
    "PoolFailed",
    "IntegerSet",
    "SumsetResult",
    "subsums",
    "classify_structure",
    "SumsetVariant",
    "compute_oracle",
    "compute_dp",
    "BoundCatalogEntry",
    "BoundReport",
    "bound_catalogue",
    "catalogue_to_json",
    "check_bounds",
    "InverseVerdict",
    "inverse_verdict",
    "ALL_LEMMAS",
    *_LAZY,
]

__version__ = "0.1.0"
