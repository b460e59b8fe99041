"""sumsetlab: exact sumset variants, direct bounds, witnesses, and searches."""

from .errors import (
    BadParams,
    CostCapExceeded,
    EmptyInput,
    FoldTooLarge,
    HypothesisViolated,
    Overflow,
    RegimeUnsupported,
    SizeCapExceeded,
    SpaceTooLarge,
    SumsetLabError,
    TooSmall,
    VariantMismatch,
    ZeroDilation,
    ZeroElement,
)
from .intset import (
    IntegerSet,
    SumsetResult,
    canonicalize,
    dilate,
    abs_set,
    subsums,
    classify_structure,
    class_name,
)
from .engine import (
    SumsetVariant,
    compute_oracle,
    compute_dp,
    independence_number,
)
from .bounds import (
    BoundCatalogEntry,
    BoundReport,
    bound_catalogue,
    catalogue_to_json,
    check_bounds,
)
from .inverse import InverseVerdict, inverse_verdict
from .witness import (
    ALL_LEMMAS,
    WitnessChecks,
    WitnessFamily,
    WitnessPart,
    generate,
    ordering_guards_hold,
)
from .search import SearchReport, SearchSpace, minimize

__all__ = [
    "SumsetLabError",
    "EmptyInput",
    "ZeroDilation",
    "Overflow",
    "SizeCapExceeded",
    "TooSmall",
    "FoldTooLarge",
    "CostCapExceeded",
    "ZeroElement",
    "VariantMismatch",
    "BadParams",
    "HypothesisViolated",
    "RegimeUnsupported",
    "SpaceTooLarge",
    "IntegerSet",
    "SumsetResult",
    "canonicalize",
    "dilate",
    "abs_set",
    "subsums",
    "classify_structure",
    "class_name",
    "SumsetVariant",
    "compute_oracle",
    "compute_dp",
    "independence_number",
    "BoundCatalogEntry",
    "BoundReport",
    "bound_catalogue",
    "catalogue_to_json",
    "check_bounds",
    "InverseVerdict",
    "inverse_verdict",
    "ALL_LEMMAS",
    "WitnessChecks",
    "WitnessFamily",
    "WitnessPart",
    "generate",
    "ordering_guards_hold",
    "SearchReport",
    "SearchSpace",
    "minimize",
]

__version__ = "0.1.0"
