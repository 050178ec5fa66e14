"""Enumerations shared across the Desis reproduction.

The vocabulary follows Section 2 of the paper:

* :class:`WindowType` — tumbling, sliding, session, user-defined (Sec 2.1).
* :class:`WindowMeasure` — time- or count-based windows (Sec 2.1).
* :class:`AggFunction` — the aggregation functions of Table 1 (Sec 4.2.1).
* :class:`OperatorKind` — the shared aggregate operators of Table 1.
* :class:`SharingPolicy` — how aggressively partial results may be shared;
  used to express the baselines of Section 6.1.1 on top of one slicing core.
"""

from __future__ import annotations

import enum

__all__ = [
    "WindowType",
    "WindowMeasure",
    "AggFunction",
    "OperatorKind",
    "SharingPolicy",
    "NodeRole",
]


class WindowType(enum.Enum):
    """Window types from the Dataflow model plus user-defined windows."""

    TUMBLING = "tumbling"
    SLIDING = "sliding"
    SESSION = "session"
    USER_DEFINED = "user_defined"


class WindowMeasure(enum.Enum):
    """How the extent of a window is measured (Sec 2.1)."""

    TIME = "time"
    COUNT = "count"


class AggFunction(enum.Enum):
    """Aggregation functions supported by the engine (Table 1).

    ``MEDIAN`` and ``QUANTILE`` are holistic (non-decomposable); all others
    are decomposable in the terminology of Jesus et al. adopted by the paper.
    """

    SUM = "sum"
    COUNT = "count"
    AVERAGE = "average"
    PRODUCT = "product"
    GEOMETRIC_MEAN = "geometric_mean"
    MAX = "max"
    MIN = "min"
    MEDIAN = "median"
    QUANTILE = "quantile"
    # Extension functions built from an additional operator (Sec 4.2.1:
    # "for complex aggregation functions, users can define new operators
    # to break down functions").
    VARIANCE = "variance"
    STDDEV = "stddev"


class OperatorKind(enum.Enum):
    """The basic operators aggregation functions are broken into (Table 1)."""

    SUM = "sum"
    COUNT = "count"
    MULTIPLICATION = "multiplication"
    DECOMPOSABLE_SORT = "decomposable_sort"
    NON_DECOMPOSABLE_SORT = "non_decomposable_sort"
    #: user-defined extension operator backing variance / stddev
    SUM_OF_SQUARES = "sum_of_squares"

    # Partials are dicts keyed by kind and the merge paths probe them per
    # slice: hash by identity in C (members are singletons) instead of
    # ``Enum.__hash__``'s Python-level ``hash(self._name_)``.
    __hash__ = object.__hash__


class SharingPolicy(enum.Enum):
    """How queries may be grouped into query-groups.

    * ``FULL`` — Desis: share across window types, measures, and functions.
    * ``SAME_FUNCTION`` — Scotty: share only between identical functions.
    * ``SAME_FUNCTION_AND_MEASURE`` — DeSW: identical function *and* measure.
    * ``NONE`` — one group per query (no sharing at all).
    """

    FULL = "full"
    SAME_FUNCTION = "same_function"
    SAME_FUNCTION_AND_MEASURE = "same_function_and_measure"
    NONE = "none"


class NodeRole(enum.Enum):
    """Role of a node in a decentralized topology (Sec 2.4)."""

    ROOT = "root"
    INTERMEDIATE = "intermediate"
    LOCAL = "local"
