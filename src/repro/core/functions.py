"""Aggregation functions and their decomposition into operators (Table 1).

A :class:`FunctionSpec` is an aggregation function plus its parameters (only
``quantile`` has one).  Two specs are equal only if the parameters match,
which is why a workload of 1000 distinct quantile queries forces the
same-function baselines into 1000 query-groups (Fig 9c) while Desis serves
them all from one shared non-decomposable sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.errors import QueryError
from repro.core.types import AggFunction, OperatorKind

__all__ = [
    "FunctionSpec",
    "operators_for",
    "plan_operators",
    "finalize",
    "is_decomposable",
]

#: Table 1 of the paper: aggregation function -> set of operators.
_TABLE_1: dict[AggFunction, frozenset[OperatorKind]] = {
    AggFunction.SUM: frozenset({OperatorKind.SUM}),
    AggFunction.COUNT: frozenset({OperatorKind.COUNT}),
    AggFunction.AVERAGE: frozenset({OperatorKind.SUM, OperatorKind.COUNT}),
    AggFunction.PRODUCT: frozenset({OperatorKind.MULTIPLICATION}),
    AggFunction.GEOMETRIC_MEAN: frozenset(
        {OperatorKind.MULTIPLICATION, OperatorKind.COUNT}
    ),
    AggFunction.MAX: frozenset({OperatorKind.DECOMPOSABLE_SORT}),
    AggFunction.MIN: frozenset({OperatorKind.DECOMPOSABLE_SORT}),
    AggFunction.MEDIAN: frozenset({OperatorKind.NON_DECOMPOSABLE_SORT}),
    AggFunction.QUANTILE: frozenset({OperatorKind.NON_DECOMPOSABLE_SORT}),
    # Extension functions via the user-defined sum-of-squares operator:
    # they still share the sum and count with average/sum/count queries.
    AggFunction.VARIANCE: frozenset(
        {OperatorKind.SUM, OperatorKind.COUNT, OperatorKind.SUM_OF_SQUARES}
    ),
    AggFunction.STDDEV: frozenset(
        {OperatorKind.SUM, OperatorKind.COUNT, OperatorKind.SUM_OF_SQUARES}
    ),
}

#: Holistic functions that cannot be computed from constant-size partials.
_NON_DECOMPOSABLE = frozenset({AggFunction.MEDIAN, AggFunction.QUANTILE})

#: Stable execution order for operator states inside a slice.
_OPERATOR_ORDER = {kind: index for index, kind in enumerate(OperatorKind)}


@dataclass(slots=True, frozen=True)
class FunctionSpec:
    """An aggregation function together with its parameters.

    Attributes:
        fn: the aggregation function.
        quantile: the requested quantile in ``(0, 1)``; only valid (and
            required) when ``fn`` is :attr:`AggFunction.QUANTILE`.
    """

    fn: AggFunction
    quantile: float | None = None

    def __post_init__(self) -> None:
        if self.fn is AggFunction.QUANTILE:
            if self.quantile is None or not 0.0 < self.quantile < 1.0:
                raise QueryError(
                    f"quantile function needs a quantile in (0, 1), "
                    f"got {self.quantile!r}"
                )
        elif self.quantile is not None:
            raise QueryError(f"{self.fn.value} takes no quantile parameter")

    def __str__(self) -> str:
        if self.fn is AggFunction.QUANTILE:
            return f"quantile({self.quantile:g})"
        return self.fn.value


def is_decomposable(spec: FunctionSpec) -> bool:
    """Whether ``spec`` can be computed from constant-size partial results.

    Decomposable functions are pushed down to local nodes in decentralized
    aggregation (Sec 5.1); non-decomposable ones require the root to see all
    values (Sec 5.2).
    """
    return spec.fn not in _NON_DECOMPOSABLE


def operators_for(spec: FunctionSpec) -> frozenset[OperatorKind]:
    """The operators ``spec`` is broken into (Table 1)."""
    return _TABLE_1[spec.fn]


def plan_operators(specs: Iterable[FunctionSpec]) -> tuple[OperatorKind, ...]:
    """Plan the shared operator set for a query-group.

    The set is the union of each function's operators, with one reduction:
    if a non-decomposable sort is required anyway, the decomposable sort is
    subsumed by it — min/max can read the sorted run (Sec 4.2.1), so the
    engine never executes both sorts for the same events.
    """
    kinds: set[OperatorKind] = set()
    for spec in specs:
        kinds |= operators_for(spec)
    if OperatorKind.NON_DECOMPOSABLE_SORT in kinds:
        kinds.discard(OperatorKind.DECOMPOSABLE_SORT)
    return tuple(sorted(kinds, key=_OPERATOR_ORDER.__getitem__))


_SUM = OperatorKind.SUM
_COUNT = OperatorKind.COUNT
_PRODUCT = OperatorKind.MULTIPLICATION
_SQUARES = OperatorKind.SUM_OF_SQUARES
_EXTREMA = OperatorKind.DECOMPOSABLE_SORT
_SORTED = OperatorKind.NON_DECOMPOSABLE_SORT


def _average(spec, partials):
    count = partials.get(_COUNT, 0)
    return partials.get(_SUM, 0.0) / count if count else None


def _geometric_mean(spec, partials):
    count = partials.get(_COUNT, 0)
    if not count:
        return None
    product = partials.get(_PRODUCT, 1.0)
    if product < 0.0:
        raise QueryError("geometric mean is undefined for negative products")
    return product ** (1.0 / count)


def _extremum(end: int):
    """MIN (``end`` 0) or MAX (``end`` -1): the decomposable sort's pair,
    or the end of the non-decomposable sort's run that subsumes it."""

    def extremum(spec, partials):
        extrema = partials.get(_EXTREMA)
        if extrema is not None:
            return extrema[end]
        values = partials.get(_SORTED)
        return values[end] if values else None

    return extremum


def _quantile(spec, partials):
    """Linear-interpolation quantile of the sorted run; MEDIAN is the one
    spec without a quantile."""
    values = partials.get(_SORTED)
    if not values:
        return None
    position = (0.5 if spec.quantile is None else spec.quantile) * (len(values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(values) - 1)
    fraction = position - lower
    return values[lower] * (1.0 - fraction) + values[upper] * fraction


def _variance(spec, partials):
    count = partials.get(_COUNT, 0)
    if not count:
        return None
    mean = partials.get(_SUM, 0.0) / count
    squares = partials.get(_SQUARES, 0.0)
    # Population variance; clamp tiny negative float residue.
    return max(squares / count - mean * mean, 0.0)


def _stddev(spec, partials):
    variance = _variance(spec, partials)
    return None if variance is None else variance**0.5


#: each function's finalizer ``(spec, partials) -> value``
_FINALIZERS = {
    AggFunction.SUM: lambda spec, partials: partials.get(_SUM, 0.0),
    AggFunction.COUNT: lambda spec, partials: partials.get(_COUNT, 0),
    AggFunction.AVERAGE: _average,
    AggFunction.PRODUCT: lambda spec, partials: partials.get(_PRODUCT, 1.0),
    AggFunction.GEOMETRIC_MEAN: _geometric_mean,
    AggFunction.MAX: _extremum(-1),
    AggFunction.MIN: _extremum(0),
    AggFunction.MEDIAN: _quantile,
    AggFunction.QUANTILE: _quantile,
    AggFunction.VARIANCE: _variance,
    AggFunction.STDDEV: _stddev,
}


def finalize(spec: FunctionSpec, partials: Mapping[OperatorKind, Any]):
    """Compute the final value of ``spec`` from merged operator partials.

    ``partials`` may omit operators the window never executed (an empty
    selection context); the operator identities are assumed for the missing
    entries.  Returns ``None`` for functions that are undefined on empty
    windows (average, geometric mean, min/max, median, quantile).
    """
    try:
        finalizer = _FINALIZERS[spec.fn]
    except KeyError:
        raise QueryError(f"unknown aggregation function: {spec.fn!r}") from None
    return finalizer(spec, partials)
