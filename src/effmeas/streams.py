"""Memoized pull-based streams and the fuel discipline.

All lazily-described objects in this package (real-number names, set
enumerations, cover names) are built on :class:`Stream`.  A stream memoizes
every pulled element, so its validator runs once per index.  The package is
single-threaded: a stream is not safe to pull from two threads at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable


class Stream:
    """An infinite memoized sequence, pulled by index.

    The source is either a callable ``index -> value`` or an iterator.
    Elements are produced in order; an optional ``validate(index, prefix)``
    hook runs once when index ``i`` is first materialized (``prefix`` holds
    elements ``0..i``).  A term the hook rejects never becomes readable: the
    stream is poisoned and every later read re-raises the same error.
    """

    def __init__(self, source, validate: Callable[[int, list], None] | None = None):
        if callable(source):
            self._it = map(source, itertools.count())
        else:
            self._it = iter(source)
        self._memo: list = []
        self._validate = validate
        self._error: Exception | None = None

    def __getitem__(self, n: int):
        if n < 0:
            raise IndexError("stream indices start at 0")
        if self._error is not None:
            raise self._error
        while len(self._memo) <= n:
            try:
                value = next(self._it)
            except StopIteration:
                raise IndexError(
                    f"finite source exhausted at index {len(self._memo)}"
                ) from None
            self._memo.append(value)
            if self._validate is not None:
                try:
                    self._validate(len(self._memo) - 1, self._memo)
                except Exception as exc:
                    self._memo.pop()
                    self._error = exc
                    raise
        return self._memo[n]

    def prefix(self, n: int) -> list:
        """Elements ``0..n-1``."""
        if n > 0:
            self[n - 1]
        return self._memo[:n]

    @property
    def pulled(self) -> int:
        return len(self._memo)


@dataclass(frozen=True)
class Fuel:
    """A budget of stream pulls for semi-decision procedures.

    Procedures taking fuel make at most ``budget`` pulls: they either
    certify an answer within them or report "undetermined".  Each pull of
    an exact set's enumeration is bounded, but a pull of an opaque set runs
    that set's own stream, which can still diverge.
    """

    budget: int

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("fuel budget must be nonnegative")
