"""Text grammar for modules: S(i), M(i,l), P(i), I(j), sums with "+"."""

from __future__ import annotations

import re

from .core import KupischSeries
from .errors import NotAdmissible, ParseError
from .modules import (
    IntervalModule,
    ModuleSum,
    _split,
    check_module,
    injective,
    projective,
)

__all__ = ["format_interval", "format_module", "parse_module"]

_TERM_RE = re.compile(
    r"""^ \s* ([MSPI]) \s* \( \s* ([0-9]+) \s* (?: , \s* ([0-9]+) \s* )? \) \s* $""",
    re.VERBOSE,
)


def interval_text(start: int, length: int) -> str:
    """The one text of an interval: S(i) for length 1, else M(i,l)."""
    return f"S({start})" if length == 1 else f"M({start},{length})"


def format_interval(m: IntervalModule) -> str:
    return interval_text(m.start, m.length)


def format_module(m) -> str:
    """Canonical text for a module: sorted summands joined by '+', '0' if zero."""
    return "+".join(map(format_interval, _split(m))) or "0"


def _parse_term(alg: KupischSeries, term: str) -> IntervalModule:
    match = _TERM_RE.match(term)
    if not match:
        raise ParseError(f"cannot parse module term {term!r}")
    kind, first, second = match.group(1), int(match.group(2)), match.group(3)
    if kind == "M":
        if second is None:
            raise ParseError(f"M(i,l) needs two arguments, got {term!r}")
        return IntervalModule(first, int(second))
    if second is not None:
        raise ParseError(f"{kind}(i) takes one argument, got {term!r}")
    if kind == "S":
        return IntervalModule(first, 1)
    if kind == "P":
        return projective(alg, first)
    return injective(alg, first)


def parse_module(alg: KupischSeries, text: str) -> ModuleSum:
    """Parse a '+'-separated sum of terms against a concrete algebra.

    P(i) and I(j) expand to that algebra's projective and injective
    intervals; '0' is the zero module.  Malformed syntax, vertices outside
    the algebra and modules that do not live over it all raise ParseError.
    """
    if text is None or not text.strip():
        raise ParseError("empty module expression")
    if text.strip() == "0":
        return ModuleSum.zero()
    try:
        pieces = [_parse_term(alg, chunk) for chunk in text.split("+")]
        return check_module(alg, ModuleSum.of(*pieces))
    except NotAdmissible as exc:
        raise ParseError(str(exc)) from exc
