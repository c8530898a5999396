"""Zeroth-order Takagi-Sugeno fuzzy inference engine.

Crisp inputs are fuzzified through trapezoidal membership functions,
conjunctive IF-THEN rules fire with a min (or product) AND operator, and the
crisp output is the firing-strength-weighted average of the constant rule
consequents.  All types are frozen dataclasses; inference is a pure function,
so a built system is safe to share across threads.

A SugenoFis compiles its rule base once, at construction, into
(input index, term index) clauses.  Each input's domain is cut at its ends and
at every term's breakpoints ``a``, ``b``, ``c`` and ``d``, and split into
cells of one kind, each a run of floats found by its least one: every cut,
and the floats after a cut up to the next, where there are any.  A cell
holds its terms' floors and peaks, their lesser and greater degree at its
least and greatest float, which bound them throughout the cell, and the
ramps to evaluate.  A rule is a candidate for a tuple of cells when the
kernel fires it on the cells' peaks: exactly the rules that can fire there.
Both tables are built lazily, on the first inference, so a system that is
only parsed, serialized or replaced pays nothing for them.  Inference locates
each input's cell, in ``FuzzyVariable._locate``, which owns the domain check,
and reads the cell tuple's memo record, which ``SugenoFis._record`` builds
from the cells' floors and peaks: its candidate rules and, where the output
cannot depend on the point, the decided output.  Only an undecided tuple is
fuzzified, by ``_fill``, which evaluates a cell's ramps over a copy of its
floors, and fired, in one kernel, ``SugenoFis._fire``, the only code that
evaluates a rule; it decides each record too.  ``infer``,
``regions.classifier`` and ``pipeline.export_surface`` share all of it, so a
classification or a surface cell is bit-identical to pointwise inference.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from math import fsum


Location = tuple[str | int, ...]  # a path into a constructor's arguments


class FisConfigError(ValueError):
    """An inference system, or one of its parts, violates structural invariants.

    ``problems`` holds every violation the constructor found, each a
    ``(location, message)`` pair.  The location is a path into the
    constructor's arguments: ``("terms", j)`` and ``("domain",)`` for a
    FuzzyVariable; ``("inputs", i)``, ``("inputs",)``, ``("output_name",)``,
    ``("output_domain",)``, ``("rules", k)`` and ``("rules", k, c)`` (clause
    c of rule k) for a SugenoFis; ``()`` for the object as a whole, which is
    where ``FisConfigError(message)`` puts its single problem.  ``str()``
    joins the messages.
    """

    def __init__(self, message: str = "", problems: Sequence[tuple[Location, str]] = ()):
        self.problems: tuple[tuple[Location, str], ...] = tuple(problems) or (((), message),)
        super().__init__("; ".join(text for _, text in self.problems))


class OutOfDomainError(ValueError):
    """A crisp input lies outside its variable's declared domain."""


@dataclass(frozen=True)
class TrapezoidMF:
    """Trapezoidal membership function with finite breakpoints a <= b <= c <= d
    and a finite width d - a.

    The function is 0 outside [a, d], 1 on the plateau [b, c] and linear on
    the ramps.  b == c gives a triangle; a == b or c == d gives a vertical
    shoulder whose edge point evaluates to 1 (the limit of the ramp as its
    width goes to zero).
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        points = (self.a, self.b, self.c, self.d)
        if not all(map(math.isfinite, points)):
            raise FisConfigError(f"trapezoid breakpoints must be finite, got {points}")
        if not (self.a <= self.b <= self.c <= self.d):
            raise FisConfigError(
                f"trapezoid breakpoints must satisfy a <= b <= c <= d, "
                f"got ({self.a}, {self.b}, {self.c}, {self.d})"
            )
        if self.d - self.a == math.inf:
            raise FisConfigError(f"trapezoid width d - a is beyond the float range, got {points}")

    def degree(self, x: float) -> float:
        """Membership degree of x, in [0, 1].  Total: never raises."""
        if not self.a <= x <= self.d:
            return 0.0
        if self.b <= x <= self.c:
            return 1.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        return (self.d - x) / (self.d - self.c)


def grid_value(lo: float, hi: float, steps: int, index: int) -> float:
    """Sample ``index`` of the inclusive even grid of ``steps`` values over
    [lo, hi]: ``lo + (hi - lo) * index / (steps - 1)``, except that the last
    sample is ``hi`` itself, which the formula can round past.  Where
    ``(hi - lo) * index`` overflows, for a finite span, the sample is
    ``lo + (hi - lo) / (steps - 1) * index``, finite and, as long as the
    step outweighs the rounding, still rising with ``index``."""
    if index == steps - 1:
        return hi
    value = lo + (hi - lo) * index / (steps - 1)
    return value if value < math.inf else lo + (hi - lo) / (steps - 1) * index


@dataclass(frozen=True)
class FuzzyVariable:
    """A named input with a finite closed domain, whose width is finite too,
    and ordered linguistic terms.

    Term supports must lie inside the domain but need not cover it: the
    uncovered zones are exactly where no rule can fire.  Construction raises
    one FisConfigError with every violation; supports are checked only
    against a non-empty domain.
    """

    name: str
    unit: str
    domain: tuple[float, float]
    terms: tuple[tuple[str, TrapezoidMF], ...]

    def __post_init__(self) -> None:
        problems: list[tuple[Location, str]] = []
        lo, hi = self.domain
        domain = f"variable {self.name!r}: domain [{lo}, {hi}]"
        if not (math.isfinite(lo) and math.isfinite(hi)):
            problems.append((("domain",), f"{domain} must be finite"))
        elif not lo < hi:
            problems.append((("domain",), f"{domain} is empty"))
        elif hi - lo == math.inf:
            problems.append((("domain",), f"{domain} is wider than the float range"))
        seen = set()
        for j, (term_name, mf) in enumerate(self.terms):
            if term_name in seen:
                problems.append((("terms", j), f"duplicate term {term_name!r} in {self.name!r}"))
            seen.add(term_name)
            if lo < hi and (mf.a < lo or mf.d > hi):
                problems.append((
                    ("terms", j),
                    f"variable {self.name!r}: term {term_name!r} support "
                    f"[{mf.a}, {mf.d}] exceeds domain [{lo}, {hi}]",
                ))
        if problems:
            raise FisConfigError(problems=problems)

    def term_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    def _locate(self, x: float) -> int:
        """The cell holding x, the last whose least float is not above x;
        OutOfDomainError if x (NaN too) is off the domain."""
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise OutOfDomainError(f"{self.name} = {x} outside domain [{lo}, {hi}]")
        return bisect_right(self._cells[0], x) - 1

    def _fill(self, cell: int, x: float) -> list[float]:
        """Every term's degree at x, in ``cell``: a copy of the cell's floors,
        its base row, as a term outside the ramps is constant across the
        cell, with the ramps evaluated at x.  Only a point in an undecided
        cell tuple, and a surface's grid value, is filled; records never are."""
        floors, ramps, _ = self._cells[1][cell]
        degrees = floors.copy()
        for j, p, q in ramps:
            degrees[j] = (x - p) / q
        return degrees

    @cached_property
    def _cells(self) -> tuple[list[float], list[tuple[list[float], list, list[float]]]]:
        """``starts``, the sorted least float of each cell, and per cell
        ``(floors, ramps, peaks)``.  The starts are the cuts (the domain ends
        and every term's ``a``, ``b``, ``c`` and ``d``) and the float after
        each cut below ``hi``: cell k holds the floats from ``starts[k]`` to
        the one before ``starts[k + 1]``, or to ``hi`` for the last, so each
        cut is a cell, the floats up to the next cut another, and none is
        empty.  In a cell strictly inside a ramp, a term is a ramp ``(j, p,
        q)`` of degree ``(x - p) / q``: ``p = a, q = b - a`` rising, ``p = d,
        q = c - d`` falling, which is ``TrapezoidMF.degree`` bit for bit, as
        negating both operands of a division is exact; elsewhere it is
        constant across the cell.  Its floor and peak are its lesser and
        greater degree at the cell's least and greatest float, a zero as 0.0
        at either signed zero; degrees are monotone in x across a cell,
        rounding included, so these bound it throughout.  ``_fill`` copies
        the floors and evaluates the ramps; ``SugenoFis._record`` reads the
        floors and peaks.  Only these two read a cell."""
        lo, hi = self.domain
        terms = list(enumerate(mf for _, mf in self.terms))
        cuts = {lo, hi, *(p for _, mf in terms for p in (mf.a, mf.b, mf.c, mf.d))}
        starts = sorted({*cuts, *(math.nextafter(cut, math.inf) for cut in cuts if cut < hi)})
        cells = []
        for low, high in zip(starts, [math.nextafter(s, lo) for s in starts[1:]] + [hi]):
            ramps = [(j, mf.a, mf.b - mf.a) for j, mf in terms if mf.a < low and high < mf.b]
            ramps += [(j, mf.d, mf.c - mf.d) for j, mf in terms if mf.c < low and high < mf.d]
            floors = [mf.degree(low) or 0.0 for _, mf in terms]
            peaks = floors.copy()
            for j, p, q in ramps:
                floors[j], peaks[j] = sorted(((low - p) / q, (high - p) / q))
            cells.append((floors, ramps, peaks))
        return starts, cells


@dataclass(frozen=True)
class Rule:
    """Conjunctive IF-THEN rule with a constant consequent.

    The antecedent is a sequence of (variable name, term name) clauses joined
    by AND; an empty antecedent always fires at full strength.
    """

    antecedent: tuple[tuple[str, str], ...]
    consequent: float


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of one inference: the crisp value plus rule-firing bookkeeping.

    ``fired_rule_count == 0`` encodes an anomalous input (no rule covers it);
    the raw value is then 0 by convention, which callers must not confuse with
    a legitimate output of 0.
    """

    raw: float
    fired_rule_count: int

    @property
    def is_anomaly(self) -> bool:
        return self.fired_rule_count == 0


@dataclass(frozen=True)
class SugenoFis:
    """A complete zeroth-order Sugeno system: inputs, output domain and rules.

    Immutable after construction.  ``and_operator`` is "min" (default) or
    "product".  Construction raises one FisConfigError with every violation
    it finds (a consequent is checked only against a non-empty output domain;
    in a finite one, the first rule at which the consequents' magnitudes sum
    past the largest float is refused too, as the kernel's sums could then
    overflow) and compiles each rule to ``(((input index, term index), ...),
    consequent)`` for the inference kernel; ``dataclasses.replace`` builds,
    and so compiles, a new system.  The candidate memo is filled by
    inference.  A system without rules is valid (rule generation starts
    from one); ``check_rules`` refuses it for inference.
    """

    inputs: tuple[FuzzyVariable, ...]
    output_name: str
    output_domain: tuple[float, float]
    rules: tuple[Rule, ...]
    and_operator: str = "min"

    _compiled: tuple[tuple[tuple[tuple[int, int], ...], float], ...] = field(
        init=False, repr=False, compare=False
    )
    # Memo from a tuple of cells, one per input, to its ``_record``; at most
    # one entry per cell product.  Threads fill it without a lock: an entry is
    # a finished tuple, a pure function of its key, so a race at worst
    # computes one twice.
    _records: dict[tuple[int, ...], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        problems: list[tuple[Location, str]] = []
        if self.and_operator not in ("min", "product"):
            problems.append((("and_operator",), f"unknown AND operator {self.and_operator!r}"))
        if not self.inputs:
            problems.append((("inputs",), "no input variable declared"))
        lo, hi = self.output_domain
        if not (math.isfinite(lo) and math.isfinite(hi)):
            problems.append((("output_domain",), f"output domain [{lo}, {hi}] must be finite"))
        elif not lo < hi:
            problems.append((("output_domain",), f"output domain [{lo}, {hi}] is empty"))
        slots: dict[str, tuple[int, dict[str, int]]] = {}  # name -> (position, term indices)
        for position, var in enumerate(self.inputs):
            if var.name in slots:
                problems.append((("inputs", position), f"duplicate variable {var.name!r}"))
            slots[var.name] = (position, {term: j for j, term in enumerate(var.term_names())})
        if self.output_name in slots:
            problems.append((("output_name",), f"duplicate variable {self.output_name!r}"))

        first_rule: dict[frozenset, int] = {}
        compiled = []
        # The largest float less the magnitudes of the consequents checked so
        # far, each truncated to an integer and subtracted exactly: while it
        # is not negative, neither of the kernel's fsums can overflow, as a
        # sum rounds to inf only 2**970 past the largest float, far more than
        # the fractions dropped.
        room = 2**1024 - 2**971 if -math.inf < lo < hi < math.inf else -1
        for k, rule in enumerate(self.rules):
            clause_vars = set()
            clauses = []
            for c, (name, term) in enumerate(rule.antecedent):
                # a constant default, and a location built only for a problem
                position, term_index = slots.get(name, (None, ()))
                if name in clause_vars:
                    problems.append((("rules", k, c), f"duplicate clause for variable {name!r}"))
                elif position is None:
                    problems.append((("rules", k, c), f"unknown input variable {name!r}"))
                elif term not in term_index:
                    problems.append((("rules", k, c), f"variable {name!r} has no term {term!r}"))
                else:
                    clauses.append((position, term_index[term]))
                clause_vars.add(name)
            if lo < hi and not lo <= rule.consequent <= hi:
                problems.append((
                    ("rules", k),
                    f"consequent {rule.consequent} outside output domain [{lo}, {hi}]",
                ))
            elif room >= 0 > (room := room - int(abs(rule.consequent))):
                problems.append((
                    ("rules", k), "consequent magnitudes up to this rule sum past the float range"
                ))
            first = first_rule.setdefault(frozenset(rule.antecedent), k)
            if first != k:
                problems.append((("rules", k), f"rule repeats the antecedent of rule {first + 1}"))
            compiled.append((tuple(clauses), rule.consequent))
        if problems:
            raise FisConfigError(problems=problems)
        object.__setattr__(self, "_compiled", tuple(compiled))

    def check_rules(self) -> None:
        """Raise FisConfigError if the system has no rule to infer with."""
        if not self.rules:
            raise FisConfigError("cannot infer with an empty rule base")

    def _record(self, cells: tuple[int, ...]) -> tuple[tuple, tuple[float, int] | None]:
        """The memo's ``(candidates, decided)`` for the cells ``_locate`` gave,
        one per input, built on first use from the floors and peaks of each
        input's cell in its ``_cells``.  The candidates are the compiled
        rules, in rule order, that the kernel fires on the peaks (under min,
        those whose every clause names a term with a positive peak; under
        product, positive peaks can still multiply to 0.0): exactly the rules
        that can fire there, as each rule reads one term per input and its
        peaks lie at points of the cells.  ``decided`` is the kernel's result at the floors, or None.
        It is kept only if every candidate fires at the floors, and so
        everywhere in the cells, as the AND is monotone; and if the candidates
        share one consequent (by ``repr``, so 0.0 and -0.0 stay apart), which
        the clamp then returns, or every degree a candidate reads has its
        floor equal to its peak."""
        record = self._records.get(cells)
        if record is None:
            floors, _, peaks = zip(*(var._cells[1][cell] for var, cell in zip(self.inputs, cells)))
            candidates = tuple(rule for rule in self._compiled if self._fire((rule,), peaks)[1])
            decided = self._fire(candidates, floors)
            if decided[1] < len(candidates) or (
                len({repr(consequent) for _, consequent in candidates}) > 1
                and any(floors[i][j] != peaks[i][j] for rule in candidates for i, j in rule[0])
            ):
                decided = None
            record = self._records[cells] = (candidates, decided)
        return record

    def _fire(self, candidates: tuple, degrees: Sequence[Sequence[float]]) -> tuple[float, int]:
        """The inference kernel, the only code that fires a rule: fire a cell
        tuple's ``candidates`` on its ``_fill`` degrees, ``degrees[i]`` for
        input i, and return ``(raw, fired_rule_count)``.  It checks nothing;
        callers check the domain, in ``_locate``, and the rule base first,
        and ``_record`` decides a tuple with it.  A rule that is not a
        candidate has strength 0 and would leave both sums and the clamp
        range, and so the result, bit for bit unchanged.  A candidate is
        still tested for ``w > 0.0``: a ramp's degree can underflow to 0.0
        just inside its cell.
        The AND operator is resolved once per call; each rule conjoins its
        clauses in order, from 1.0.  The clamp into [min, max] of the fired
        consequents also makes a lone fired rule return its consequent
        exactly (a -0.0 comes back as 0.0).  The range is kept as it runs,
        and all comparisons, the clamp's too, are strict: they keep the first
        of equal values, as ``min`` and ``max`` do, so 0.0 and -0.0 stay apart.
        """
        use_min = self.and_operator == "min"
        weights: list[float] = []
        contributions: list[float] = []
        c_min, c_max = math.inf, -math.inf
        for clauses, consequent in candidates:
            w = 1.0
            if use_min:
                for var_index, term_index in clauses:
                    d = degrees[var_index][term_index]
                    if d < w:
                        w = d
            else:
                for var_index, term_index in clauses:
                    w = w * degrees[var_index][term_index]
            if w > 0.0:
                weights.append(w)
                contributions.append(w * consequent)
                if consequent < c_min:
                    c_min = consequent
                if consequent > c_max:
                    c_max = consequent
        if not weights:
            return 0.0, 0
        raw = fsum(contributions) / fsum(weights)
        if raw < c_min:
            raw = c_min
        elif raw > c_max:
            raw = c_max
        return raw, len(weights)


def infer(fis: SugenoFis, values: Mapping[str, float]) -> InferenceResult:
    """Run Sugeno inference for one crisp input assignment.

    raw = sum(w_i * c_i) / sum(w_i) over the rules with positive firing
    strength.  When no rule fires the result is raw = 0 with a zero rule
    count, the anomaly encoding.  Inputs are located in declaration order,
    and the first one without a value, or outside its domain, raises
    OutOfDomainError; then an empty rule base raises FisConfigError.  Only
    a cell tuple that its record does not decide is fuzzified and fired.

    The result is independent of rule order, and of the zero-strength rules
    the kernel skips: the sums are accumulated with math.fsum, which returns
    the correctly rounded sum regardless of operand order, and the weighted
    average is clamped into the exact consequent range of the fired rules to
    keep float rounding from leaking outside it, so a lone fired rule gives
    its consequent exactly.
    """
    cells = []
    for var in fis.inputs:
        if var.name not in values:
            raise OutOfDomainError(f"no value supplied for variable {var.name!r}")
        cells.append(var._locate(values[var.name]))
    fis.check_rules()
    candidates, decided = fis._record(tuple(cells))
    return InferenceResult(*(decided or fis._fire(candidates, [
        var._fill(cell, values[var.name]) for var, cell in zip(fis.inputs, cells)
    ])))
