"""Zeroth-order Takagi-Sugeno fuzzy inference engine.

Crisp inputs are fuzzified through trapezoidal membership functions,
conjunctive IF-THEN rules fire with a min (or product) AND operator, and the
crisp output is the firing-strength-weighted average of the constant rule
consequents.  All types are frozen dataclasses; inference is a pure function,
so a built system is safe to share across threads.

A SugenoFis compiles its rule base once, at construction, into
(input index, term index) clauses.  Inference fuzzifies each input once, in
``FuzzyVariable.degrees``, which owns the domain check, and fires the compiled
rules in one kernel, the only code that evaluates a rule.  ``infer``,
``regions.classifier`` and ``pipeline.surface_grid`` share both, so a
classification or a surface cell is bit-identical to pointwise inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence


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
    """Trapezoidal membership function with finite breakpoints a <= b <= c <= d.

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

    def degree(self, x: float) -> float:
        """Membership degree of x, in [0, 1].  Total: never raises."""
        if x < self.a or x > self.d:
            return 0.0
        if self.b <= x <= self.c:
            return 1.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        return (self.d - x) / (self.d - self.c)


def grid_value(lo: float, hi: float, steps: int, index: int) -> float:
    """Sample ``index`` of the inclusive even grid of ``steps`` values over
    [lo, hi]: ``lo + (hi - lo) * index / (steps - 1)``, except that the last
    sample is ``hi`` itself, which the formula can round past."""
    if index == steps - 1:
        return hi
    return lo + (hi - lo) * index / (steps - 1)


@dataclass(frozen=True)
class FuzzyVariable:
    """A named input with a finite closed domain and ordered linguistic terms.

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
        if not (math.isfinite(lo) and math.isfinite(hi)):
            problems.append(
                (("domain",), f"variable {self.name!r}: domain [{lo}, {hi}] must be finite")
            )
        elif not lo < hi:
            problems.append((("domain",), f"variable {self.name!r}: domain [{lo}, {hi}] is empty"))
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

    def degrees(self, x: float) -> list[float]:
        """Membership degree of x in every term, in declaration order;
        OutOfDomainError if x (NaN included) lies outside the domain."""
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise OutOfDomainError(f"{self.name} = {x} outside domain [{lo}, {hi}]")
        return [mf.degree(x) for _, mf in self.terms]


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
    total_strength: float

    @property
    def is_anomaly(self) -> bool:
        return self.fired_rule_count == 0


@dataclass(frozen=True)
class SugenoFis:
    """A complete zeroth-order Sugeno system: inputs, output domain and rules.

    Immutable after construction.  ``and_operator`` is "min" (default) or
    "product".  Construction raises one FisConfigError with every violation
    it finds (a consequent is checked only against a non-empty output domain)
    and compiles each rule to ``(((input index, term index), ...),
    consequent)`` for the inference kernel; ``dataclasses.replace`` builds,
    and so compiles, a new system.  A system without rules is valid (rule
    generation starts from one); ``check_rules`` refuses it for inference.
    """

    inputs: tuple[FuzzyVariable, ...]
    output_name: str
    output_domain: tuple[float, float]
    rules: tuple[Rule, ...]
    and_operator: str = "min"

    _compiled: tuple[tuple[tuple[tuple[int, int], ...], float], ...] = field(
        init=False, repr=False, compare=False
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
        by_name: dict[str, FuzzyVariable] = {}
        slots: dict[str, tuple[int, dict[str, int]]] = {}  # name -> (position, term indices)
        for position, var in enumerate(self.inputs):
            if var.name in by_name:
                problems.append((("inputs", position), f"duplicate variable {var.name!r}"))
            by_name[var.name] = var
            slots[var.name] = (position, {term: j for j, term in enumerate(var.term_names())})
        if self.output_name in by_name:
            problems.append((("output_name",), f"duplicate variable {self.output_name!r}"))

        first_rule: dict[frozenset, int] = {}
        compiled = []
        for k, rule in enumerate(self.rules):
            clause_vars = set()
            clauses = []
            for c, (var_name, term_name) in enumerate(rule.antecedent):
                where = ("rules", k, c)
                position, term_index = slots.get(var_name, (None, {}))
                if var_name in clause_vars:
                    problems.append((where, f"duplicate clause for variable {var_name!r}"))
                elif position is None:
                    problems.append((where, f"unknown input variable {var_name!r}"))
                elif term_name not in term_index:
                    problems.append((where, f"variable {var_name!r} has no term {term_name!r}"))
                else:
                    clauses.append((position, term_index[term_name]))
                clause_vars.add(var_name)
            if lo < hi and not lo <= rule.consequent <= hi:
                problems.append((
                    ("rules", k),
                    f"consequent {rule.consequent} outside output domain [{lo}, {hi}]",
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


def infer(fis: SugenoFis, values: Mapping[str, float]) -> InferenceResult:
    """Run Sugeno inference for one crisp input assignment.

    raw = sum(w_i * c_i) / sum(w_i) over the rules with positive firing
    strength.  When no rule fires the result is raw = 0 with a zero rule
    count, the anomaly encoding.  Inputs are fuzzified in declaration order,
    and the first one without a value, or outside its domain, raises
    OutOfDomainError; then an empty rule base raises FisConfigError.

    The result is independent of rule order: the sums are accumulated with
    math.fsum, which returns the correctly rounded sum regardless of operand
    order, and the weighted average is clamped into the exact consequent range
    of the fired rules to keep float rounding from leaking outside it, so a
    lone fired rule gives its consequent exactly.
    """
    degrees = []
    for var in fis.inputs:
        if var.name not in values:
            raise OutOfDomainError(f"no value supplied for variable {var.name!r}")
        degrees.append(var.degrees(values[var.name]))
    return _infer_degrees(fis, degrees)


def _infer_degrees(fis: SugenoFis, degrees: Sequence[Sequence[float]]) -> InferenceResult:
    """The inference kernel: fire the compiled rules on fuzzified inputs.

    ``degrees[i][j]`` is the membership degree of input i in its term j.
    Each rule conjoins its clauses in order, from 1.0, and stops at the first
    clause that brings its strength to 0.  An empty rule base fires nothing,
    so it is checked, and raises FisConfigError, only when no rule fired.
    The clamp into [min, max] of the fired consequents is also what makes a
    lone fired rule return its consequent exactly (a -0.0 comes back as 0.0).
    """
    use_min = fis.and_operator == "min"
    weights: list[float] = []
    contributions: list[float] = []
    consequents: list[float] = []
    for clauses, consequent in fis._compiled:
        w = 1.0
        for var_index, term_index in clauses:
            d = degrees[var_index][term_index]
            if use_min:
                if d < w:
                    w = d
            else:
                w = w * d
            if w == 0.0:
                break
        if w > 0.0:
            weights.append(w)
            contributions.append(w * consequent)
            consequents.append(consequent)

    if not weights:
        fis.check_rules()
        return InferenceResult(raw=0.0, fired_rule_count=0, total_strength=0.0)

    total = math.fsum(weights)
    raw = min(max(math.fsum(contributions) / total, min(consequents)), max(consequents))
    return InferenceResult(raw=raw, fired_rule_count=len(weights), total_strength=total)
