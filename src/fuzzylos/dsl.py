"""Textual configuration language for a complete Sugeno inference system.

A ``.fis`` document is line oriented (UTF-8, LF or CRLF), with ``#`` starting
a comment.  Keywords are lower case, the rule connectives IF / IS / AND /
THEN are upper case, and identifiers are case sensitive::

    set and_operator min
    variable input TrafficFlow [veh/h] domain 0 6000
      mf Very_Low trap 0 0 1200 1600
      ...
    variable output LoS domain 0 6
    rule IF TrafficFlow IS Very_Low AND Speed IS High THEN LoS = 1

Numbers are plain decimals (optional sign and fraction, no exponents).
Output variables declare a domain but no membership functions: zeroth-order
consequents are bare constants.  ``parse`` reports the first syntax error
with its 1-based line and column.  ``build_fis`` then reports every
violation the engine's constructors find, each at the line and column of
the declaration, rule or clause it concerns, in two rounds: first the
declarations (the output count, every ``mf`` line, every input variable);
once those are valid, the system (variable names, output domain, rules).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal

from .engine import FisConfigError, FuzzyVariable, Location, Rule, SugenoFis, TrapezoidMF


class ParseError(ValueError):
    """A positioned error in a ``.fis`` source text."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class FisValidationError(ValueError):
    """All validation failures found while turning a document into a system."""

    def __init__(self, errors: list[ParseError]):
        self.errors = errors
        super().__init__("; ".join(str(e) for e in errors))


@dataclass
class MfDecl:
    line: int
    column: int
    term: str
    points: tuple[float, float, float, float]


@dataclass
class VarDecl:
    line: int
    column: int
    kind: str  # "input" | "output"
    name: str
    unit: str
    lo: float
    hi: float
    mfs: list[MfDecl] = field(default_factory=list)


@dataclass
class ClauseStmt:
    line: int
    column: int
    variable: str
    term: str


@dataclass
class RuleStmt:
    line: int
    column: int
    clauses: list[ClauseStmt]
    output: str
    consequent: float


@dataclass
class FisDocument:
    """Parsed form of a ``.fis`` source: declarations in source order."""

    variables: list[VarDecl] = field(default_factory=list)
    rules: list[RuleStmt] = field(default_factory=list)
    and_operator: str = "min"


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_/]*|-?\d+(?:\.\d+)?|[\[\]=]|\S")
_NUM_RE = re.compile(r"-?\d+(?:\.\d+)?$")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_/]*$")


class _Line:
    """Token cursor over one source line."""

    def __init__(self, lineno: int, text: str):
        self.lineno = lineno
        body = text.split("#", 1)[0]
        self.tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(body)]
        self.pos = 0

    def peek(self) -> tuple[str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect: str) -> tuple[str, int]:
        got = self.peek()
        if got is None:
            last_col = self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1
            raise ParseError(self.lineno, last_col, f"expected {expect}, got end of line")
        self.pos += 1
        return got

    def keyword(self, word: str) -> None:
        tok, col = self.next(f"'{word}'")
        if tok != word:
            raise ParseError(self.lineno, col, f"expected '{word}', got {tok!r}")

    def ident(self, what: str) -> tuple[str, int]:
        tok, col = self.next(what)
        if not _IDENT_RE.match(tok):
            raise ParseError(self.lineno, col, f"expected {what}, got {tok!r}")
        return tok, col

    def number(self, what: str = "a number") -> tuple[float, int]:
        tok, col = self.next(what)
        if not _NUM_RE.match(tok):
            raise ParseError(self.lineno, col, f"expected {what}, got {tok!r}")
        value = float(tok)
        if not math.isfinite(value):
            raise ParseError(self.lineno, col, f"number {tok[:24]}... is too large")
        return value, col

    def end(self) -> None:
        got = self.peek()
        if got is not None:
            raise ParseError(self.lineno, got[1], f"unexpected trailing {got[0]!r}")


def parse(source: str) -> FisDocument:
    """Parse ``.fis`` source text into a document, or raise ParseError.

    Only the grammar is checked here; cross-reference validation happens in
    ``build_fis``.  An empty document (no variable declarations) is an error.
    """
    doc = FisDocument()
    current_var: VarDecl | None = None
    saw_directive = False
    for number, raw in enumerate(source.splitlines(), start=1):
        line = _Line(number, raw)
        if not line.tokens:
            continue
        word, col = line.next("a statement")
        if word == "variable":
            kind, kcol = line.next("'input' or 'output'")
            if kind not in ("input", "output"):
                raise ParseError(number, kcol, f"expected 'input' or 'output', got {kind!r}")
            name, ncol = line.ident("a variable name")
            unit = ""
            if line.peek() and line.peek()[0] == "[":
                line.next("'['")
                unit, _ = line.ident("a unit")
                tok, ccol = line.next("']'")
                if tok != "]":
                    raise ParseError(number, ccol, f"expected ']', got {tok!r}")
            line.keyword("domain")
            lo, _ = line.number("the domain lower bound")
            hi, _ = line.number("the domain upper bound")
            line.end()
            current_var = VarDecl(number, ncol, kind, name, unit, lo, hi)
            doc.variables.append(current_var)
        elif word == "mf":
            if current_var is None:
                raise ParseError(number, col, "mf declaration before any variable")
            term, tcol = line.ident("a term name")
            line.keyword("trap")
            points = tuple(line.number("a breakpoint")[0] for _ in range(4))
            line.end()
            current_var.mfs.append(MfDecl(number, tcol, term, points))
        elif word == "rule":
            line.keyword("IF")
            clauses = []
            while True:
                var, vcol = line.ident("a variable name")
                line.keyword("IS")
                term, _ = line.ident("a term name")
                clauses.append(ClauseStmt(number, vcol, var, term))
                conj, ccol = line.next("'AND' or 'THEN'")
                if conj == "THEN":
                    break
                if conj != "AND":
                    raise ParseError(number, ccol, f"expected 'AND' or 'THEN', got {conj!r}")
            output, _ = line.ident("the output variable name")
            tok, ecol = line.next("'='")
            if tok != "=":
                raise ParseError(number, ecol, f"expected '=', got {tok!r}")
            value, _ = line.number("the consequent value")
            line.end()
            doc.rules.append(RuleStmt(number, col, clauses, output, value))
        elif word == "set":
            line.keyword("and_operator")
            op, ocol = line.next("'min' or 'product'")
            if op not in ("min", "product"):
                raise ParseError(number, ocol, f"expected 'min' or 'product', got {op!r}")
            line.end()
            if saw_directive:
                raise ParseError(number, col, "duplicate and_operator directive")
            saw_directive = True
            doc.and_operator = op
        else:
            raise ParseError(
                number, col, f"expected 'variable', 'mf', 'rule' or 'set', got {word!r}"
            )
    if not doc.variables:
        raise ParseError(1, 1, "no variables declared")
    return doc


def build_fis(doc: FisDocument) -> SugenoFis:
    """Build the system a document describes, or raise FisValidationError
    with every violation found, each at its line and column, in line order.

    The engine's constructors check the invariants.  This function checks
    only what they cannot see (the number of output declarations, ``mf``
    lines under an output, each rule's ``THEN`` name) and maps the location
    of each problem they report to the declaration, rule or clause it names.
    Declarations come first: every ``mf`` line becomes a TrapezoidMF, and
    every input a FuzzyVariable of the terms that passed.  Only when every
    declaration is valid is the SugenoFis built, which checks the rules
    together with the distinct variable names and the non-empty output
    domain, so an invalid variable never makes the clauses that name it
    look unknown.
    """
    errors: list[ParseError] = []
    outputs = [decl for decl in doc.variables if decl.kind == "output"]
    if not outputs:
        errors.append(ParseError(1, 1, "no output variable declared"))
    elif len(outputs) > 1:
        extra = outputs[1]
        errors.append(ParseError(extra.line, extra.column, "more than one output variable"))
    for decl in outputs:
        if decl.mfs:
            mf = decl.mfs[0]
            errors.append(
                ParseError(mf.line, mf.column, "output variables take no membership functions")
            )

    inputs: list[tuple[VarDecl, FuzzyVariable]] = []
    for decl in doc.variables:
        if decl.kind != "input":
            continue
        terms: list[tuple[MfDecl, TrapezoidMF]] = []
        for mf in decl.mfs:
            try:
                terms.append((mf, TrapezoidMF(*mf.points)))
            except FisConfigError as exc:
                errors += _located(exc, {}, mf)
        try:
            var = FuzzyVariable(
                name=decl.name,
                unit=decl.unit,
                domain=(decl.lo, decl.hi),
                terms=tuple((mf.term, trapezoid) for mf, trapezoid in terms),
            )
        except FisConfigError as exc:
            errors += _located(exc, {("terms", j): mf for j, (mf, _) in enumerate(terms)}, decl)
        else:
            inputs.append((decl, var))
    if errors:
        raise FisValidationError(sorted(errors, key=lambda e: e.line))

    output = outputs[0]
    for stmt in doc.rules:
        if stmt.output != output.name:
            errors.append(ParseError(
                stmt.line, stmt.column,
                f"rule assigns {stmt.output!r}, the output variable is {output.name!r}",
            ))
    try:
        fis = SugenoFis(
            inputs=tuple(var for _, var in inputs),
            output_name=output.name,
            output_domain=(output.lo, output.hi),
            rules=tuple(
                Rule(tuple((c.variable, c.term) for c in stmt.clauses), stmt.consequent)
                for stmt in doc.rules
            ),
            and_operator=doc.and_operator,
        )
    except FisConfigError as exc:
        nodes: dict[Location, object] = {("output_name",): output, ("output_domain",): output}
        nodes.update({("inputs", i): decl for i, (decl, _) in enumerate(inputs)})
        for k, stmt in enumerate(doc.rules):
            nodes[("rules", k)] = stmt
            nodes.update({("rules", k, c): clause for c, clause in enumerate(stmt.clauses)})
        errors += _located(exc, nodes, None)
    if errors:
        raise FisValidationError(sorted(errors, key=lambda e: e.line))
    return fis


def _located(exc: FisConfigError, nodes: dict, default) -> list[ParseError]:
    """Position each of the engine's problems at the node its location
    names, else at ``default``, else at line 1, column 1."""
    errors = []
    for location, message in exc.problems:
        node = nodes.get(location, default)
        line, column = (node.line, node.column) if node is not None else (1, 1)
        errors.append(ParseError(line, column, message))
    return errors


def parse_fis(source: str) -> SugenoFis:
    """Parse and validate in one step."""
    return build_fis(parse(source))


def load_fis(path) -> SugenoFis:
    """``parse_fis`` of a UTF-8 file; a leading byte-order mark is ignored."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_fis(handle.read())


def _format_number(value: float) -> str:
    """Canonical number form: integers without a fraction, full precision
    positional decimals otherwise (repr round-trips, Decimal drops the
    exponent notation the grammar does not allow)."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return format(Decimal(repr(value)), "f")


def _identifier(name: str, what: str) -> str:
    """``name`` itself, or ValueError if the grammar cannot read it back."""
    if not _IDENT_RE.fullmatch(name):
        raise ValueError(f"cannot serialize {what} {name!r}: not a .fis identifier")
    return name


def serialize(fis: SugenoFis) -> str:
    """Render a system as canonical ``.fis`` text.

    parse(serialize(fis)) reconstructs a structurally identical system: rule
    order is preserved verbatim and numbers are printed with full round-trip
    precision.  A system the grammar cannot express raises ValueError: an
    input, output, term or non-empty unit name that is not an identifier,
    or a rule without clauses.
    """
    lines: list[str] = [f"set and_operator {fis.and_operator}", ""]
    for var in fis.inputs:
        unit = f" [{_identifier(var.unit, 'unit')}]" if var.unit else ""
        lo, hi = var.domain
        lines.append(
            f"variable input {_identifier(var.name, 'input')}{unit} "
            f"domain {_format_number(lo)} {_format_number(hi)}"
        )
        for term_name, mf in var.terms:
            points = " ".join(_format_number(p) for p in (mf.a, mf.b, mf.c, mf.d))
            lines.append(f"  mf {_identifier(term_name, 'term')} trap {points}")
        lines.append("")
    lo, hi = fis.output_domain
    output = _identifier(fis.output_name, "output")
    lines.append(f"variable output {output} domain {_format_number(lo)} {_format_number(hi)}")
    lines.append("")
    for k, rule in enumerate(fis.rules, start=1):
        if not rule.antecedent:
            raise ValueError(f"cannot serialize rule {k}: it has no clause")
        clauses = " AND ".join(f"{var} IS {term}" for var, term in rule.antecedent)
        lines.append(f"rule IF {clauses} THEN {output} = {_format_number(rule.consequent)}")
    return "\n".join(lines).rstrip("\n") + "\n"
