"""Textual configuration language for a complete Sugeno inference system.

A ``.fis`` document is line oriented (UTF-8; LF, CRLF or CR), with ``#``
starting a comment.  Keywords are lower case, the rule connectives IF / IS /
AND / THEN are upper case, and identifiers are case sensitive::

    set and_operator min
    variable input TrafficFlow [veh/h] domain 0 6000
      mf Very_Low trap 0 0 1200 1600
      ...
    variable output LoS domain 0 6
    rule IF TrafficFlow IS Very_Low AND Speed IS High THEN LoS = 1

Numbers are plain ASCII decimals (optional minus sign and fraction, no
exponents).  Output variables declare a domain but no membership functions:
zeroth-order consequents are bare constants.  ``parse`` reports the first
syntax error with its 1-based line and column; ``regions.parse_regions``
reads ``.los`` files with the same line lexer.  ``build_fis`` then reports
every violation the engine's constructors find, each at the line and column
of the declaration, rule or clause it concerns, in two rounds: first the
declarations (the output count, every ``mf`` line, every input variable);
once those are valid, the system (variable names, output domain, rules).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

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
    """An ``mf`` line; ``line`` and ``column`` point at its term name."""

    line: int
    column: int
    term: str
    points: tuple[float, float, float, float]


@dataclass
class VarDecl:
    """A ``variable`` line; ``line`` and ``column`` point at the variable name."""

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
    """One ``X IS T`` clause of a rule; ``line`` and ``column`` point at ``X``."""

    line: int
    column: int
    variable: str
    term: str


@dataclass
class RuleStmt:
    """A ``rule`` line; ``line`` and ``column`` point at the keyword ``rule``."""

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


# Every token starts at a non-blank; the leading lookahead says so, which
# lets the scanner pass over blanks without trying each alternative there.
_TOKEN_RE = re.compile(r"(?=\S)(?:(?P<name>[A-Za-z_][A-Za-z0-9_/]*)"
                       r"|(?P<number>-?[0-9]+(?:\.[0-9]+)?)|\S)")


class _Line:
    """Token cursor over one source line that holds a token.  Each token is
    its ``_TOKEN_RE`` match object: the text is ``m[0]``, the 1-based column
    ``m.start() + 1`` and the kind ``m.lastgroup``: "name", "number", or None
    for any other single character."""

    def __init__(self, lineno: int, tokens: list[re.Match[str]]):
        self.lineno = lineno
        self.tokens = tokens
        self.pos = 0

    def take(self, expect: str, kind: str) -> re.Match[str]:
        """The next token, which must be of ``kind``."""
        tokens, pos = self.tokens, self.pos
        if pos < len(tokens) and tokens[pos].lastgroup == kind:
            self.pos = pos + 1
            return tokens[pos]
        raise self._expected(expect)

    def keyword(self, *words: str) -> str:
        """The next token, which must be one of ``words``."""
        tokens, pos = self.tokens, self.pos
        if pos < len(tokens) and (word := tokens[pos][0]) in words:
            self.pos = pos + 1
            return word
        quoted = [f"'{word}'" for word in words]
        expect = f"{', '.join(quoted[:-1])} or {quoted[-1]}" if len(quoted) > 1 else quoted[0]
        raise self._expected(expect)

    def number(self, what: str) -> float:
        tok = self.take(what, "number")
        value = float(tok[0])
        if not math.isfinite(value):
            raise ParseError(self.lineno, tok.start() + 1, f"number {tok[0][:24]}... is too large")
        return value

    def count(self, what: str) -> int:
        """A non-negative integer in plain ASCII digits."""
        tok = self.take(what, "number")
        text = tok[0]
        if not text.isdigit():
            raise ParseError(self.lineno, tok.start() + 1, f"expected {what}, got {text!r}")
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            message = f"{what} {text[:24]}... is too large"
            raise ParseError(self.lineno, tok.start() + 1, message) from None

    def end(self) -> None:
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            raise ParseError(self.lineno, tok.start() + 1, f"unexpected trailing {tok[0]!r}")

    def _expected(self, expect: str) -> ParseError:
        """The error for a next token that is not ``expect``, or is missing."""
        if self.pos == len(self.tokens):
            column = self.tokens[-1].end() + 1
            return ParseError(self.lineno, column, f"expected {expect}, got end of line")
        tok = self.tokens[self.pos]
        return ParseError(self.lineno, tok.start() + 1, f"expected {expect}, got {tok[0]!r}")


def _statements(source: str):
    """A ``_Line`` for each line of ``source`` that holds a token.  A line
    ends at LF, CRLF or CR and nowhere else; the tokenizer reads any other
    line or paragraph separator as a blank."""
    for number, raw in enumerate(source.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        tokens = list(_TOKEN_RE.finditer(raw.split("#", 1)[0] if "#" in raw else raw))
        if tokens:
            yield _Line(number, tokens)


def parse(source: str) -> FisDocument:
    """Parse ``.fis`` source text into a document, or raise ParseError.

    Only the grammar is checked here; cross-reference validation happens in
    ``build_fis``.  An empty document (no variable declarations) is an error.
    """
    doc = FisDocument()
    current_var: VarDecl | None = None
    saw_directive = False
    for line in _statements(source):
        word = line.keyword("variable", "mf", "rule", "set")
        col = line.tokens[0].start() + 1
        if word == "variable":
            kind = line.keyword("input", "output")
            name = line.take("a variable name", "name")
            unit = ""
            if line.pos < len(line.tokens) and line.tokens[line.pos][0] == "[":
                line.keyword("[")
                unit = line.take("a unit", "name")[0]
                line.keyword("]")
            line.keyword("domain")
            lo = line.number("the domain lower bound")
            hi = line.number("the domain upper bound")
            line.end()
            current_var = VarDecl(line.lineno, name.start() + 1, kind, name[0], unit, lo, hi)
            doc.variables.append(current_var)
        elif word == "mf":
            if current_var is None:
                raise ParseError(line.lineno, col, "mf declaration before any variable")
            term = line.take("a term name", "name")
            line.keyword("trap")
            points = tuple(map(line.number, ("a breakpoint",) * 4))
            line.end()
            current_var.mfs.append(MfDecl(line.lineno, term.start() + 1, term[0], points))
        elif word == "rule":
            line.keyword("IF")
            clauses = []
            while True:
                var = line.take("a variable name", "name")
                line.keyword("IS")
                term = line.take("a term name", "name")[0]
                clauses.append(ClauseStmt(line.lineno, var.start() + 1, var[0], term))
                if line.keyword("AND", "THEN") == "THEN":
                    break
            output = line.take("the output variable name", "name")[0]
            line.keyword("=")
            value = line.number("the consequent value")
            line.end()
            doc.rules.append(RuleStmt(line.lineno, col, clauses, output, value))
        else:
            line.keyword("and_operator")
            op = line.keyword("min", "product")
            line.end()
            if saw_directive:
                raise ParseError(line.lineno, col, "duplicate and_operator directive")
            saw_directive = True
            doc.and_operator = op
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
            rules=tuple([
                Rule(tuple([(c.variable, c.term) for c in stmt.clauses]), stmt.consequent)
                for stmt in doc.rules
            ]),
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


def _read_text(path) -> str:
    """The text of a UTF-8 file without a leading byte-order mark, its
    newlines kept as they are: the CSV reader splits records itself, and
    the ``.fis`` and ``.los`` line lexer ends a line at LF, CRLF or a lone
    CR, as universal newlines do, and at nothing else."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        return handle.read()


def load_fis(path) -> SugenoFis:
    """``parse_fis`` of a UTF-8 file; a leading byte-order mark is ignored."""
    return parse_fis(_read_text(path))


def _format_number(value: float) -> str:
    """Canonical number form: integers without a fraction, full precision
    positional decimals otherwise (repr round-trips, Decimal drops the
    exponent notation the grammar does not allow)."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    from decimal import Decimal

    return format(Decimal(repr(value)), "f")


def _identifier(name: str, what: str) -> str:
    """``name`` itself, or ValueError unless the reader takes it as one name token."""
    match = _TOKEN_RE.fullmatch(name)
    if match is None or match.lastgroup != "name":
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
