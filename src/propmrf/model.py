"""Core model types and file formats.

A propositional Markov random field (PropMRF) is a set of Boolean variables
1..num_vars together with weighted ("soft") clauses and constraint ("hard")
clauses.  A total assignment x has potential

    prod_i  exp(w_i) if x satisfies soft clause i else 1

and contributes to the partition function Z only if it satisfies every hard
clause.  Literals are nonzero signed integers in the DIMACS convention:
variable v appears positively as v and negatively as -v.

Model file format::

    # comment ('c' also starts a comment)
    p pmrf <num_vars>
    h <lit> <lit> ... 0          one hard clause per line
    s <weight> <lit> ... 0       one soft clause per line; the weight is finite

Query file format: zero or more ``<lit> ... 0`` lines, each one clause of the
query conjunction.

Below the public entry points, every layer runs on a bare form of the model
(BareModel: frozensets of literals in a plain tuple).  to_bare, the one
function that knows both forms, builds it once per entry point from a
validated PropMRF; from_bare converts back, validating again.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Literal = int
Assignment = dict[int, bool]


def literal_key(lit: Literal) -> tuple[int, bool]:
    """Sort key placing literals in variable order, positive before negative."""
    return (abs(lit), lit < 0)


class ModelFormatError(ValueError):
    """Base class for model/query file parse errors; carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedLineError(ModelFormatError):
    pass


class LiteralRangeError(ModelFormatError):
    pass


class DuplicateVariableError(ModelFormatError):
    pass


class TautologyError(ModelFormatError):
    pass


@dataclass(frozen=True, init=False)
class Clause:
    """An immutable disjunction of literals over distinct variables.

    The empty clause is allowed and is unsatisfiable.  A clause containing a
    variable in both polarities would be a tautology and is rejected.
    """

    literals: frozenset[int]

    def __init__(self, literals: Iterable[int]):
        lits = frozenset(int(l) for l in literals)
        for lit in lits:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            if -lit in lits:
                raise ValueError(f"tautological clause: both {lit} and {-lit}")
        object.__setattr__(self, "literals", lits)

    def sorted_literals(self) -> tuple[int, ...]:
        return tuple(sorted(self.literals, key=literal_key))

    @property
    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for l in self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted_literals())

    def __contains__(self, lit: int) -> bool:
        return lit in self.literals

    def __repr__(self) -> str:
        return f"Clause({list(self.sorted_literals())})"


@dataclass(frozen=True)
class SoftClause:
    clause: Clause
    weight: float


@dataclass(frozen=True)
class PropMRF:
    """A weighted propositional model: variables 1..num_vars, hard and soft clauses."""

    num_vars: int
    hard: tuple[Clause, ...] = ()
    soft: tuple[SoftClause, ...] = ()

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        for clause in self.iter_clauses():
            for lit in clause.literals:
                if abs(lit) > self.num_vars:
                    raise ValueError(
                        f"literal {lit} out of range for {self.num_vars} variables"
                    )

    def iter_clauses(self) -> Iterator[Clause]:
        for c in self.hard:
            yield c
        for sc in self.soft:
            yield sc.clause

    def occurring_variables(self) -> frozenset[int]:
        occ: set[int] = set()
        for clause in self.iter_clauses():
            occ.update(clause.variables)
        return frozenset(occ)

    @property
    def num_clauses(self) -> int:
        return len(self.hard) + len(self.soft)

    @staticmethod
    def from_lists(
        num_vars: int,
        hard: Sequence[Sequence[int]] = (),
        soft: Sequence[tuple[float, Sequence[int]]] = (),
    ) -> "PropMRF":
        """Convenience builder: soft entries are (weight, literals) pairs."""
        return PropMRF(
            num_vars,
            tuple(Clause(lits) for lits in hard),
            tuple(SoftClause(Clause(lits), float(w)) for w, lits in soft),
        )


def conjoin_query(m: PropMRF, query: Sequence[Clause]) -> PropMRF:
    """Return m with the query clauses appended as additional hard constraints."""
    for clause in query:
        for lit in clause.literals:
            if abs(lit) > m.num_vars:
                raise ValueError(
                    f"query literal {lit} out of range for {m.num_vars} variables"
                )
    return PropMRF(m.num_vars, m.hard + tuple(query), m.soft)


def _is_comment(stripped: str) -> bool:
    return (
        not stripped
        or stripped.startswith("#")
        or stripped == "c"
        or stripped.startswith("c ")
    )


def _parse_clause_tokens(tokens: list[str], line_no: int, num_vars: int) -> Clause:
    if not tokens or tokens[-1] != "0":
        raise MalformedLineError(line_no, "clause line must end with 0")
    lits: list[int] = []
    for tok in tokens[:-1]:
        try:
            lit = int(tok)
        except ValueError:
            raise MalformedLineError(line_no, f"bad literal token {tok!r}") from None
        if lit == 0:
            raise MalformedLineError(line_no, "literal 0 before end of clause")
        if not 1 <= abs(lit) <= num_vars:
            raise LiteralRangeError(
                line_no, f"literal {lit} out of range 1..{num_vars}"
            )
        lits.append(lit)
    seen: dict[int, int] = {}
    for lit in lits:
        prev = seen.get(abs(lit))
        if prev is None:
            seen[abs(lit)] = lit
        elif prev == lit:
            raise DuplicateVariableError(
                line_no, f"variable {abs(lit)} appears twice"
            )
        else:
            raise TautologyError(
                line_no, f"variable {abs(lit)} appears in both polarities"
            )
    return Clause(lits)


def parse_model(text: str) -> PropMRF:
    """Parse the model file format.  Clause order is preserved."""
    num_vars: int | None = None
    hard: list[Clause] = []
    soft: list[SoftClause] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if _is_comment(stripped):
            continue
        tokens = stripped.split()
        if tokens[0] == "p":
            if num_vars is not None:
                raise MalformedLineError(line_no, "duplicate header line")
            if len(tokens) != 3 or tokens[1] != "pmrf":
                raise MalformedLineError(line_no, "header must be 'p pmrf <num_vars>'")
            try:
                num_vars = int(tokens[2])
            except ValueError:
                raise MalformedLineError(
                    line_no, f"bad variable count {tokens[2]!r}"
                ) from None
            if num_vars < 0:
                raise MalformedLineError(line_no, "variable count must be nonnegative")
            continue
        if num_vars is None:
            raise MalformedLineError(line_no, "clause before 'p pmrf' header")
        if tokens[0] == "h":
            hard.append(_parse_clause_tokens(tokens[1:], line_no, num_vars))
        elif tokens[0] == "s":
            if len(tokens) < 2:
                raise MalformedLineError(line_no, "soft clause missing weight")
            try:
                weight = float(tokens[1])
            except ValueError:
                raise MalformedLineError(
                    line_no, f"bad weight token {tokens[1]!r}"
                ) from None
            if not math.isfinite(weight):
                raise MalformedLineError(
                    line_no, f"soft clause weight {tokens[1]!r} is not finite"
                )
            clause = _parse_clause_tokens(tokens[2:], line_no, num_vars)
            soft.append(SoftClause(clause, weight))
        else:
            raise MalformedLineError(line_no, f"unknown line tag {tokens[0]!r}")
    if num_vars is None:
        raise MalformedLineError(1, "missing 'p pmrf' header")
    return PropMRF(num_vars, tuple(hard), tuple(soft))


def write_model(m: PropMRF) -> str:
    """Serialize a model; parse_model(write_model(m)) reproduces m exactly."""
    lines = [f"p pmrf {m.num_vars}"]
    for clause in m.hard:
        lines.append("h " + " ".join(str(l) for l in clause.sorted_literals()) + " 0")
    for sc in m.soft:
        lits = " ".join(str(l) for l in sc.clause.sorted_literals())
        lines.append(f"s {sc.weight!r} {lits} 0")
    return "\n".join(lines) + "\n"


def parse_query(text: str, num_vars: int) -> tuple[Clause, ...]:
    """Parse a query file: one clause per line, same error classes as models."""
    clauses: list[Clause] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if _is_comment(stripped):
            continue
        clauses.append(_parse_clause_tokens(stripped.split(), line_no, num_vars))
    return tuple(clauses)


def model_fingerprint(m: PropMRF) -> str:
    """sha256 over the canonical serialization, used in CLI reports."""
    return hashlib.sha256(write_model(m).encode()).hexdigest()


# The search's form of a model: (num_vars, hard, soft), each clause the
# frozenset of its literals and each soft clause a (literals, weight) pair.
# It is built only from a validated PropMRF, and the search derives from it
# only subsets and injective renamings of those clauses, so it needs no
# validation of its own.
BareClause = frozenset[int]
BareModel = tuple[int, tuple[BareClause, ...], tuple[tuple[BareClause, float], ...]]


def to_bare(m: "PropMRF | BareModel") -> BareModel:
    """The bare form of m; a model already in bare form is returned as is."""
    if not isinstance(m, PropMRF):
        return m
    return (
        m.num_vars,
        tuple(c.literals for c in m.hard),
        tuple((sc.clause.literals, sc.weight) for sc in m.soft),
    )


def from_bare(b: BareModel) -> PropMRF:
    """The validated PropMRF with the clauses of a bare model."""
    num_vars, hard, soft = b
    return PropMRF(
        num_vars,
        tuple(Clause(c) for c in hard),
        tuple(SoftClause(Clause(c), w) for c, w in soft),
    )


def compact_bare(
    hard: Sequence[BareClause],
    soft: Sequence[tuple[BareClause, float]],
    variables: Sequence[int],
) -> BareModel:
    """The clauses with the variables occurring in them, given ascending,
    renumbered to 1..k in the same order.  Every variable of the result
    occurs in some clause, which keeps its partition function free of stray
    factor-2 terms.  Clauses already over 1..k are kept as they are."""
    k = len(variables)
    if not k or variables[-1] == k:
        return (k, tuple(hard), tuple(soft))
    rename: dict[int, int] = {}
    for i, v in enumerate(variables, start=1):
        rename[v] = i
        rename[-v] = -i
    get = rename.__getitem__
    return (
        k,
        tuple(frozenset(map(get, c)) for c in hard),
        tuple((frozenset(map(get, c)), w) for c, w in soft),
    )
