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

The absolute values of the soft weights sum to at most MAX_TOTAL_WEIGHT
(1e300), so every log potential, every difference of two, and log Z when Z
is not zero are finite.

Query file format: zero or more ``<lit> ... 0`` lines, each one clause of the
query conjunction.

A model has one form throughout the package: a Clause is the frozenset of
its literals, a SoftClause the pair (clause, weight), and a PropMRF the
triple (num_vars, hard, soft).  The PropMRF constructor is the one place
that validates.  The exact engines, belief propagation and the search's
steps also take a plain tuple of plain frozensets of that shape
(BareModel), which is what the search builds as it derives submodels.
"""

from __future__ import annotations

import hashlib
import math
import operator
from typing import Iterable, Iterator, NamedTuple, Sequence

Literal = int

MAX_TOTAL_WEIGHT = 1e300


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


class Clause(frozenset):
    """An immutable disjunction of literals over distinct variables: the
    frozenset of its literals.

    The empty clause is allowed and is unsatisfiable.  Literal 0, a
    non-integer literal and a variable in both polarities (a tautology) are
    rejected.  A Clause passed in is returned as is.
    """

    __slots__ = ()

    def __new__(cls, literals: Iterable[int]) -> "Clause":
        if isinstance(literals, Clause):
            return literals
        lits = super().__new__(cls, map(operator.index, literals))
        for lit in lits:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            if -lit in lits:
                raise ValueError(f"tautological clause: both {lit} and {-lit}")
        return lits

    def sorted_literals(self) -> tuple[int, ...]:
        return tuple(sorted(self, key=literal_key))

    @property
    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for l in self)

    def __repr__(self) -> str:
        return f"Clause({list(self.sorted_literals())})"


class SoftClause(NamedTuple):
    clause: Clause
    weight: float


class _Model(NamedTuple):
    num_vars: int
    hard: tuple[Clause, ...] = ()
    soft: tuple[SoftClause, ...] = ()


class PropMRF(_Model):
    """A weighted propositional model: variables 1..num_vars, hard and soft
    clauses, as the triple (num_vars, hard, soft).

    The constructor validates: num_vars is a nonnegative integer, each hard
    clause becomes a Clause and each soft (clause, weight) pair a SoftClause
    with a finite float weight, the absolute weights sum to at most
    MAX_TOTAL_WEIGHT, and every literal names a variable in range.
    Unpickling, _make and _replace run it again.
    """

    __slots__ = ()

    def __new__(
        cls,
        num_vars: int,
        hard: Iterable[Iterable[int]] = (),
        soft: Iterable[tuple[Iterable[int], float]] = (),
    ) -> "PropMRF":
        num_vars = operator.index(num_vars)
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        hard = tuple(map(Clause, hard))
        soft = tuple(SoftClause(Clause(c), float(w)) for c, w in soft)
        total = 0.0
        for _, weight in soft:
            if not math.isfinite(weight):
                raise ValueError(f"soft clause weight {weight!r} is not finite")
            total += abs(weight)
        if total > MAX_TOTAL_WEIGHT:
            raise ValueError(
                f"the absolute soft clause weights sum to {total!r}, "
                f"beyond {MAX_TOTAL_WEIGHT!r}"
            )
        m = super().__new__(cls, num_vars, hard, soft)
        for clause in m.iter_clauses():
            for lit in clause:
                if abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} out of range for {num_vars} variables")
        return m

    @classmethod
    def _make(cls, iterable: Iterable) -> "PropMRF":
        return cls(*iterable)

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
        return PropMRF(num_vars, hard, ((lits, w) for w, lits in soft))


def conjoin_query(m: PropMRF, query: Sequence[Clause]) -> PropMRF:
    """Return m with the query clauses appended as additional hard constraints;
    the constructor rejects a query literal out of range."""
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
    total_weight = 0.0
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
            total_weight += abs(weight)
            if total_weight > MAX_TOTAL_WEIGHT:
                raise MalformedLineError(
                    line_no,
                    f"the absolute soft clause weights sum beyond {MAX_TOTAL_WEIGHT!r}",
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


# The plain form of a model that the search builds: (num_vars, hard, soft),
# each clause a frozenset of literals and each soft clause a (literals,
# weight) pair.  A PropMRF is one; the search derives from it only subsets
# and injective renamings of its clauses, so a derived model needs no
# validation of its own.
BareClause = frozenset[int]
BareModel = tuple[int, tuple[BareClause, ...], tuple[tuple[BareClause, float], ...]]


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
