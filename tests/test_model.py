import math

import pytest

from propmrf import (
    Clause,
    DuplicateVariableError,
    LiteralRangeError,
    MalformedLineError,
    ModelFormatError,
    PropMRF,
    SoftClause,
    TautologyError,
    conjoin_query,
    model_fingerprint,
    parse_model,
    parse_query,
    write_model,
)
from propmrf.model import compact_bare, literal_key, to_bare


def test_literal_key_orders_by_variable_then_sign():
    lits = [-3, 1, 2, -1, 3, -2]
    assert sorted(lits, key=literal_key) == [1, -1, 2, -2, 3, -3]


def test_clause_basic_properties():
    c = Clause([3, -1, 2])
    assert c.sorted_literals() == (-1, 2, 3)
    assert c.variables == frozenset({1, 2, 3})
    assert len(c) == 3
    assert list(c) == [-1, 2, 3]
    assert -1 in c and 1 not in c


def test_clause_deduplicates_repeated_literals():
    assert Clause([2, 2, -1]).sorted_literals() == (-1, 2)


def test_clause_rejects_zero_and_tautology():
    with pytest.raises(ValueError):
        Clause([1, 0])
    with pytest.raises(ValueError):
        Clause([1, -1])


def test_empty_clause_is_allowed():
    assert len(Clause([])) == 0


def test_propmrf_validates_literal_range():
    with pytest.raises(ValueError):
        PropMRF(2, (Clause([3]),), ())
    with pytest.raises(ValueError):
        PropMRF.from_lists(1, soft=[(0.5, [1, -2])])


def test_from_lists_and_counts():
    m = PropMRF.from_lists(3, hard=[[1, 2]], soft=[(0.5, [-3])])
    assert m.num_clauses == 2
    assert m.occurring_variables() == frozenset({1, 2, 3})
    assert m.soft[0].weight == 0.5


def test_conjoin_query_appends_hard_clauses():
    m = PropMRF.from_lists(3, hard=[[1]], soft=[(1.0, [2, 3])])
    out = conjoin_query(m, (Clause([-2]),))
    assert len(out.hard) == 2
    assert out.soft == m.soft
    with pytest.raises(ValueError):
        conjoin_query(m, (Clause([4]),))


def test_parse_model_round_trip_exact():
    m = PropMRF.from_lists(
        5,
        hard=[[1, -2], [3]],
        soft=[(0.1234567890123456789, [4, 5]), (-2.5, [-1, 5])],
    )
    again = parse_model(write_model(m))
    assert again == m
    assert model_fingerprint(again) == model_fingerprint(m)


def test_parse_model_comments_and_blank_lines():
    text = """
# a comment
c another comment
p pmrf 3

h 1 -2 0
s 0.5 3 0
"""
    m = parse_model(text)
    assert m.num_vars == 3
    assert m.hard == (Clause([1, -2]),)
    assert m.soft == (SoftClause(Clause([3]), 0.5),)


def test_parse_model_errors_name_line_numbers():
    with pytest.raises(MalformedLineError) as err:
        parse_model("h 1 0\n")
    assert err.value.line_no == 1

    with pytest.raises(MalformedLineError) as err:
        parse_model("p pmrf 2\nh 1 2\n")
    assert err.value.line_no == 2

    with pytest.raises(LiteralRangeError) as err:
        parse_model("p pmrf 2\nh 1 0\nh 3 0\n")
    assert err.value.line_no == 3

    with pytest.raises(DuplicateVariableError) as err:
        parse_model("p pmrf 2\ns 0.5 1 1 0\n")
    assert err.value.line_no == 2

    with pytest.raises(TautologyError) as err:
        parse_model("p pmrf 2\nh 1 -1 0\n")
    assert err.value.line_no == 2

    with pytest.raises(MalformedLineError):
        parse_model("p pmrf 2\nq 1 0\n")
    with pytest.raises(MalformedLineError):
        parse_model("p pmrf 2\ns notaweight 1 0\n")
    with pytest.raises(MalformedLineError):
        parse_model("p pmrf x\n")
    with pytest.raises(MalformedLineError):
        parse_model("p pmrf 2\np pmrf 2\n")
    with pytest.raises(MalformedLineError):
        parse_model("")


@pytest.mark.parametrize("weight", ["inf", "-inf", "nan"])
def test_parse_model_rejects_non_finite_weights(weight):
    with pytest.raises(MalformedLineError) as err:
        parse_model(f"p pmrf 2\ns {weight} 1 2 0\n")
    assert err.value.line_no == 2


def test_parse_model_errors_are_value_errors():
    assert issubclass(ModelFormatError, ValueError)
    assert issubclass(TautologyError, ModelFormatError)


def test_parse_query():
    query = parse_query("1 -2 0\n# skip\n3 0\n", num_vars=3)
    assert query == (Clause([1, -2]), Clause([3]))
    with pytest.raises(LiteralRangeError):
        parse_query("4 0\n", num_vars=3)
    with pytest.raises(MalformedLineError):
        parse_query("1 2\n", num_vars=3)


def test_write_model_preserves_weight_bits():
    weight = math.pi / 7.0
    m = PropMRF.from_lists(1, soft=[(weight, [1])])
    assert parse_model(write_model(m)).soft[0].weight == weight


def test_fingerprint_distinguishes_models():
    a = PropMRF.from_lists(2, soft=[(0.5, [1])])
    b = PropMRF.from_lists(2, soft=[(0.5000001, [1])])
    assert model_fingerprint(a) != model_fingerprint(b)


def test_compact_bare_renumbers_in_ascending_order():
    m = compact_bare((frozenset({7, -4}),), ((frozenset({-9, 7}), 0.3),), [4, 7, 9])
    assert m == to_bare(
        PropMRF.from_lists(3, hard=[[-1, 2]], soft=[(0.3, [2, -3])])
    )
