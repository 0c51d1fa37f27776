import math
import pickle

import numpy as np
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
    fdc_count,
    gen_random,
    model_fingerprint,
    parse_model,
    parse_query,
    pick_evidence,
    run_bp,
    ve_count,
    write_model,
)
from propmrf.model import compact_bare, literal_key


def test_literal_key_orders_by_variable_then_sign():
    lits = [-3, 1, 2, -1, 3, -2]
    assert sorted(lits, key=literal_key) == [1, -1, 2, -2, 3, -3]


def test_clause_basic_properties():
    c = Clause([3, -1, 2])
    assert c.sorted_literals() == (-1, 2, 3)
    assert c.variables == frozenset({1, 2, 3})
    assert len(c) == 3
    assert set(c) == {-1, 2, 3}
    assert -1 in c and 1 not in c


def test_clause_is_the_frozenset_of_its_literals():
    c = Clause([3, -1, 2])
    assert isinstance(c, frozenset)
    assert c == frozenset({-1, 2, 3}) and hash(c) == hash(frozenset({-1, 2, 3}))
    assert Clause(c) is c
    assert repr(c) == "Clause([-1, 2, 3])"
    assert c - {2} == frozenset({-1, 3})


def test_literals_and_num_vars_must_be_integers():
    with pytest.raises(TypeError):
        Clause([1.5, -2.9])
    with pytest.raises(TypeError):
        PropMRF(2.5)
    with pytest.raises(TypeError):
        PropMRF.from_lists(2, hard=[[1.0]])
    # numpy integers are integers
    m = PropMRF(np.int64(2), [Clause([np.int64(1), np.int32(-2)])])
    assert m.num_vars == 2 and type(m.num_vars) is int
    assert m.hard == (Clause([1, -2]),)
    assert all(type(lit) is int for lit in m.hard[0])


@pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
def test_propmrf_rejects_non_finite_weights(weight):
    with pytest.raises(ValueError):
        PropMRF(2, (), (SoftClause(Clause([1, 2]), weight),))
    with pytest.raises(ValueError):
        PropMRF.from_lists(2, soft=[(weight, [1, 2])])


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
    with pytest.raises(ValueError, match="num_vars must be nonnegative"):
        PropMRF(-1)


def test_propmrf_is_its_triple():
    m = PropMRF.from_lists(3, hard=[[1, 2]], soft=[(0.5, [-3])])
    num_vars, hard, soft = m
    assert (num_vars, hard, soft) == (3, (frozenset({1, 2}),), ((frozenset({-3}), 0.5),))
    # The constructor turns a plain triple into the validated types.
    plain = PropMRF(3, [frozenset({1, 2})], [(frozenset({-3}), 0.5)])
    assert plain == m
    assert type(plain.hard[0]) is Clause and type(plain.soft[0]) is SoftClause
    assert type(plain.soft[0].clause) is Clause
    assert PropMRF(*m) == m


def test_pickle_round_trip_validates_again():
    m = PropMRF.from_lists(3, hard=[[1, 2]], soft=[(0.5, [-3])])
    again = pickle.loads(pickle.dumps(m))
    assert again == m and type(again) is PropMRF
    assert type(again.hard[0]) is Clause and type(again.soft[0]) is SoftClause
    # Objects built around the constructors do not survive a round trip.
    out_of_range = tuple.__new__(PropMRF, (1, (Clause([2]),), ()))
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(out_of_range))
    tautology = frozenset.__new__(Clause, [1, -1])
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(tautology))
    # The tuple's own builders validate too.
    assert type(m._replace(num_vars=4)) is PropMRF
    with pytest.raises(ValueError):
        m._replace(num_vars=2)
    with pytest.raises(ValueError):
        PropMRF._make((1, [[5]], ()))


def test_engines_agree_on_a_plain_triple():
    for seed in range(4):
        m = pick_evidence(gen_random(12, 12, 3, seed=seed), 0.2, seed=seed)
        plain = (
            m.num_vars,
            tuple(frozenset(c) for c in m.hard),
            tuple((frozenset(c), w) for c, w in m.soft),
        )
        assert type(plain[1][0]) is frozenset
        a, b = fdc_count(m), fdc_count(plain)
        assert a.log_z.hex() == b.log_z.hex() and a.stats == b.stats
        assert ve_count(m).hex() == ve_count(plain).hex()
        bp_m, bp_plain = run_bp(m), run_bp(plain)
        assert bp_m.variable_p_true.tobytes() == bp_plain.variable_p_true.tobytes()
        assert (bp_m.iterations, bp_m.converged) == (bp_plain.iterations, bp_plain.converged)


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


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("p pmrf 2\nh 1 x 0\n", 2, "bad literal token 'x'"),
        ("p pmrf 2\nh 1 0 2 0\n", 2, "literal 0 before end of clause"),
        ("p cnf 2\n", 1, "header must be"),
        ("# c\np pmrf\n", 2, "header must be"),
        ("p pmrf -1\n", 1, "variable count must be nonnegative"),
        ("p pmrf 2\nh 1 0\ns\n", 3, "soft clause missing weight"),
    ],
)
def test_parse_model_refusals_name_the_line(text, line_no, message):
    with pytest.raises(MalformedLineError, match=message) as err:
        parse_model(text)
    assert err.value.line_no == line_no


@pytest.mark.parametrize("weight", ["inf", "-inf", "nan"])
def test_parse_model_rejects_non_finite_weights(weight):
    with pytest.raises(MalformedLineError) as err:
        parse_model(f"p pmrf 2\ns {weight} 1 2 0\n")
    assert err.value.line_no == 2


def test_propmrf_bounds_the_sum_of_absolute_weights():
    # 750 is beyond exp's range, and far inside the bound of 1e300
    PropMRF.from_lists(2, soft=[(750.0, [1]), (-750.0, [2])])
    PropMRF.from_lists(2, soft=[(4e299, [1]), (-4e299, [2])])
    for weights in ((6e299, -6e299), (1e308, 1e308)):
        with pytest.raises(ValueError, match="beyond 1e\\+300"):
            PropMRF.from_lists(2, soft=[(weights[0], [1]), (weights[1], [2])])


def test_parse_model_names_the_line_where_the_weights_pass_the_bound():
    with pytest.raises(MalformedLineError) as err:
        parse_model("p pmrf 2\ns 6e299 1 0\nh 2 0\ns -6e299 2 0\n")
    assert err.value.line_no == 4


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
    assert m == PropMRF.from_lists(3, hard=[[-1, 2]], soft=[(0.3, [2, -3])])
