from fractions import Fraction

import pytest

from overlap_lab.bounds import (
    BoundReport,
    bde_check,
    conj1_value,
    conj2_bound,
    d_vec,
    evaluate_bound,
    g,
    g_argmax,
    gb_emc_bound,
    hilton_bound,
    solver_weights,
    thm1_bound,
    thm2_value,
    thm3_value,
    thm4_threshold,
    thm4_value,
    u_eval,
    u_zero,
    weight_vector,
)
from overlap_lab.cli import main
from overlap_lab.combinatorics import binom
from overlap_lab.family import Family
from overlap_lab.matching import matching_number


def test_weight_vector_validation():
    assert weight_vector([3, 1, 1]) == (Fraction(3), Fraction(1), Fraction(1))
    assert weight_vector(["7/2", 2]) == (Fraction(7, 2), Fraction(2))
    with pytest.raises(ValueError):
        weight_vector([1, 2])
    with pytest.raises(ValueError):
        weight_vector([1, 0])
    with pytest.raises(ValueError):
        weight_vector([])
    for bad in ("1/0", True, float("inf")):
        with pytest.raises(ValueError):
            weight_vector([bad, 1])
    assert weight_vector([2, "1/2"], 2) == (Fraction(2), Fraction(1, 2))
    with pytest.raises(ValueError):
        weight_vector([2, 1], 3)


def test_solver_weights_zero_prefix():
    assert solver_weights([0, 1, 1]) == (0, 1, 1)
    with pytest.raises(ValueError):
        solver_weights([0, 0])
    with pytest.raises(ValueError):
        solver_weights([1, 0, 1])  # zero after a positive entry
    with pytest.raises(ValueError):
        solver_weights([-1, 1])
    for bad in ("1/0", True, float("inf")):
        with pytest.raises(ValueError):
            solver_weights([bad, 1])
    assert solver_weights([1, 0]) == (1, 0)  # a trailing zero
    assert solver_weights(["0", "7/2", 1], 3) == (0, Fraction(7, 2), 1)
    with pytest.raises(ValueError):
        solver_weights([0, 1], 3)


def test_weight_messages_show_weights_as_written():
    cases = [
        (weight_vector, [Fraction(7, 2), 0], "(7/2, 0)"),
        (weight_vector, ["1/3", 1], "(1/3, 1)"),
        (solver_weights, [-1, "5/2"], "(-1, 5/2)"),
        (solver_weights, [1, 0, "1/2"], "(1, 0, 1/2)"),
    ]
    for validate, ws, shown in cases:
        with pytest.raises(ValueError) as exc:
            validate(ws)
        assert "Fraction(" not in str(exc.value)
        assert str(exc.value).endswith(f"got {shown}")


def test_hilton_bound_values():
    assert hilton_bound(4, 2, 3) == 9
    assert hilton_bound(4, 2, 1) == 6
    for k in (1, 2, 3, 4):
        # at n = 2k with two families the branches coincide
        assert binom(2 * k, k) == 2 * binom(2 * k - 1, k - 1)
        assert hilton_bound(2 * k, k, 2) == binom(2 * k, k)


def test_thm1_bound_values():
    assert thm1_bound(6, 2, 1, 2) == max(2 * 15, 3 * 2 * 5) == 30
    assert thm1_bound(8, 2, 2, 1) == max(28, 3 * 7) == 28
    assert thm1_bound(9, 3, 2, 0) == 0


def test_g_values_and_identities():
    assert g(8, 2, 1, 2, 2) == 3 * 28 - 3 * 15 == 39
    for n in range(4, 20):
        for k in (1, 2, 3):
            for p in (1, 2, 5):
                for s in (1, 2, 3):
                    assert g(n, k, p, s, 0) == s * binom(n, k)
                    assert g(n, k, p, s, s) == (p + s) * (binom(n, k) - binom(n - s, k))
    with pytest.raises(ValueError):
        g(8, 2, 1, 2, 3)
    with pytest.raises(ValueError):
        g(8, 2, 1, 2, -1)


def test_g_argmax_scan():
    i_star, at_end = g_argmax(32, 2, 1, 2)
    assert at_end and i_star in (0, 2)
    assert g(32, 2, 1, 2, i_star) == max(g(32, 2, 1, 2, i) for i in range(3))
    assert g_argmax(10, 2, 1, 0) == (0, True)
    # exact tie between the endpoints resolves to the smaller index
    assert g(4, 1, 2, 2, 0) == g(4, 1, 2, 2, 2)
    assert g_argmax(4, 1, 2, 2) == (0, True)


def test_u_eval_endpoints_and_monotonicity():
    for n, k, p in [(8, 2, 1), (12, 3, 2), (9, 1, 4)]:
        assert u_eval(-p, n, k, p) == -1
        hi = u_eval(n - k, n, k, p)
        assert hi > 0
        xs = [Fraction(-p) + Fraction(i, 7) * (n - k + p) for i in range(8)]
        values = [u_eval(x, n, k, p) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        u_eval(Fraction(100), 8, 2, 1)


def test_u_zero_bracket():
    lo, hi = u_zero(10, 1, 4)
    # for k = 1 the zero solves (p+x)/(n-x) = 1, i.e. x = (n-p)/2
    root = Fraction(10 - 4, 2)
    assert lo <= root <= hi
    assert hi - lo <= Fraction(1, 2**20)
    assert u_eval(lo, 10, 1, 4) < 0 <= u_eval(hi, 10, 1, 4)


@pytest.mark.parametrize("n, k, p", [(2, 3, 1), (4, 2, -2)])
def test_u_zero_without_sign_change_is_usage_error(n, k, p, capsys):
    # [-p, n-k] is the single point -p, where u = -1: nothing to bracket
    with pytest.raises(ValueError, match="no sign change"):
        u_zero(n, k, p)
    argv = ["bounds", "--name", "u-zero", "--n", str(n), "--k", str(k), "--p", str(p)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: no sign change")


def test_thm2_values():
    assert thm2_value(8, 1, 5, 2) == max(2 * 8, 7 * (8 - 6)) == 16
    assert thm2_value(8, 1, 9, 2) == max(16, 11 * 2) == 22
    for n, k, p, s in [(8, 2, 1, 2), (16, 2, 3, 1), (12, 1, 4, 3)]:
        assert thm2_value(n, k, p, s) >= g(n, k, p, s, 0)
        assert thm2_value(n, k, p, s) == max(g(n, k, p, s, 0), g(n, k, p, s, s))


def test_thm2_large_p_regime():
    # p >= n/k with n >= 4k^2s forces the cover branch
    for n, k, s in [(8, 1, 2), (16, 2, 1)]:
        p = n // k
        assert thm2_value(n, k, p, s) == (p + s) * (binom(n, k) - binom(n - s, k))


def test_thm3_values():
    assert thm3_value(2, 1, (2, 1)) == 3 * binom(3, 2) == 9
    assert thm3_value(2, 1, (2, 1)) == hilton_bound(4, 2, 3)
    assert thm3_value(1, 1, (5, 2)) == 7
    for k, s in [(1, 2), (2, 1), (2, 2), (3, 1)]:
        # the count of k-sets avoiding one point of a (s+1)k universe
        assert binom((s + 1) * k - 1, k) == Fraction(s, s + 1) * binom((s + 1) * k, k)


def test_d_vec_values():
    for p in (1, 2, 5):
        for s in (1, 2, 3):
            assert d_vec((p,) + (1,) * s) == p + s
    assert d_vec((4, 2, 1)) == max(Fraction(7, 2), Fraction(14, 3)) == Fraction(14, 3)
    assert d_vec((1, 1)) == 2
    with pytest.raises(ValueError):
        d_vec((3,))


def test_thm4_threshold_and_value():
    assert thm4_threshold(1, (4, 2, 1)) == 5
    assert thm4_threshold(2, (2, 1)) == 6
    assert thm4_value(8, 2, (2, 1)) == binom(8, 2)
    assert thm4_value(6, 1, (4, 2, 1)) == 3 * 6


def test_gb_emc_bound():
    assert gb_emc_bound(5, 2, 1) == 4
    star = Family.from_sets(5, 2, [[1, 2], [1, 3], [1, 4], [1, 5]])
    assert len(star) == 4 and matching_number(star) == 1
    assert gb_emc_bound(6, 2, 2) == 10
    assert gb_emc_bound(9, 3, 0) == 0


def test_bde_examples():
    assert bde_check(10, 3, 2) == (True, True)
    # the exact rational chain at (10, 3, 2): 56/120 >= (5/7)^3 >= 1/7
    assert Fraction(binom(8, 3), binom(10, 3)) == Fraction(7, 15)
    assert Fraction(7, 15) >= Fraction(5, 7) ** 3 == Fraction(125, 343) >= Fraction(1, 7)
    assert 2 * binom(9, 2) == 72 >= binom(10, 3) - binom(8, 3) == 64 >= 2 * binom(8, 2) == 56
    assert bde_check(10, 3, 0) == (True, True)
    with pytest.raises(ValueError):
        bde_check(5, 5, 1)
    with pytest.raises(ValueError):
        bde_check(5, 2, 6)


def test_conjecture_values():
    assert conj1_value(4, 2, 2, 1) == max(6, 3 * 3, 3 * (6 - 3)) == 9
    assert conj2_bound(6, 2, 1) == max(binom(3, 2), 15 - 10) == 5
    for k, s, p in [(1, 1, 2), (2, 1, 3), (2, 2, 1)]:
        middle = (p + s) * binom((s + 1) * k - 1, k)
        assert middle == thm3_value(k, s, (p,) + (1,) * s)
        n = (s + 1) * k
        assert conj1_value(n, k, p, s) >= middle


def test_evaluate_bound_flags_and_registry():
    rep = evaluate_bound("hilton", n=3, k=2, m=2)
    assert rep.flags and "range violated" in rep.flags[0]
    assert evaluate_bound("hilton", n=6, k=2, m=2).flags == ()
    rep = evaluate_bound("thm2", n=8, k=2, p=1, s=2)
    assert rep.value == thm2_value(8, 2, 1, 2) and rep.flags
    with pytest.raises(KeyError):
        evaluate_bound("nope", n=1)
    with pytest.raises(ValueError):
        evaluate_bound("hilton", n=4, k=2)


def test_weight_formula_registry():
    rep = evaluate_bound("thm3", k=2, s=1, weights=(2, 1))
    assert rep.value == 9 and rep.attained_by == "clique"
    rep = evaluate_bound("thm4", n=4, k=2, weights=(2, 1))
    assert rep.flags  # below the proven threshold of 6
    assert evaluate_bound("d", weights=(4, 2, 1)).value == Fraction(14, 3)
    assert evaluate_bound("bde", m=10, s=3, l=2).value == 1
    mid = evaluate_bound("u-zero", n=10, k=1, p=4).value
    assert abs(mid - 3) <= Fraction(1, 2**20)


def test_bound_report_row():
    row = BoundReport("demo", {"n": 4}, Fraction(9, 2), ("flag",), "cover").to_row()
    assert row == {
        "name": "demo",
        "params": {"n": 4},
        "value": "9/2",
        "flags": ["flag"],
        "attained_by": "cover",
    }
    assert BoundReport("demo", {}, Fraction(4, 2)).to_row()["value"] == 2
