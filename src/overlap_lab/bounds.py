"""Closed-form values, bounds, and inequality checks in exact arithmetic.

Every evaluator returns an int or Fraction; no floating point is used
anywhere, so equality cases are decided exactly.  Out-of-range parameters
still evaluate (the formulas are defined), but evaluate_bound attaches a
"range violated" flag so sweeps can chart a formula beyond its proven
range without silently claiming validity.  Hard errors are reserved for
genuinely undefined expressions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .combinatorics import binom

Weights = tuple[Fraction, ...]


def parse_weight(v: Fraction | int | float | str) -> Fraction:
    """One weight as an exact rational: a Fraction, an int, a finite float or an "a/b" string.

    Every weight read from the command line, a chain file or a caller
    passes through here; anything else raises ValueError.
    """
    if isinstance(v, bool) or not isinstance(v, (Fraction, int, float, str)):
        raise ValueError(f"weight {v!r} is not a number or an \"a/b\" string")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"weight {v!r} is not a finite rational") from exc


def _parsed(entries: Sequence, length: int | None) -> Weights:
    ws = tuple(map(parse_weight, entries))
    if not ws:
        raise ValueError("weight vector must be nonempty")
    if length is not None and len(ws) != length:
        raise ValueError(f"need {length} weights, got {len(ws)}")
    return ws


def _shown(ws: Weights) -> str:
    """The weights as a user writes them, for error messages: (7/2, 1, 0)."""
    return "(" + ", ".join(str(json_safe(w)) for w in ws) + ")"


def weight_vector(entries: Sequence, length: int | None = None) -> Weights:
    """Validated weight vector: nonincreasing, strictly positive rationals (`length` of them, if given)."""
    ws = _parsed(entries, length)
    if any(w <= 0 for w in ws):
        raise ValueError(f"weights must be positive, got {_shown(ws)}")
    if any(a < b for a, b in zip(ws, ws[1:])):
        raise ValueError(f"weights must be nonincreasing, got {_shown(ws)}")
    return ws


def integer_weights(ws: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Weights scaled to integers, and the scale L = lcm of their denominators.

    Every weighted count is then an integer multiple of 1/L, so the solvers
    and the sampled harnesses work in ints and divide by L once, at the end.
    """
    scale = math.lcm(*(w.denominator for w in ws))
    return tuple(w.numerator * (scale // w.denominator) for w in ws), scale


def solver_weights(entries: Sequence, length: int) -> Weights:
    """Weight vector for the solvers: a zero prefix is allowed.

    Zero-weight leading families contribute nothing to the objective but
    still participate in the rainbow constraint; this is how the m = s
    degenerate reduction is represented.  After the first positive weight
    the vector only has to be nonincreasing, so trailing zeros pass too.
    """
    ws = _parsed(entries, length)
    if any(w < 0 for w in ws):
        raise ValueError(f"weights must be nonnegative, got {_shown(ws)}")
    lead = 0
    while lead < len(ws) and ws[lead] == 0:
        lead += 1
    if lead == len(ws):
        raise ValueError("at least one weight must be positive")
    tail = ws[lead:]
    if any(a < b for a, b in zip(tail, tail[1:])):
        raise ValueError(f"positive weights must be nonincreasing, got {_shown(ws)}")
    return ws


def json_safe(v):
    """A Fraction as an int when whole, else "a/b"; sequences item by item; anything else as is."""
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, (tuple, list)):
        return [json_safe(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# single-target bounds for the head-weighted problem
# ---------------------------------------------------------------------------

def hilton_bound(n: int, k: int, m: int) -> int:
    """max{C(n,k), m*C(n-1,k-1)}: the exact optimum for one forbidden disjoint pair.

    Proven for n >= 2k.
    """
    return max(binom(n, k), m * binom(n - 1, k - 1))


def thm1_bound(n: int, k: int, p: int, s: int) -> int:
    """max{s*C(n,k), (p+s)*s*C(n-1,k-1)}: cyclic-averaging upper bound for weights (p,1,...,1).

    Proven for n >= (s+1)k with p a positive integer.
    """
    return max(s * binom(n, k), (p + s) * s * binom(n - 1, k - 1))


def g(n: int, k: int, p, s: int, i: int) -> Fraction:
    """(p+s)*C(n,k) - (p+i)*C(n-i,k): value of the mixed cover construction at depth i."""
    if i < 0 or i > s:
        raise ValueError(f"need 0 <= i <= s, got i={i}, s={s}")
    p = Fraction(p)
    return (p + s) * binom(n, k) - (p + i) * binom(n - i, k)


def g_argmax(n: int, k: int, p, s: int) -> tuple[int, bool]:
    """Argmax of g over integer i in [0, s] by direct scan (ties -> smaller i).

    Returns (i_star, i_star in {0, s}).
    """
    best_i = 0
    best_v = g(n, k, p, s, 0)
    for i in range(1, s + 1):
        v = g(n, k, p, s, i)
        if v > best_v:
            best_i, best_v = i, v
    return best_i, best_i in (0, s)


def u_eval(x, n: int, k: int, p) -> Fraction:
    """u(x) = (p+x) * sum_{j<k} 1/(n-j-x) - 1, exactly, for rational x in [-p, n-k]."""
    x = Fraction(x)
    p = Fraction(p)
    if x < -p or x > n - k:
        raise ValueError(f"x={x} outside [{-p}, {n - k}]")
    total = sum(Fraction(1, 1) / (n - j - x) for j in range(k))
    return (p + x) * total - 1


def u_zero(n: int, k: int, p) -> tuple[Fraction, Fraction]:
    """Bracket the unique zero of u on [-p, n-k] by bisection to width 2^-20.

    u(-p) = -1 exactly, and u is increasing on the interval, hence the zero
    is unique when u(n-k) > 0.  Raises ValueError when there is no sign
    change, as when the interval is a single point (n - k = -p).
    """
    p = Fraction(p)
    lo, hi = -p, Fraction(n - k)
    ulo = u_eval(lo, n, k, p)
    uhi = u_eval(hi, n, k, p)
    if not (ulo == -1 and ulo < 0 < uhi):
        raise ValueError(f"no sign change: u({lo})={ulo}, u({hi})={uhi}")
    while (hi - lo) * 2**20 > 1:
        mid = (lo + hi) / 2
        if u_eval(mid, n, k, p) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def thm2_value(n: int, k: int, p, s: int) -> Fraction:
    """max{s*C(n,k), (p+s)*(C(n,k) - C(n-s,k))}: the exact optimum for weights (p,1,...,1).

    Proven exact for n >= 4*k*k*s.
    """
    p = Fraction(p)
    return max(Fraction(s * binom(n, k)), (p + s) * (binom(n, k) - binom(n - s, k)))


# ---------------------------------------------------------------------------
# general weight vectors
# ---------------------------------------------------------------------------

def thm3_value(k: int, s: int, weights: Sequence) -> Fraction:
    """(p_0 + ... + p_s) * C((s+1)k - 1, k): the exact optimum at n = (s+1)k."""
    return sum(weight_vector(weights, s + 1)) * binom((s + 1) * k - 1, k)


def d_vec(weights: Sequence) -> Fraction:
    """max over 1 <= i <= s of i * (p_0 + ... + p_s) / (p_1 + ... + p_i)."""
    ws = weight_vector(weights)
    s = len(ws) - 1
    if s == 0:
        raise ValueError("d_vec needs at least two weights")
    total = sum(ws)
    best = Fraction(0)
    partial = Fraction(0)
    for i in range(1, s + 1):
        partial += ws[i]
        best = max(best, i * total / partial)
    return best


def thm4_threshold(k: int, weights: Sequence) -> int:
    """Smallest n for which the tail-weight optimum is proven: max{(s+1)k, ceil(d)k}."""
    ws = weight_vector(weights)
    s = len(ws) - 1
    return max((s + 1) * k, math.ceil(d_vec(ws)) * k)


def thm4_value(n: int, k: int, weights: Sequence) -> Fraction:
    """(p_1 + ... + p_s) * C(n,k): the exact optimum for n >= thm4_threshold."""
    ws = weight_vector(weights)
    return sum(ws[1:], Fraction(0)) * binom(n, k)


def gb_emc_bound(n: int, k: int, s: int) -> int:
    """s * C(n-1, k-1): size bound for one family with matching number <= s (n >= k(s+1))."""
    return s * binom(n - 1, k - 1)


# ---------------------------------------------------------------------------
# binomial difference inequalities
# ---------------------------------------------------------------------------

def bde_check(m: int, s: int, l: int) -> tuple[bool, bool]:
    """Check the two exact binomial-difference chains at (m, s, l).

    first:  l*C(m-1,s-1) >= C(m,s) - C(m-l,s) >= l*C(m-l,s-1)
    second: C(m-l,s)/C(m,s) >= (1 - l/(m-s))^s >= 1 - s*l/(m-s)

    All comparisons in exact rationals.  m = s is rejected (the second
    chain divides by m - s).
    """
    if not (0 <= l <= m):
        raise ValueError(f"need 0 <= l <= m, got l={l}, m={m}")
    if not (1 <= s <= m):
        raise ValueError(f"need 1 <= s <= m, got s={s}, m={m}")
    if m == s:
        raise ValueError("m = s makes the ratio chain divide by zero")
    diff = binom(m, s) - binom(m - l, s)
    first = l * binom(m - 1, s - 1) >= diff >= l * binom(m - l, s - 1)
    ratio = Fraction(binom(m - l, s), binom(m, s))
    base = 1 - Fraction(l, m - s)
    second = ratio >= base**s >= 1 - Fraction(s * l, m - s)
    return first, second


# ---------------------------------------------------------------------------
# conjectured values
# ---------------------------------------------------------------------------

def conj1_value(n: int, k: int, p, s: int) -> Fraction:
    """max of the three candidate optima for weights (p,1,...,1), any n >= (s+1)k."""
    p = Fraction(p)
    return max(
        Fraction(s * binom(n, k)),
        (p + s) * binom((s + 1) * k - 1, k),
        (p + s) * (binom(n, k) - binom(n - s, k)),
    )


def conj2_bound(n: int, k: int, s: int) -> int:
    """max{C((s+1)k-1,k), C(n,k) - C(n-s,k)}: conjectured cap on min_i |B_i|."""
    return max(binom((s + 1) * k - 1, k), binom(n, k) - binom(n - s, k))


# ---------------------------------------------------------------------------
# formula registry for reporting
# ---------------------------------------------------------------------------

def _attained_hilton(n, k, m):
    return "empty-then-full" if binom(n, k) >= m * binom(n - 1, k - 1) else "star"


def _attained_two_branch(n, k, p, s):
    first = Fraction(s * binom(n, k))
    second = (Fraction(p) + s) * (binom(n, k) - binom(n - s, k))
    return "empty-then-full" if first >= second else "cover"


@dataclass(frozen=True)
class _Formula:
    params: tuple[str, ...]
    evaluate: Callable
    in_range: Callable
    attained: Callable | None
    range_note: str


FORMULAS: dict[str, _Formula] = {
    "hilton": _Formula(
        ("n", "k", "m"),
        hilton_bound,
        lambda n, k, m: n >= 2 * k and m >= 1,
        _attained_hilton,
        "n >= 2k, m >= 1",
    ),
    "thm1": _Formula(
        ("n", "k", "p", "s"),
        thm1_bound,
        lambda n, k, p, s: n >= (s + 1) * k and p >= 1,
        None,
        "n >= (s+1)k, p >= 1",
    ),
    "thm2": _Formula(
        ("n", "k", "p", "s"),
        thm2_value,
        lambda n, k, p, s: n >= 4 * k * k * s,
        _attained_two_branch,
        "n >= 4k^2s",
    ),
    "g": _Formula(
        ("n", "k", "p", "s", "i"),
        g,
        lambda n, k, p, s, i: n >= (s + 1) * k,
        None,
        "n >= (s+1)k",
    ),
    "gb-emc": _Formula(
        ("n", "k", "s"),
        gb_emc_bound,
        lambda n, k, s: n >= k * (s + 1),
        None,
        "n >= k(s+1)",
    ),
    "conj1": _Formula(
        ("n", "k", "p", "s"),
        conj1_value,
        lambda n, k, p, s: n >= (s + 1) * k,
        None,
        "n >= (s+1)k",
    ),
    "conj2": _Formula(
        ("n", "k", "s"),
        conj2_bound,
        lambda n, k, s: n >= k * (s + 1),
        None,
        "n >= k(s+1)",
    ),
    "thm3": _Formula(
        ("k", "s", "weights"),
        thm3_value,
        lambda k, s, weights: True,
        lambda k, s, weights: "clique",
        "",
    ),
    "thm4": _Formula(
        ("n", "k", "weights"),
        thm4_value,
        lambda n, k, weights: n >= thm4_threshold(k, weights),
        lambda n, k, weights: "empty-then-full",
        "n >= max{(s+1)k, ceil(d)k}",
    ),
    "d": _Formula(
        ("weights",),
        d_vec,
        lambda weights: True,
        None,
        "",
    ),
    "bde": _Formula(
        ("m", "s", "l"),
        lambda m, s, l: int(all(bde_check(m, s, l))),
        lambda m, s, l: 0 <= l < m - s,
        None,
        "0 <= l < m-s",
    ),
    "u-zero": _Formula(
        ("n", "k", "p"),
        lambda n, k, p: sum(u_zero(n, k, p), Fraction(0)) / 2,
        lambda n, k, p: n > k,
        None,
        "n > k",
    ),
}


def evaluate_bound(name: str, **params) -> dict:
    """A registered formula's report row: name, params, exact value, range flags, attaining chain.

    Values and params are written through json_safe, so a whole Fraction is an int.
    """
    if name not in FORMULAS:
        raise KeyError(f"unknown formula {name!r}; known: {sorted(FORMULAS)}")
    spec = FORMULAS[name]
    missing = [p for p in spec.params if p not in params]
    if missing:
        raise ValueError(f"formula {name!r} needs parameters {missing}")
    args = {p: params[p] for p in spec.params}
    return {
        "name": name,
        "params": {p: json_safe(v) for p, v in args.items()},
        "value": json_safe(spec.evaluate(**args)),
        "flags": [] if spec.in_range(**args) else [f"range violated ({spec.range_note})"],
        "attained_by": spec.attained(**args) if spec.attained else None,
    }
