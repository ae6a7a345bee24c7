"""The front-CSV writer's numpy kernel against Python's ``%.17g``.

``fmt17.slots`` must give the bytes of ``format(v, ".17g")`` for every
double, and it takes Python's own formatting only where its product
cannot decide: near a 17-digit tie, outside 1e-280 <= |v| < 1e280, and
for zeros and non-finite values.  The values here are fixed by seed:
random bit patterns over every exponent, subnormals, both neighbours of
every power of ten from 1e-300 to 1e300, exact 17-digit ties,
integers around 2^53, 1e16 and 1e17, values whose 17-digit rounding
carries into the next decade, and the signed specials.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from frontshift import fmt17


def _text(values: np.ndarray) -> bytes:
    return fmt17.slots(values).tobytes().translate(None, b"\0")


def _assert_exact(values: np.ndarray) -> None:
    got = _text(values)
    # Python's %-operator and format() share one routine; % is faster
    want = ("%.17g," * len(values) % tuple(values.tolist())).encode()
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got.split(b","),
                                            want.split(b",")) if g != w]
        pytest.fail(f"{len(bad)} of {len(values)} values misprinted, "
                    f"e.g. {bad[:5]}")


def _signed(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def _ties(rng, count: int) -> np.ndarray:
    """Doubles M 2^-e (M odd) whose exact decimal value has 18 significant
    digits, the last a 5: each lies half-way between two 17-digit
    decimals.  They exist for e = 2..25 only, between 1e-8 and 1e16."""
    out = []
    for e in range(2, 26):
        low = -(-10 ** 17 // 5 ** e)
        high = min(10 ** 18 // 5 ** e, 2 ** 53)
        for m in rng.integers(low, high, count // 24).tolist():
            m |= 1
            if len(str(m * 5 ** e)) == 18 and m < 2 ** 53:
                out.append(m / 2 ** e)
    return np.array(out)


# Powers of ten whose nearest double lies below them and still prints as
# the power: the 17-digit rounding carries into the next decade.
CARRIES = [-243, -176, -175, -174, -79, -78, -73, -70, -14]


def test_kernel_matches_format_on_a_million_doubles():
    rng = np.random.default_rng(20271)
    bits = rng.integers(0, 2 ** 64, 400_000, dtype=np.uint64)
    subnormal = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64)
    subnormal |= rng.integers(0, 2, 20_000, dtype=np.uint64) << np.uint64(63)
    decades = rng.normal(size=120_000) * 10.0 ** rng.integers(-300, 300,
                                                              120_000)
    fixed = rng.normal(size=430_000) * 10.0 ** rng.integers(-6, 18, 430_000)
    powers = np.array([float(f"1e{m}") for m in range(-300, 301)])
    powers = np.concatenate([np.nextafter(powers, 0), powers,
                             np.nextafter(powers, np.inf)])
    integers = [float(c + k) for c in (2 ** 53, 10 ** 16, 10 ** 17)
                for k in range(-2000, 2001)]
    edges = [1e-280, 1e280, 5e-324, 2.2250738585072014e-308,
             1.7976931348623155e308, 0.0001, 1e16, 1e17, 0.1, 1 / 3]
    edges = np.concatenate([np.nextafter(edges, 0), edges,
                            np.nextafter(edges, np.inf)])
    specials = np.array([0.0, -0.0, math.nan, -math.nan, math.inf,
                         -math.inf, np.copysign(math.nan, -1.0)])
    values = np.concatenate([
        bits.view(float), subnormal.view(float), decades, fixed,
        _signed(powers), _signed(integers), _signed(np.arange(10_000)),
        _signed(edges), _signed(_ties(rng, 20_000)), specials])
    assert len(values) >= 1_000_000
    _assert_exact(values)


def test_ties_take_the_fallback_and_print_half_to_even():
    ties = _ties(np.random.default_rng(5), 20_000)
    assert len(ties) > 10_000
    assert format(2.0 ** -25, ".17g") == "2.9802322387695312e-08"
    assert 2.0 ** -25 in ties
    _, _, fast = fmt17._digits(_signed(ties))
    assert not fast.any()
    _assert_exact(_signed(ties))


def test_carries_into_the_next_decade():
    values = np.array([float(f"1e{m}") for m in CARRIES])
    for m, value in zip(CARRIES, values.tolist()):
        assert Fraction(value) < Fraction(10) ** m
    x, n, fast = fmt17._digits(values)
    assert fast.all()
    assert (n == 10 ** 16).all() and (x == CARRIES).all()
    _assert_exact(_signed(values))


def test_exponent_comes_from_the_unrounded_product():
    # just below 1e-19: rounding at the exponent of 1e-19 gives 10^16,
    # which would print "1e-19"
    value = 9.9999999999999998e-20
    assert Fraction(value) < Fraction(1, 10 ** 19)
    assert format(value, ".17g") == "9.9999999999999998e-20"
    x, n, fast = fmt17._digits(np.array([value]))
    assert fast.all() and x[0] == -20 and n[0] == 99999999999999998
    _assert_exact(np.array([value]))


def test_in_range_values_take_the_fast_path():
    # 17-digit ties lie between 1e-8 and 1e16; none can lie outside
    rng = np.random.default_rng(3)
    exponents = np.concatenate([np.arange(-278, -9), np.arange(17, 278)])
    values = rng.choice([-1.0, 1.0], 50_000) * rng.uniform(1, 10, 50_000) \
        * 10.0 ** rng.choice(exponents, 50_000)
    _, _, fast = fmt17._digits(values)
    assert fast.all()
    # above 1e13 a double has so few fraction bits that ties are common
    values = rng.normal(size=50_000) * 10.0 ** rng.integers(-8, 12, 50_000)
    _, _, fast = fmt17._digits(values)
    assert fast.mean() > 0.999
    _, _, fast = fmt17._digits(np.array([0.0, 5e-324, 1e-281, 1e280,
                                         math.inf, math.nan]))
    assert not fast.any()


def test_slots_are_fixed_width_and_comma_terminated():
    values = np.array([[1.5, -0.0], [math.nan, 1e300]])
    slots = fmt17.slots(values)
    assert slots.shape == (4, fmt17.WIDTH) and slots.dtype == np.uint8
    assert (slots[:, -1] == ord(",")).all()
    assert _text(values) == b"1.5,-0,nan,1.0000000000000001e+300,"
