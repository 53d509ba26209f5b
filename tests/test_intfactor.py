import math
import random

import pytest

from maxcurves import CapError
from maxcurves._intfactor import divisors, euler_phi, factorize, is_prime, split_prime_power

M61 = 2**61 - 1  # a Mersenne prime


def _sieve(n):
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for i in range(2, math.isqrt(n - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, n, i)))
    return flags


def test_is_prime_matches_a_sieve_below_10_5():
    flags = _sieve(10**5)
    assert [n for n in range(-2, 10**5) if is_prime(n)] == [n for n in range(10**5) if flags[n]]


@pytest.mark.parametrize("n", [
    # strong pseudoprimes to the first bases: 2; 2, 3; 2, 3, 5; ...; 2, ..., 23
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
    561, 41041,  # Carmichael numbers
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_accepts_a_mersenne_prime():
    assert is_prime(M61)
    assert not is_prime(M61 + 2)


def _check_factorization(n, fac):
    assert math.prod(p**e for p, e in fac.items()) == n
    assert all(is_prime(p) and e >= 1 for p, e in fac.items())


def test_factorize_round_trips_below_2_44():
    rng = random.Random(44)
    for n in [1, 2, 4, 97, 2**22 + 1, 2**43 - 1, 2**44 - 1] + [
            rng.randrange(1, 2**44) for _ in range(40)]:
        _check_factorization(n, factorize(n))
    assert factorize(1) == {}
    assert factorize(2**43 - 1) == {431: 1, 9719: 1, 2099863: 1}


def test_factorize_keeps_a_prime_cofactor_above_2_44():
    assert factorize(12 * M61) == {2: 2, 3: 1, M61: 1}


def test_factorize_refuses_a_composite_past_trial_division():
    n = (2**31 - 1) * M61
    with pytest.raises(CapError, match=f"^cannot factor {n}: it is above 2\\^44 and has "
                                       r"no prime factor below 2\^22$"):
        factorize(n)


@pytest.mark.parametrize("n", [0, -6])
def test_non_positive_inputs_raise_value_error(n):
    for fn in (factorize, divisors, euler_phi):
        with pytest.raises(ValueError, match="positive integer"):
            fn(n)


def test_divisors_and_euler_phi():
    assert divisors(1) == [1]
    assert divisors(21) == [1, 3, 7, 21]
    assert divisors(993) == [1, 3, 331, 993]
    for n in range(1, 300):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
        assert euler_phi(n) == sum(math.gcd(n, k) == 1 for k in range(1, n + 1))


def test_split_prime_power():
    assert split_prime_power(2) == (2, 1)
    assert split_prime_power(8192) == (2, 13)
    assert split_prime_power(3**9) == (3, 9)
    assert split_prime_power(M61) == (M61, 1)
    for n in (-4, 0, 1, 6, 12, 3 * M61):
        with pytest.raises(ValueError, match=f"^{n} is not a prime power$"):
            split_prime_power(n)
