"""Integer primality and factorization helpers (desk scale).

Deterministic Miller-Rabin for 64-bit inputs, and trial division by the
primes below 2^22, which factors every n below 2^44.  Everything is exact.
"""

from __future__ import annotations

from .errors import CapError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization as {prime: exponent}.

    Trial division by every prime below 2^22 leaves a cofactor that is 1,
    a prime, or a composite above 2^44; the last raises CapError.
    """
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    steps = ((4, 2, 4, 2, 4, 6, 2, 6))
    i = 0
    while f * f <= n and f < 1 << 22:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += steps[i % 8]
            i += 1
    if n > 1:
        if not is_prime(n):
            raise CapError(f"cannot factor {n}: it is above 2^44 and has no "
                           f"prime factor below 2^22")
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    fac = factorize(n)
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def split_prime_power(n: int) -> tuple[int, int]:
    """Write n = p^e with p prime, or raise ValueError."""
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    fac = factorize(n)
    if len(fac) != 1:
        raise ValueError(f"{n} is not a prime power")
    ((p, e),) = fac.items()
    return p, e


def check_divisor(sqrt_q: int, d: int) -> int:
    """n = q - sqrt_q + 1, the order of the cyclic automorphism of the
    Hermitian curve; raises ValueError unless sqrt_q is a prime power and d
    is a positive divisor of n."""
    split_prime_power(sqrt_q)
    n = sqrt_q * sqrt_q - sqrt_q + 1
    if d < 1 or n % d:
        raise ValueError(f"{d} does not divide q - sqrt_q + 1 = {n}")
    return n
