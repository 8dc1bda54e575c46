"""Truncated evaluation of the inverse dynamical zeta product with certified
tail bounds, and the matching finite independence product.

The full-shift zeta function is the product over all finite orbits of
(1 - t^size)^(-1); its inverse at t = alpha is the limiting emptiness
probability below the threshold alpha = 1/|A|.  We evaluate the truncation
prod_{j<=J} (1 - alpha^j)^{P_j} in log space and certify the neglected factor:
exact orbit counts for a finite extension past J, then the coarse bound
P_j <= j^(d+1) |A|^j for the far tail, with -log(1-x) <= x / (1 - x_max).
"""

import math
from dataclasses import asdict, dataclass

from .errors import DomainError, ResourceBudgetError
from .orbits import COUNT_BUDGET, count_orbits
from .patterns import window_table_size

TAIL_EXACT_EXTENSION = {1: 140, 2: 20, 3: 6}
_NEGLIGIBLE = 1e-22


@dataclass(frozen=True)
class ZetaTruncation:
    alphabet: int
    d: int
    alpha: float
    j_max: int
    value: float
    log_value: float
    tail_bound: float
    tail_constant: float
    divergent: bool

    def as_dict(self):
        return asdict(self)


def _far_tail(d: int, beta: float, start: int) -> float:
    """Upper bound on sum_{j>=start} j^(d+1) beta^j for beta < 1."""
    total = 0.0
    j = start
    while True:
        t = (j ** (d + 1)) * (beta ** j)
        total += t
        ratio = beta * ((j + 1) / j) ** (d + 1)
        if ratio < 1.0 and (t < _NEGLIGIBLE or t < _NEGLIGIBLE * total):
            total += t * ratio / (1.0 - ratio)
            return total
        j += 1
        if j > start + 100000:
            raise ResourceBudgetError("far tail fails to converge numerically")


def _log_product(alphabet: int, d: int, alpha: float, j_max: int) -> float:
    """log prod_{j<=j_max} (1 - alpha^j)^{P_j}, P_j the number of size-j orbits."""
    return math.fsum(count_orbits(alphabet, d, j).count * math.log1p(-(alpha ** j))
                     for j in range(1, j_max + 1))


def zeta_inverse(alphabet: int, d: int, alpha: float, j_max: int) -> ZetaTruncation:
    """Truncated inverse zeta product with a certified bound on the log of the
    neglected factor; divergence sentinel (value 0) at and above 1/|A|."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must be in [0, 1], got {alpha}")
    window_table_size(alphabet, d, 1)  # checks d and |A|
    if j_max < 0 or j_max > COUNT_BUDGET.get(d, 0):
        raise ResourceBudgetError(f"j_max {j_max} beyond orbit-count budget for d={d}")
    if alpha * alphabet >= 1.0:
        return ZetaTruncation(alphabet, d, alpha, j_max, 0.0, -math.inf,
                              0.0, 0.0, True)
    log_value = _log_product(alphabet, d, alpha, j_max)
    # certified |log of neglected factor|
    x_max = alpha ** (j_max + 1)
    c1 = 1.0 / (1.0 - x_max) if x_max < 1.0 else math.inf
    j_ext = min(j_max + TAIL_EXACT_EXTENSION.get(d, 0), COUNT_BUDGET.get(d, 0))
    exact_part = []
    for j in range(j_max + 1, j_ext + 1):
        pj = count_orbits(alphabet, d, j).count
        exact_part.append(pj * (alpha ** j))
    beta = alpha * alphabet
    far = _far_tail(d, beta, j_ext + 1) if alpha > 0.0 else 0.0
    tail = c1 * (math.fsum(exact_part) + far)
    return ZetaTruncation(alphabet, d, alpha, j_max, math.exp(log_value),
                          log_value, tail, c1, False)


def independence_upper_bound(alphabet: int, d: int, alpha: float, n: int) -> float:
    """Finite product over orbits of size at most n/2: an upper bound on the
    probability that no finite orbit survives, hence on emptiness."""
    j_max = n // 2
    if j_max > COUNT_BUDGET.get(d, 0):
        raise ResourceBudgetError(f"n/2 = {j_max} beyond orbit-count budget for d={d}")
    if alpha >= 1.0 and j_max >= 1:
        return 0.0  # every factor (1 - alpha^j) vanishes
    return math.exp(_log_product(alphabet, d, alpha, j_max))
