"""Descent coefficients: three routes to the same exact numbers.

The coefficient c(i, j, k) weighs the degree-k Chern scalar of a
manifold inside the degree-j Chern scalar of its i-th iterated minimal
family of rational curves.  This script computes a few of them by the
Bernoulli recursion, by summing over integer compositions, and by
expanding a rising-factorial product, and watches all three agree.
"""

from fractions import Fraction
from math import factorial

from fanodescent import (
    bernoulli_table,
    ch1_coefficient_closed,
    ch2_coefficient_closed,
    compositions,
    descent_coefficient,
    generating_polynomial,
    verify_identities,
)

# Everything starts from the Bernoulli numbers, in the convention where
# the generating function is t/(e^t - 1), i.e. B_1 = -1/2.
print("Bernoulli numbers B_0..B_8:")
print(" ", bernoulli_table(8))
print()

# Route 1: the recursion.  Depth 1 is a signed Bernoulli value; deeper
# rows convolve the previous depth against the Bernoulli sequence.
print("recursion:    c(2,1,1) =", descent_coefficient(2, 1, 1))

# Route 2: compositions.  The same number is the sum of 1/(l_1*...*l_k)
# over all k-tuples of positive integers summing to i+1.
print("compositions: c(2,1,1) =", ch1_coefficient_closed(2, 1))
print("  P_(1,3) =", list(compositions(1, 3)), "-> 1/3")

# Route 3: the generating polynomial t(t+1)(t+2)/3!; multiplying the
# t^k coefficient by k! recovers c(2,1,k).
poly = generating_polynomial(2, 1)
print("polynomial:   ", poly)
print("  coefficient of t^1 times 1! =", poly.coefficient(1) * factorial(1))
print()

# The degree-2 rows work the same way, with a half-integer root.
print("degree-2 row at depth 2:")
for k in range(1, 5):
    print(
        f"  c(2,2,{k}): recursion {descent_coefficient(2, 2, k)}, "
        f"closed {ch2_coefficient_closed(2, k)}"
    )
print()

# Weighted row sums collapse to startlingly simple values: evaluating
# the generating polynomial at t = 1 and t = 2.
i = 5
row = [descent_coefficient(i, 1, k) for k in range(1, i + 2)]
print(f"sum_k c({i},1,k)/k!       =", sum(c / factorial(k) for k, c in enumerate(row, 1)))
print(f"sum_k c({i},1,k) 2^k/k!  =", sum(c * Fraction(2) ** k / factorial(k) for k, c in enumerate(row, 1)))
print()

# The identity suite bundles all of the above (plus the composition /
# symmetric-polynomial identity) and reports exact discrepancies.
report = verify_identities(6)
print(f"identity suite at depth 6: {len(report.checks)} checks,",
      "all pass" if report.passed else "FAILURES")
