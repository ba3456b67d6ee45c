"""Set-family constructors: digit Cantor sets, IP-sets, walks, and the
alternating-block noncompatible pair."""

import math

import numpy as np
import pytest
from fractions import Fraction as Fr

from zdim.generators import (
    IPParameters,
    NoncompatibleParams,
    TransitionMatrix,
    cantor_set,
    integer_resonant_set,
    ip_set,
    noncompatible_pair,
    perron,
    polynomial_set,
    power_set,
    random_walk_zeros,
    resonance_sets,
    zero_density_full_dim,
)
from zdim.arithmetic import sumset


def test_power_set_squares_oracle():
    E = power_set(Fr(1, 2), 50)
    assert E.elements == tuple(n * n for n in range(1, 51))


def test_power_set_dedups_floors():
    # alpha close to 1 floors many n to the same value
    E = power_set(Fr(9, 10), 30)
    oracle = sorted({int(n ** (10 / 9) + 1e-9) for n in range(1, 31)})
    assert list(E.elements) == oracle


def test_polynomial_set_cubes():
    E = polynomial_set((0, 0, 0, 1), (1, 20))
    assert E.elements == tuple(n**3 for n in range(1, 21))


def test_polynomial_rejects_constant():
    with pytest.raises(ValueError, match="degree"):
        polynomial_set((5, 0, 0), (1, 10))


def test_cantor_ternary_counts():
    # digits {0,2} base 3, all transitions: 2^(d+1) strings, distinct values
    E = cantor_set(TransitionMatrix.full(2), 4, base=3, digits=(0, 2))
    assert len(E) == 2**5
    assert 0 in set(E.elements) and max(E.elements) == 2 * (3**5 - 1) // 2


def test_cantor_depth_is_extra_digits():
    # depth d admits words of length d+1
    E = cantor_set(TransitionMatrix.full(2), 1, base=4, digits=(0, 3))
    assert set(E.elements) == {0, 3, 12, 15}


def test_cantor_golden_mean_shift():
    # no two consecutive 1s: Fibonacci word counts
    A = TransitionMatrix(((1, 1), (1, 0)))
    E = cantor_set(A, 5, base=2)
    # admissible strings of length <= 6 evaluated in binary, deduped
    def ok(x):
        return "11" not in format(x, "b")

    assert all(ok(x) for x in E.elements)
    assert set(E.elements) == {x for x in range(2**6) if ok(x)}


def test_cantor_nilpotent_matrix_flagged():
    Z = TransitionMatrix(((0, 0), (0, 0)))
    E = cantor_set(Z, 3, base=5, digits=(1, 4))
    assert E.elements == (1, 4)
    assert "nilpotent" in E.provenance


def test_cantor_digit_validation():
    with pytest.raises(ValueError, match="distinct values"):
        cantor_set(TransitionMatrix.full(2), 2, base=3, digits=(0, 0))
    with pytest.raises(ValueError, match="distinct values"):
        cantor_set(TransitionMatrix.full(2), 2, base=2, digits=(0, 2))
    with pytest.raises(ValueError, match="alphabet size"):
        cantor_set(TransitionMatrix.full(3), 2, base=4, digits=(0, 1))


def test_cantor_bigint_path_matches_numpy_path():
    A = TransitionMatrix(((1, 1), (1, 0)))
    small = cantor_set(A, 6, base=10, digits=(0, 7))
    # same construction but pushed beyond int64 by a huge base
    big = cantor_set(A, 6, base=10**9, digits=(0, 7))
    ratio = 10**9 // 10
    # digitwise the value maps positionally: rebuild from base-10 digits
    lifted = set()
    for x in small.elements:
        y, pos, acc = x, 0, 0
        while y:
            acc += (y % 10) * (10**9) ** pos
            y //= 10
            pos += 1
        lifted.add(acc)
    assert set(big.elements) == lifted


def test_perron_fibonacci():
    A = TransitionMatrix(((1, 1), (1, 0)))
    rep = perron(A, 10)
    assert rep.word_counts == (2, 3, 5, 8, 13, 21, 34, 55, 89, 144)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(rep.eigenvalue - phi) < 1e-10
    assert rep.method == "power-iteration"
    lo, hi = rep.ratio_bounds
    assert 0 < lo <= hi
    assert rep.bound_spread < 1.3


def test_perron_oscillating_spectrum_regression():
    # complex subdominant pair: consecutive eigenvalue estimates can
    # transiently agree far from the limit, so the stop must use the
    # residual, not the estimate delta
    A = TransitionMatrix(((1, 1, 1, 0), (0, 0, 0, 1), (1, 1, 0, 1), (1, 0, 0, 0)))
    rep = perron(A, 40)
    assert abs(rep.eigenvalue - 2.0659948920164934) < 1e-9


def test_perron_periodic_matrix_falls_back():
    # bipartite graph: the iteration oscillates forever, ratio fallback
    # engages and lands near sqrt(2)
    A = TransitionMatrix(((0, 1, 1), (1, 0, 0), (1, 0, 0)))
    rep = perron(A, 12)
    assert rep.method == "ratio-estimated"
    assert rep.word_counts == (3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)
    assert abs(rep.eigenvalue - math.sqrt(2)) < 0.05


def test_resonance_sets_tiny():
    ea, eb, ec = resonance_sets(2)
    assert set(ea.elements) == {a + 12 * b for a in range(4) for b in range(4)}
    assert set(eb.elements) == {
        a + 12 * b for a in (0, 4, 5, 6, 7) for b in (0, 4, 5, 6, 7)
    }
    assert sumset(ea, eb).elements == ec.elements


def test_resonance_sum_identity_depth_four():
    ea, eb, ec = resonance_sets(4)
    assert len(ea) == 4**4 and len(eb) == 5**4 and len(ec) == 11**4
    assert sumset(ea, eb).elements == ec.elements


def test_ip_set_product_cardinality():
    p = IPParameters((2, 3, 2), (1, 10, 100), 3)
    E = ip_set(p)
    assert len(E) == 12
    assert set(E.elements) == {
        a + b * 10 + c * 100 for a in range(2) for b in range(3) for c in range(2)
    }


def test_ip_set_big_integer_path_matches_int64_twin():
    # d scaled by 2**70 puts top beyond int64 (object dtype); its twin with
    # d divided back by 2**70 stays in int64, and a brute-force sum agrees
    ks, ds = (3, 2, 4), (1, 5, 20)
    big = ip_set(IPParameters(ks, tuple(d << 70 for d in ds), 3))
    twin = ip_set(IPParameters(ks, ds, 3))
    assert big._array().dtype == object and twin._array().dtype == np.int64
    assert big.elements == tuple(x << 70 for x in twin.elements)
    assert big.elements == tuple(sorted(
        (a * 1 + b * 5 + c * 20) << 70 for a in range(3) for b in range(2) for c in range(4)
    ))


def test_ip_gap_condition_names_first_failure():
    p = IPParameters((3, 2), (1, 3), 2)  # needs d_2 > k_1 d_1 = 3
    with pytest.raises(ValueError, match="fails at n=2"):
        p.validate_gaps()


def test_ip_parameter_validation():
    with pytest.raises(ValueError, match="depth"):
        IPParameters((2,), (1,), 2)
    with pytest.raises(ValueError, match="positive"):
        IPParameters((0, 2), (1, 5), 2)


def test_integer_resonant_set_shape():
    E = integer_resonant_set(Fr(3, 4), 5)
    assert len(E) == 2 ** (1 + 2 + 3 + 4 + 5)
    # d_n = floor(2^(n^2 * 2/3)): 1, 6, 64, 1625, 104031
    assert E.elements[1] == 1
    assert E.elements[0] == 0
    with pytest.raises(ValueError, match="alpha"):
        integer_resonant_set(Fr(1, 2), 3)


def test_random_walk_zeros_even_and_reproducible():
    E = random_walk_zeros(3, 10_000)
    assert all(x % 2 == 0 for x in E.elements)
    # golden pin: the seed-to-stream mapping is a compatibility contract,
    # so a silent generator change must fail loudly here
    assert E.elements[:6] == (2, 8, 92, 94, 98, 100)
    assert len(E) == 60
    again = random_walk_zeros(3, 10_000)
    assert E.elements == again.elements
    other = random_walk_zeros(4, 10_000)
    assert E.elements != other.elements


def test_zero_density_full_dim_blocks():
    E = zero_density_full_dim(4)
    xs = E.elements
    assert xs[0] >= 4  # first block starts at 2^2
    assert max(xs) <= 5**4
    # block n should hold roughly (n+1)^(n-1) - n^(n-1) elements
    block3 = [x for x in xs if 27 <= x <= 64]
    assert 6 <= len(block3) <= 10


def test_noncompatible_depth_two_disjoint_scales():
    p = NoncompatibleParams(Fr(1, 2), Fr(2, 3), 2)
    assert p.validate() == []
    E, F = noncompatible_pair(p)
    assert len(E) > 0 and len(F) > 0
    # E blocks end before F blocks begin, block by block
    for i in range(2):
        assert p.B[i] < p.C[i] and (i + 1 == 2 or p.D[i] < p.A[i + 1])
    assert all(p.A[0] <= x <= p.B[0] or p.A[1] <= x <= p.B[1] for x in E.elements)
    assert all(p.C[0] <= x <= p.D[0] or p.C[1] <= x <= p.D[1] for x in F.elements)


def test_noncompatible_magnitude_cap():
    # mixed exponents inflate block 3 past the default cap; the error
    # reports the scale in bits instead of printing the huge integer
    with pytest.raises(ValueError, match=r"magnitude cap at block 3 \(scale near 2\*\*"):
        NoncompatibleParams(Fr(1, 2), Fr(2, 3), 3)
    p = NoncompatibleParams(Fr(1, 2), Fr(2, 3), 3, magnitude_cap=10**600)
    assert p.validate() == []
    assert p.D[2].bit_length() > 1500


def test_noncompatible_rejects_bad_exponents():
    with pytest.raises(ValueError):
        NoncompatibleParams(Fr(1, 4), Fr(1, 2), 1)
    with pytest.raises(ValueError):
        NoncompatibleParams(Fr(1, 2), Fr(1), 1)
