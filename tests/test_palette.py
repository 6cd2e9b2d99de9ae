import pytest

from distsum.palette import (PaletteError, PaletteParams, check_disjoint_shifts,
                             compute_params, headline_bound)


def test_spot_values_degree_100():
    p = compute_params(100, 2)
    assert p.step == 457
    assert p.modulus == 1371
    assert p.intervals == ((1372, 1472),)
    assert p.size == 101
    assert p.palette_max == 2 * 1371 + 457 + 401


def test_sandwich_degree_100():
    p = compute_params(100, 2)
    lower = 100 + 600 + p.step
    assert lower <= p.modulus <= lower + p.step


def test_two_intervals_huge_degree():
    # step is about 7.31e7 here, so the palette needs exactly two blocks
    p = compute_params(10 ** 8, 2)
    assert len(p.intervals) == 2
    assert p.size == 10 ** 8 + 1
    assert p.intervals[0][1] - p.intervals[0][0] + 1 == p.step


def test_element_lookup():
    p = compute_params(2, 2)
    # step 1, modulus 15: three singleton blocks
    assert [p.element(j) for j in (1, 2, 3)] == [16, 20, 24]
    assert list(p.elements()) == [16, 20, 24]
    with pytest.raises(PaletteError):
        p.element(4)


@pytest.mark.parametrize("delta", [2, 3, 5, 10, 50, 137, 500])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_invariants_sample_grid(delta, r):
    p = compute_params(delta, r)
    assert p.modulus % p.step == 0
    lower = delta ** (r - 1) + 6 * delta + p.step
    assert lower <= p.modulus <= lower + p.step
    assert p.size == delta + 1
    elements = list(p.elements())
    assert elements[0] >= p.modulus + 1
    assert elements[-1] <= p.modulus + 4 * delta + 1
    assert check_disjoint_shifts(p) == (True, None)
    assert p.palette_max == 2 * p.modulus + p.step + 4 * delta + 1


def test_deterministic():
    assert compute_params(123, 3) == compute_params(123, 3)


def test_disjointness_negative_control():
    # two elements a single step apart must collide
    base = compute_params(100, 2)
    fake = PaletteParams(100, 2, base.step, base.modulus,
                         ((base.modulus + 1, base.modulus + 1),
                          (base.modulus + 1 + base.step, base.modulus + 1 + base.step)),
                         base.palette_max)
    ok, pair = check_disjoint_shifts(fake)
    assert not ok
    assert pair == (base.modulus + 1, base.modulus + 1 + base.step)


def test_rejects_bad_arguments():
    with pytest.raises(PaletteError):
        compute_params(1, 2)
    with pytest.raises(PaletteError):
        compute_params(5, 1)


def test_headline_bound_degree_100():
    # 2*100 + 5*100**(2/3)*ln(100)**2 + 16*100 + 6
    assert headline_bound(100, 2) == pytest.approx(4090.5, abs=1.0)
