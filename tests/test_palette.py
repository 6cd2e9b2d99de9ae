import hashlib
import io
import json
import random
import subprocess
import sys
import time
from decimal import Context
from pathlib import Path
from types import SimpleNamespace

import pytest

from distsum import palette
from distsum.cli import _print_palette, main
from distsum.palette import (PaletteError, PaletteParams, check_disjoint_shifts,
                             compute_params, headline_bound, shifted_set)

from conftest import src_env


def elementwise_check(params):
    """The element-wise scan the interval check replaced, kept as an oracle:
    every residue of every shifted set, each owned by one element."""
    owner = {}
    for value in params.elements():
        for shifted in shifted_set(value, params.step):
            res = shifted % params.modulus
            prev = owner.get(res)
            if prev is not None and prev != value:
                return False, (prev, value)
            owner[res] = value
    return True, None


def assert_defining_relations(p, delta, r):
    """step, modulus, size, window and disjointness, each from its definition;
    the step against an independent high-precision value."""
    ctx = Context(prec=(r - 1) * len(str(delta)) + 40)
    ln = ctx.ln(delta)
    value = ctx.multiply(ctx.exp(ctx.multiply(ctx.divide(3 * r - 4, 3), ln)),
                         ctx.multiply(ln, ln))
    assert p.step - 1 < value < p.step
    floor = delta ** (r - 1) + 6 * delta + p.step
    assert p.modulus % p.step == 0 and floor <= p.modulus < floor + p.step
    assert p.size == delta + 1
    assert p.intervals[0][0] >= p.modulus + 1
    assert p.intervals[-1][1] <= p.modulus + 4 * delta + 1
    assert check_disjoint_shifts(p) == (True, None)


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


def test_interval_limit_refuses_huge_degree():
    # about D**(1/3) / ln(D)**2 blocks at r = 2: 4.2 million at D = 10**31
    start = time.perf_counter()
    with pytest.raises(PaletteError, match="^edge palette needs 4228425 intervals, "):
        compute_params(10 ** 31, 2)
    assert time.perf_counter() - start < 0.5
    assert len(compute_params(10 ** 31, 3).intervals) == 1


def test_interval_limit_boundary(monkeypatch):
    # 10**12 at r = 2 takes 14 blocks
    monkeypatch.setattr(palette, "MAX_INTERVALS", 14)
    assert len(compute_params(10 ** 12, 2).intervals) == 14
    monkeypatch.setattr(palette, "MAX_INTERVALS", 13)
    with pytest.raises(PaletteError, match="^edge palette needs 14 intervals, over 13$"):
        compute_params(10 ** 12, 2)


def test_palette_cli_refuses_interval_limit(capsys):
    out = io.StringIO()
    assert main(["palette", "--delta", str(10 ** 31), "--r", "2"], out=out) == 2
    assert out.getvalue() == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: edge palette needs ")


def test_element_lookup():
    p = compute_params(2, 2)
    # step 1, modulus 15: three singleton blocks
    assert list(p.elements()) == [16, 20, 24]


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


# Golden digests of the criterion-3 grid (max degree 2..1000 at each radius),
# recorded from the earlier multiple-precision step: per radius, one of the
# lines "D r step modulus lo-hi ..." and one of the `distsum palette` stdouts
# (written by the command's body; argument parsing would triple the time).
@pytest.mark.parametrize("r", [2, 3, 4])
def test_grid_golden_and_oracle(r):
    expected = json.loads((Path(__file__).parent / "palette_digests.json").read_text())
    lines, stdout = [], []
    for delta in range(2, 1001):
        p = compute_params(delta, r)
        lines.append(f"{delta} {r} {p.step} {p.modulus} "
                     + " ".join(f"{lo}-{hi}" for lo, hi in p.intervals) + "\n")
        assert check_disjoint_shifts(p) == elementwise_check(p) == (True, None), delta
        out = io.StringIO()
        assert _print_palette(SimpleNamespace(delta=delta, r=r), out) == 0
        stdout.append(out.getvalue())
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == expected[f"params r={r}"]
    assert hashlib.sha256("".join(stdout).encode()).hexdigest() == expected[f"stdout r={r}"]


def _random_fake(rng):
    """Blocks of random widths and gaps above a random modulus, built like
    the negative control; most of them overlap once shifted."""
    step = rng.randint(1, 12)
    modulus = step * rng.randint(1, 10) + rng.randint(0, 3)
    intervals, lo = [], modulus + rng.randint(1, 2 * step + 1)
    for _ in range(rng.randint(1, 5)):
        hi = lo + rng.randint(0, 2 * step)
        intervals.append((lo, hi))
        lo = hi + 1 + rng.randint(0, 5 * step)
    size = sum(hi - lo + 1 for lo, hi in intervals)
    return PaletteParams(size - 1, 2, step, modulus, tuple(intervals), 0)


def assert_collision(p, pair):
    """`pair` is two palette elements, smaller first, whose shifted sets
    share a residue."""
    a, b = pair
    elements = set(p.elements())
    assert a < b and a in elements and b in elements
    residues = [{x % p.modulus for x in shifted_set(v, p.step)} for v in pair]
    assert residues[0] & residues[1]


@pytest.mark.parametrize("seed", range(4))
def test_random_fakes_agree_with_oracle(seed):
    rng = random.Random(seed)
    overlapping = 0
    for _ in range(500):
        p = _random_fake(rng)
        ok, pair = check_disjoint_shifts(p)
        assert ok == elementwise_check(p)[0]
        if ok:
            assert pair is None
        else:
            overlapping += 1
            assert_collision(p, pair)
    assert overlapping > 250


def test_wide_block_overlaps_itself():
    # a block of modulus or more elements holds lo and lo + modulus
    for width in (9, 10, 21):
        fake = PaletteParams(width - 1, 2, 3, 9, ((10, 9 + width),), 0)
        assert elementwise_check(fake)[0] is False
        ok, pair = check_disjoint_shifts(fake)
        assert not ok
        assert_collision(fake, pair)


@pytest.mark.parametrize("delta,r", [(10 ** 9, 8), (10 ** 12, 6), (10 ** 15, 5),
                                     (10 ** 6, 12)])
def test_huge_parameters(delta, r):
    assert_defining_relations(compute_params(delta, r), delta, r)


def test_step_precision_doubles(monkeypatch):
    # at (36, 2) the first precision leaves an integer between the bounds
    rounds = []
    icbrt = palette._icbrt
    monkeypatch.setattr(palette, "_icbrt", lambda n: rounds.append(n) or icbrt(n))
    assert compute_params(36, 2).step == 141
    assert len(rounds) == 2
    rounds.clear()
    assert compute_params(100, 2).step == 457
    assert len(rounds) == 1


def test_icbrt():
    for n in list(range(200)) + [10 ** 30 - 1, 10 ** 30, 10 ** 30 + 1, 7 ** 61]:
        c = palette._icbrt(n)
        assert c ** 3 <= n < (c + 1) ** 3


def test_palette_cli_huge_degree():
    # the element-wise check needed about 7 GB here
    out = io.StringIO()
    start = time.perf_counter()
    assert main(["palette", "--delta", "20000000", "--r", "2"], out=out) == 0
    assert time.perf_counter() - start < 1.0
    assert out.getvalue().split("\n", 1)[0].endswith(" shifts_disjoint=true")


def test_import_leaves_out_mpmath():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, distsum; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_rejects_bad_arguments():
    # headline_bound shares the domain check: outside it, its float powers
    # divide by zero (0 ** -1/3) or go complex
    for refuse in (compute_params, headline_bound):
        with pytest.raises(PaletteError, match="max_degree must be >= 2, got 1"):
            refuse(1, 2)
        with pytest.raises(PaletteError, match="radius must be >= 2, got 1"):
            refuse(5, 1)
        with pytest.raises(PaletteError, match="max_degree must be >= 2, got 0"):
            refuse(0, 1)


@pytest.mark.parametrize("delta,r", [(1000, 104), (2, 1024)],
                         ids=["overflow-error", "infinite-sum"])
def test_headline_bound_past_float_range(delta, r):
    with pytest.raises(PaletteError, match="overflows a float"):
        headline_bound(delta, r)


def test_headline_bound_refuses_huge_radius_fast():
    # 1000^(10^7 - 1) as an exact integer alone takes most of a minute
    start = time.perf_counter()
    with pytest.raises(PaletteError, match="overflows a float at r=10000000$"):
        headline_bound(1000, 10**7)
    assert time.perf_counter() - start < 1.0


def test_palette_cli_refuses_bound_past_float_range(capsys):
    out = io.StringIO()
    assert main(["palette", "--delta", "1000", "--r", "104"], out=out) == 2
    assert out.getvalue() == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert main(["palette", "--delta", "1000", "--r", "103"], out=out) == 0
    assert out.getvalue().startswith("palette delta=1000 r=103 ")


def test_palette_cli_refuses_bound_before_exact_arithmetic(monkeypatch, capsys):
    def exact_arithmetic(*args):
        raise AssertionError("exact step computed")
    monkeypatch.setattr(palette, "_step_value", exact_arithmetic)
    assert main(["palette", "--delta", "1000", "--r", "1000"], out=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: headline bound overflows a float at r=1000\n"
    # the bound's own domain check keeps compute_params' message
    assert main(["palette", "--delta", "0", "--r", "1"], out=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: max_degree must be >= 2, got 0\n"


def test_headline_bound_degree_100():
    # 2*100 + 5*100**(2/3)*ln(100)**2 + 16*100 + 6
    assert headline_bound(100, 2) == pytest.approx(4090.5, abs=1.0)


@pytest.mark.parametrize("r", [104, 20000])
def test_compute_params_refuses_bound_past_float_range(r):
    # the check must come before any exact power: 1000^19999 alone takes
    # over a minute
    start = time.perf_counter()
    with pytest.raises(PaletteError, match=f"headline bound overflows a float at r={r}$"):
        compute_params(1000, r)
    assert time.perf_counter() - start < 1.0


def test_compute_params_answers_at_palette_cli_boundary():
    # r = 103 is the last radius the palette command answers at degree 1000
    assert compute_params(1000, 103).modulus > 1000 ** 102
