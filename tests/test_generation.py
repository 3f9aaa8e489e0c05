"""random_finite's chain placement against the scalar loop it replaces, the
block draws it takes from SplitMix64, and rejection rounds for candidates
whose chains cannot be placed."""

import copy
from math import cos, dist as _euclid, pi, sin

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfixpoint import scenarios
from bfixpoint.orbit import run_orbit
from bfixpoint.quasicontraction import enumerate_fixed_points, image_of
from bfixpoint.rng import _GOLDEN, _MASK64, SplitMix64
from bfixpoint.scenarios import _SEPARATION, _STOP_RADIUS, instantiate, random_finite

# --- block draws ------------------------------------------------------------


@settings(max_examples=60)
@given(
    seed=st.one_of(st.integers(0, _MASK64), st.integers(_MASK64 - 2**16, _MASK64)),
    k=st.sampled_from([0, 1, 2, 7, 63, 128, 2000]),
)
@example(seed=0, k=0)
@example(seed=0, k=2000)
@example(seed=_MASK64, k=1)
@example(seed=_MASK64, k=2000)
@example(seed=(-_GOLDEN) & _MASK64, k=3)  # the first draw mixes state 0
@example(seed=(-5 * _GOLDEN) & _MASK64, k=9)  # the state wraps inside the block
def test_block_draws_are_the_scalar_draws(seed, k):
    rng = SplitMix64(seed)
    scalar = copy.copy(rng)
    block = rng.peek_uniforms(k)
    assert block.dtype == np.float64 and block.shape == (k,)
    assert block.tolist() == [scalar.uniform() for _ in range(k)]
    rng.advance(k)
    assert rng.next_u64() == scalar.next_u64()


# --- placement --------------------------------------------------------------


def reference_place(rng, n_points, u, lam, theta, graft_tol):
    """The scalar chain-placement loop random_finite used before block
    draws and the rollback screen, kept verbatim as the reference."""
    ct, st = cos(theta), sin(theta)

    def step(z):
        dx, dy = z[0] - u[0], z[1] - u[1]
        return (u[0] + lam * (ct * dx - st * dy), u[1] + lam * (st * dx + ct * dy))

    placed: list[tuple[float, float]] = [u]
    succ: dict[tuple[float, float], tuple[float, float]] = {u: u}

    guard = 0
    while len(placed) < n_points:
        guard += 1
        if guard > 2000:
            raise RuntimeError("could not place separated chains")
        r0 = rng.uniform(0.18, 0.5)
        ang = rng.uniform(0.0, 2.0 * pi)
        z = (u[0] + r0 * cos(ang), u[1] + r0 * sin(ang))
        chain: list[tuple[float, float]] = []
        target = None
        while True:
            near = min(placed, key=lambda w: _euclid(z, w))
            gap = _euclid(z, near)
            if chain and gap <= graft_tol:
                target = near
                break
            if gap < _SEPARATION:
                break  # too close to graft, too far to ignore: roll back
            chain.append(z)
            if _euclid(z, u) <= _STOP_RADIUS:
                target = u
                break
            z = step(z)
        if target is not None and chain:
            for a, b in zip(chain, chain[1:]):
                succ[a] = b
            succ[chain[-1]] = target
            placed.extend(chain)
    return placed, succ


def first_candidate(seed, p, alpha_cap):
    """The generator and draws of random_finite's first candidate, as
    _build_candidate takes them before placing chains."""
    rng = SplitMix64(seed).derive()
    cap_e = alpha_cap ** (1.0 / p)
    lam = rng.uniform(0.15 * cap_e, 0.3 * cap_e)
    graft_tol = 0.3 * cap_e * _SEPARATION
    theta = rng.uniform(0.0, 2.0 * pi)
    u = (rng.uniform(0.35, 0.65), rng.uniform(0.35, 0.65))
    return rng, u, lam, theta, graft_tol


def placement(place, seed, n, p, alpha_cap):
    """(placed points and successor map, or the raised message; the
    generator's next draw)."""
    rng, u, lam, theta, graft_tol = first_candidate(seed, p, alpha_cap)
    try:
        out = place(rng, n, u, lam, theta, graft_tol)
    except RuntimeError as exc:
        out = str(exc)
    return out, rng.next_u64()


def contraction(u, lam, theta):
    """_build_candidate's step toward u."""
    ct, st = cos(theta), sin(theta)

    def step(z):
        dx, dy = z[0] - u[0], z[1] - u[1]
        return (u[0] + lam * (ct * dx - st * dy), u[1] + lam * (st * dx + ct * dy))

    return step


def block_place(rng, n, u, lam, theta, graft_tol):
    return scenarios._place_chains(rng, n, u, contraction(u, lam, theta), graft_tol)


# seeds per size: failing candidates draw all 2000 chains, and the
# reference scans every placed point for each, so large n is sampled thinner
SEEDS = {8: 48, 12: 32, 16: 12, 20: 6, 24: 5, 30: 4, 40: 3}


@pytest.mark.parametrize("n", sorted(SEEDS))
def test_placement_equals_the_scalar_loop(n, monkeypatch):
    for seed in range(SEEDS[n]):
        for p in (1.0, 1.5, 2.0, 3.0):
            for alpha_cap in (0.45, 0.6):
                want = placement(reference_place, seed, n, p, alpha_cap)
                assert placement(block_place, seed, n, p, alpha_cap) == want, (seed, p, alpha_cap)
    # first blocks of 1 and 7 starts, doubling up to caps of 1 to 512 starts,
    # put block edges inside screened runs at every growth step and at the
    # cap; a cap of 1 builds a screen per start, so one placement per size
    want = placement(reference_place, 0, n, 2.0, 0.6)
    for block, cap in ((1, 1), (1, 2), (1, 16), (7, 7), (7, 16), (7, scenarios._BLOCK_CAP)):
        monkeypatch.setattr(scenarios, "_BLOCK", block)
        monkeypatch.setattr(scenarios, "_BLOCK_CAP", cap)
        assert placement(block_place, 0, n, 2.0, 0.6) == want, (block, cap)


def test_most_chains_of_a_failing_candidate_skip_the_chain_body(monkeypatch):
    follow, calls = scenarios._follow, []

    def spy(*args):
        calls.append(args[0])
        return follow(*args)

    want = placement(reference_place, 0, 40, 2.0, 0.6)
    monkeypatch.setattr(scenarios, "_follow", spy)
    assert placement(block_place, 0, 40, 2.0, 0.6) == want
    assert want[0] == "could not place separated chains"
    assert 0 < len(calls) <= 60  # 29 of them accepted chains


def test_a_failing_candidate_builds_one_screen_per_doubling(monkeypatch):
    # the candidate above draws all 2000 starts and screens from its first
    # block on: blocks of 64, 128, 256 and then 512 starts to the end, one
    # _Screen each (32 with a block of 64 starts throughout)
    screen, follow, sizes, calls = scenarios._Screen, scenarios._follow, [], []

    class Counted(screen):
        def __init__(self, zx, *args):
            sizes.append(len(zx))
            super().__init__(zx, *args)

    def spy(*args):
        calls.append(args[0])
        return follow(*args)

    monkeypatch.setattr(scenarios, "_Screen", Counted)
    monkeypatch.setattr(scenarios, "_follow", spy)
    assert placement(block_place, 0, 40, 2.0, 0.6)[0] == "could not place separated chains"
    assert sizes == [64, 128, 256, 512, 512, 512, 16]
    assert 0 < len(calls) <= 60


def _screen(starts, placed, u=(0.2, 0.2), lam=0.1, theta=0.0, graft_tol=0.01):
    zx, zy = [z[0] for z in starts], [z[1] for z in starts]
    return scenarios._Screen(zx, zy, placed, u, contraction(u, lam, theta), graft_tol)


def _rounds_below_separation():
    """A start z and a point w with math.dist(z, w) == _SEPARATION, whose
    square sum rounds below _SEPARATION**2: _follow keeps z."""
    w = (0.6, 0.6)
    rng = SplitMix64(7)
    while True:
        ang = rng.uniform(0.0, 2.0 * pi)
        z = (w[0] + _SEPARATION * cos(ang), w[1] + _SEPARATION * sin(ang))
        dx, dy = z[0] - w[0], z[1] - w[1]
        if _euclid(z, w) == _SEPARATION and dx * dx + dy * dy < _SEPARATION**2:
            return z, w


def test_screen_never_skips_a_start_within_its_margin():
    z, w = _rounds_below_separation()
    far = (0.95, 0.05)  # a sure rollback: 1e-3 from a placed point
    placed = [(0.2, 0.2), w, (far[0] + 1e-3, far[1])]
    screen = _screen([far, far, z, far], placed)
    assert screen.skip.tolist() == [True, True, False, True] and screen.next_open(0) == 2
    assert _screen([z, far], placed).next_open(0) == 0


def test_screen_never_skips_a_graft_after_the_first_step():
    u, lam, graft_tol = (0.2, 0.2), 0.1, 0.01
    z0 = (0.9, 0.2)  # one step lands at (0.27, 0.2)
    graft = (0.27 + 0.5 * graft_tol, 0.2)  # within graft_tol of that step, outside _STOP_RADIUS of u
    far = (0.95, 0.05)
    placed = [u, graft, (far[0] + 1e-3, far[1])]
    assert _euclid(z0, graft) > _SEPARATION and _euclid(graft, u) > _STOP_RADIUS
    assert _screen([far, z0], placed, u, lam, 0.0, graft_tol).skip.tolist() == [True, False]
    chain, target = scenarios._follow(z0, placed, u, contraction(u, lam, 0.0), graft_tol)
    assert target == graft and chain == [z0]


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    alpha_cap=st.sampled_from([0.45, 0.6]),
    lead=st.integers(0, 128),
)
def test_screen_kept_current_equals_a_screen_built_fresh(seed, p, alpha_cap, lead):
    # `lead` starts crowd the placement first; the screen then takes a block
    # of 64 starts and each chain accepted from it, one at a time
    rng, u, lam, theta, graft_tol = first_candidate(seed, p, alpha_cap)
    step = contraction(u, lam, theta)
    starts = []
    for _ in range(lead + 64):
        r0, ang = rng.uniform(0.18, 0.5), rng.uniform(0.0, 2.0 * pi)
        starts.append((u[0] + r0 * cos(ang), u[1] + r0 * sin(ang)))
    placed = [u]

    def accept(z):
        chain, target = scenarios._follow(z, placed, u, step, graft_tol)
        return chain if target is not None else []

    def check(screen):
        fresh = scenarios._Screen(zx, zy, placed, u, step, graft_tol)
        assert screen.skip.tolist() == fresh.skip.tolist()
        for w, skip in zip(block, screen.skip):
            assert not skip or scenarios._follow(w, placed, u, step, graft_tol)[1] is None

    for z in starts[:lead]:
        placed.extend(accept(z))
    block = starts[lead:]
    zx, zy = [z[0] for z in block], [z[1] for z in block]
    screen = scenarios._Screen(zx, zy, placed, u, step, graft_tol)
    check(screen)
    for z in block:
        chain = accept(z)
        if chain:
            placed.extend(chain)
            screen.add(chain)
            check(screen)


# --- rejection rounds -------------------------------------------------------


def test_placement_failure_starts_the_next_round(monkeypatch):
    place, rounds = scenarios._place_chains, []

    def failing_first(rng, *args):
        rounds.append(rng)
        if len(rounds) == 1:
            raise scenarios._PlacementError("could not place separated chains")
        return place(rng, *args)

    monkeypatch.setattr(scenarios, "_place_chains", failing_first)
    sc, cert = random_finite(42, 8, 2.0, 0.6)
    assert len(rounds) >= 2 and cert.alpha_min <= 0.6


def test_other_runtime_errors_propagate(monkeypatch):
    def broken(*args):
        raise RuntimeError("certify broke")

    monkeypatch.setattr(scenarios, "certify", broken)
    with pytest.raises(RuntimeError, match="^certify broke$"):
        random_finite(42, 8, 2.0, 0.6)


def test_message_after_every_round_fails(monkeypatch):
    def never(*args):
        raise scenarios._PlacementError("could not place separated chains")

    monkeypatch.setattr(scenarios, "_place_chains", never)
    with pytest.raises(RuntimeError) as info:
        random_finite(5, 8, 2.0, 0.6)
    assert type(info.value) is RuntimeError
    assert str(info.value) == "no acceptable instance after 1000 rejections (seed 5)"


@pytest.mark.parametrize("n", [12, 16, 20, 30, 40])
def test_generation_keeps_its_promises(n):
    for seed in range(100):
        sc, cert = random_finite(seed, n, 2.0, 0.6)
        space, tmap = instantiate(sc)
        fixed = enumerate_fixed_points(space, tmap)
        p = sc.params
        tr = run_orbit(space, tmap, p.c, p.q, p.alpha, sc.x0, tol=sc.tol, max_iter=sc.max_iter)
        assert cert.alpha_min <= 0.6 and cert.verdicts["thm33"] and cert.coverage == "exhaustive", seed
        assert image_of(space, tmap, 0).elements == (0,) and 0 in fixed, seed
        assert tr.status == "converged" and tr.fixed_point in fixed, seed
