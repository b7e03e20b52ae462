import math

import numpy as np
import pytest

from plbvp.greens import KernelParams, phi_envelope
from plbvp.quadrature import (
    GridFunction,
    Partition,
    QuadratureError,
    _leggauss,
    _pchip_slopes,
    _pchip_weights,
    _secants,
    cumulative,
    graded_edges,
    integrate,
    jacobi_rule,
    panel_rule,
)


def test_polynomial_exact():
    assert integrate(lambda s: s**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_sqrt_weight():
    value = integrate(lambda s: np.sqrt(1.0 - s), 0.0, 1.0)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_envelope_integral():
    kp = KernelParams(2.5, 0.5)
    value = integrate(lambda s: phi_envelope(kp, s), 0.0, 1.0)
    assert value == pytest.approx(1.053153889289145069, abs=1e-9)


def test_linearity():
    f = lambda s: np.sin(3.0 * s)
    g = lambda s: np.exp(-s)
    lhs = integrate(lambda s: 2.0 * f(s) + 0.5 * g(s), 0.0, 1.0)
    rhs = 2.0 * integrate(f, 0.0, 1.0) + 0.5 * integrate(g, 0.0, 1.0)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_refinement_improves():
    exact = 2.0 / 3.0
    errs = [abs(integrate(lambda s: np.sqrt(1.0 - s), 0.0, 1.0, panels=n) - exact)
            for n in (16, 32, 64, 128)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_empty_and_bad_intervals():
    assert integrate(lambda s: s, 0.3, 0.3) == 0.0
    with pytest.raises(ValueError):
        integrate(lambda s: s, 1.0, 0.0)


def test_nonfinite_integrand_diagnostic():
    def f(s):
        return np.where(s > 0.5, np.inf, 1.0)

    with pytest.raises(QuadratureError) as err:
        integrate(f, 0.0, 1.0)
    assert "sample point" in str(err.value)
    # the point is printed as a plain float, not as numpy's scalar repr
    point = str(err.value).rpartition("sample point ")[2]
    assert float(point) > 0.5 and repr(float(point)) == point


def test_graded_edges_shapes():
    e = graded_edges(0.0, 1.0, 17)
    assert e[0] == 0.0 and e[-1] == 1.0
    assert np.all(np.diff(e) > 0.0)
    with pytest.raises(ValueError):
        graded_edges(0.0, 1.0, 0)


def test_gauss_rule_weights_sum():
    x, w = panel_rule(graded_edges(0.25, 0.75, 13), 5)
    assert np.sum(w) == pytest.approx(0.5, rel=1e-14)
    assert np.all((x > 0.25) & (x < 0.75))


def test_jacobi_rule_is_kept_read_only():
    x, w = jacobi_rule(4, 0.7)
    again = jacobi_rule(4, 0.7)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("a", [0.02, 0.5, 1.5, 2.0])
def test_jacobi_rule_moments(a):
    # int_{-1}^{1} (1 - x)^a (1 + x)^n dx = 2^(a+n+1) B(a+1, n+1), exact for n <= 2m - 1
    x, w = jacobi_rule(5, a)
    assert np.all(np.diff(x) > 0.0) and np.all(np.abs(x) < 1.0)
    for n in range(10):
        moment = 2.0 ** (a + n + 1) * math.gamma(a + 1) * math.gamma(n + 1) \
            / math.gamma(a + n + 2)
        assert float(w @ (1.0 + x) ** n) == pytest.approx(moment, rel=1e-13)


PCHIP_DATA = ("random", "monotone", "flat", "sign-changing")


def _pchip_data(kind, rng, size):
    if kind == "random":
        return rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), size)
    if kind == "monotone":
        return np.cumsum(rng.uniform(0.0, 1.0, size))
    if kind == "flat":
        return np.round(rng.uniform(0.0, 3.0, size))  # runs of equal values
    return np.sin(rng.uniform(5.0, 40.0) * np.linspace(0.0, 1.0, size))


@pytest.mark.parametrize("kind", PCHIP_DATA)
def test_pchip_matches_scipy(kind):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(PCHIP_DATA.index(kind))
    for _ in range(50):
        part = Partition.graded(int(rng.integers(4, 301)), float(rng.uniform(1.0, 3.0)))
        x = part.nodes
        y = _pchip_data(kind, rng, x.size)
        g = GridFunction(part, y)
        ref = interpolate.PchipInterpolator(x, y)
        scale = max(1.0, float(np.max(np.abs(y))))
        outside = [-0.01, -1e-9, 1.0 + 1e-9, 1.01]
        xs = np.concatenate([rng.uniform(0.0, 1.0, 400), x, outside])
        assert np.max(np.abs(g(xs) - ref(xs))) <= 1e-13 * scale
        anti = ref.antiderivative()
        expected = anti(x) - anti(0.0)
        assert np.max(np.abs(cumulative(g).values - expected)) <= 1e-13 * scale


def _pchip_slopes_reference(h, y):
    """The node slopes by boolean masks, as the package computed them before
    it kept the weights per partition and took the end slopes as floats."""
    m = np.diff(y) / h
    d = np.zeros_like(y)
    inner = np.sign(m[:-1]) * np.sign(m[1:]) > 0.0
    w1 = (2.0 * h[1:] + h[:-1])[inner]
    w2 = (h[1:] + 2.0 * h[:-1])[inner]
    d[1:-1][inner] = 1.0 / ((w1 / m[:-1][inner] + w2 / m[1:][inner]) / (w1 + w2))
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    end[np.sign(end) != np.sign(m0)] = 0.0
    turn = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
    end[turn] = 3.0 * m0[turn]
    d[[0, -1]] = end
    return d


def _end_branch(h, y, at):
    """Which branch the end slope at index at (0 or -1) takes: "zero" (it has
    the wrong sign), "turn" (capped at 3 m0) or "plain"."""
    m = np.diff(y) / h
    h0, h1, m0, m1 = (h[0], h[1], m[0], m[1]) if at == 0 else (h[-1], h[-2], m[-1], m[-2])
    end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(end) != np.sign(m0):
        return "zero"
    if np.sign(m0) != np.sign(m1) and abs(end) > 3.0 * abs(m0):
        return "turn"
    return "plain"


def test_pchip_slopes_match_the_masked_reference_bit_for_bit():
    rng = np.random.default_rng(17)
    branches = set()
    for trial in range(400):
        part = Partition.graded(int(rng.integers(4, 200)), float(rng.uniform(1.0, 3.0)))
        h = np.diff(part.nodes)
        kind = PCHIP_DATA[trial % len(PCHIP_DATA)]
        y = _pchip_data(kind, rng, part.nodes.size)
        if trial % 3 == 0:  # zeros, including at the ends and in runs
            y[rng.integers(0, y.size, 1 + y.size // 8)] = 0.0
            y[:int(rng.integers(0, 3))] = 0.0
        want = _pchip_slopes_reference(h, y)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as its callers
            got = _pchip_slopes(_secants(h, y), _pchip_weights(h))
        assert got.tobytes() == want.tobytes()
        branches.update(_end_branch(h, y, at) for at in (0, -1))
    assert branches == {"zero", "turn", "plain"}


def test_pchip_is_monotone_on_every_cell():
    # verify reads u's extrema at the nodes because of this
    rng = np.random.default_rng(29)
    for _ in range(100):
        part = Partition.graded(int(rng.integers(16, 200)), float(rng.uniform(1.0, 3.0)))
        x = part.nodes
        u = GridFunction(part, rng.uniform(-1.0, 2.0, x.size))
        inside = x[:-1, None] + rng.uniform(0.0, 1.0, (x.size - 1, 16)) * np.diff(x)[:, None]
        values = u(inside.ravel()).reshape(inside.shape)
        ends = u(x)
        assert np.all(values >= np.minimum(ends[:-1], ends[1:])[:, None])
        assert np.all(values <= np.maximum(ends[:-1], ends[1:])[:, None])


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0.0, 0.5, 1.0]))  # too few panels
    with pytest.raises(ValueError):
        Partition(np.array([0.0, 0.5, 0.4, 0.7, 1.0]))
    with pytest.raises(ValueError):
        Partition(np.array([0.1, 0.3, 0.5, 0.7, 1.0]))
    # a nan node compares false both ways; the message names the nodes
    with pytest.raises(ValueError, match=r"increasing: nodes\[1:3\] = \[0.3, nan\]"):
        Partition(np.array([0.0, 0.3, np.nan, 0.7, 1.0]))
    part = Partition.graded(8, 2.0)
    assert part.nodes.size - 1 == 8
    assert Partition.graded(16, 2.0).nodes.size - 1 == 16
    # nodes cluster toward 1
    gaps = np.diff(part.nodes)
    assert gaps[-1] < gaps[0]


def test_grid_function_validation():
    part = Partition.graded(8)
    with pytest.raises(ValueError):
        GridFunction(part, np.ones(5))
    with pytest.raises(ValueError):
        GridFunction(part, np.full(9, np.nan))
    g = GridFunction(part, part.nodes**2)
    assert g.sup_norm() == pytest.approx(1.0)
    assert g(0.5) == pytest.approx(0.25, abs=1e-3)


def test_partition_and_grid_function_compare_by_value():
    part = Partition.graded(8)
    same = Partition(part.nodes.copy())
    nodes = part.nodes.copy()
    nodes[0] = -0.0  # equal to 0.0, with other bytes
    signed = Partition(nodes)
    other = Partition.graded(8, 1.5)
    for p in (same, signed):
        assert p == part and not p != part and hash(p) == hash(part)
    assert part != other and not part == other and part != Partition.graded(9)
    assert part != tuple(part.nodes) and part in {same} and signed in {part: 1}
    assert other not in {part, same, signed}
    g = GridFunction(part, part.nodes ** 2)
    twins = (GridFunction(same, part.nodes ** 2), GridFunction(signed, signed.nodes ** 2))
    for twin in twins:
        assert twin == g and not twin != g and hash(twin) == hash(g)
    assert g in set(twins) and g != part
    assert g != GridFunction(other, part.nodes ** 2) and g != g.with_values(part.nodes)
    assert GridFunction(part, np.zeros(9)) == GridFunction(part, -np.zeros(9))
    assert hash(GridFunction(part, np.zeros(9))) == hash(GridFunction(part, -np.zeros(9)))
    assert GridFunction(part, np.zeros(9)) not in {g}


def test_grid_function_immutable():
    part = Partition.graded(8)
    g = GridFunction(part, np.ones(9))
    with pytest.raises(Exception):
        g.values[0] = 2.0


def test_cumulative_constant():
    part = Partition.graded(64)
    f = cumulative(GridFunction.constant(part, 1.0))
    assert np.max(np.abs(f.values - part.nodes)) <= 1e-13


def test_cumulative_power_law():
    # density (5/2) tau^(3/2) integrates to s^(5/2); the cusp of the density
    # at 0 limits the interpolant there, so full accuracy needs a grid that
    # resolves it (the default partition is graded toward 1, not 0)
    part = Partition.graded(1024, 1.0)
    g = GridFunction(part, 2.5 * part.nodes ** 1.5)
    f = cumulative(g)
    assert np.max(np.abs(f.values - part.nodes**2.5)) <= 1e-8
    assert f(0.6) == pytest.approx(0.27885480092693401573, abs=1e-8)
    coarse = Partition.graded(256, 2.0)
    fc = cumulative(GridFunction(coarse, 2.5 * coarse.nodes ** 1.5))
    assert np.max(np.abs(fc.values - coarse.nodes**2.5)) <= 1e-6


def test_cumulative_zero():
    part = Partition.graded(16)
    f = cumulative(GridFunction.constant(part, 0.0))
    assert np.all(f.values == 0.0)


def test_cumulative_monotone_for_nonnegative():
    rng = np.random.default_rng(21)
    part = Partition.graded(64)
    for _ in range(10):
        g = GridFunction(part, rng.uniform(0.0, 3.0, part.nodes.size))
        f = cumulative(g)
        assert f.values[0] == 0.0
        assert np.all(np.diff(f.values) >= -1e-15)
        # interpolated values stay monotone too (shape preservation)
        xs = np.linspace(0.0, 1.0, 1000)
        assert np.all(np.diff(f(xs)) >= -1e-12)


@pytest.mark.parametrize("m", range(1, 65))
def test_leggauss_is_numpys_rule_bit_for_bit(m):
    x, w = _leggauss(m)
    nx, nw = np.polynomial.legendre.leggauss(m)
    assert x.tobytes() == nx.tobytes() and w.tobytes() == nw.tobytes()
    assert not (x.flags.writeable or w.flags.writeable)
