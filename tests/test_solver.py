import copy
import gc
import inspect
import math
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest

import plbvp
from plbvp import exprlang, problemfile, solver
from plbvp.cases import CASES
from plbvp.exprlang import ExprEvalError, ExprOverflowError, parse
from plbvp.greens import KernelParams, cone_gamma, phi_envelope
from plbvp.plaplacian import phi
from plbvp.quadrature import (
    FixedPoints,
    GridFunction,
    Partition,
    QuadratureError,
    cumulative,
    integrate,
    jacobi_rule,
    panel_rule,
)
from plbvp.solver import (
    BLOCK_ROWS,
    ORIGIN_LEVELS,
    STORE_ENTRIES,
    Discretization,
    KernelAssembly,
    Problem,
    SolverError,
    SolverSettings,
    _at_nodes,
    apply_operator,
    picard_solve,
)
from plbvp.theorems import (
    check_contraction_large_p,
    check_krasnoselskii,
    check_leray_schauder,
    lambda1,
    lambda2,
)
from plbvp.verify import integral_form_residual, verification_report


def _problem(a="1", f="1", alpha=2.5, eta=0.5, p=1.5, **disc):
    discretization = Discretization(**disc) if disc else Discretization()
    return Problem(alpha=alpha, eta=eta, p=p, a=parse(a, variables=("t",)),
                   f=parse(f), discretization=discretization)


def test_problem_validation():
    with pytest.raises(ValueError):
        _problem(alpha=2.0)
    with pytest.raises(ValueError):
        _problem(eta=1.0)
    with pytest.raises(ValueError):
        _problem(p=1.0)
    with pytest.raises(ValueError):
        Problem(alpha=2.5, eta=0.5, p=1.5,
                a=parse("u", variables=("t", "u")), f=parse("1"))
    # negative f is caught on the validation lattice with a witness
    with pytest.raises(ValueError) as err:
        _problem(f="t-1")
    assert "negative" in str(err.value)
    with pytest.raises(ValueError):
        _problem(a="t-1")


@pytest.mark.parametrize("f, error, message", [
    ("ln(u-50)+1", ExprEvalError,
     "log of a nonpositive value in 'ln(u - 50.0)' at t=0.0, u=0.0"),
    ("sqrt(t-0.3)*u", ExprEvalError,
     "square root of a negative value in 'sqrt(t - 0.3)' at t=0.0, u=0.0"),
    ("u^(t-0.5)", ExprEvalError,
     "zero base with negative exponent in 'u^(t - 0.5)' at t=0.0, u=0.0"),
    ("1/(u-37.5)", ExprEvalError,
     "division by zero in '1.0/(u - 37.5)' at t=0.0, u=37.5"),
    ("sin(10*t)*u", ValueError,
     "f(t, u) is negative: f(0.47000000000000003, 100.0) = -99.99232575641008"),
])
def test_validation_diagnostics_name_the_first_lattice_point(f, error, message):
    # the first offending point in (t, u) lattice order, or the argmin of f
    with pytest.raises(error) as err:
        _problem(f=f)
    assert str(err.value) == message


def test_zero_nonlinearity_gives_zero_operator():
    pb = _problem(f="0")
    u = GridFunction(pb.partition(), np.linspace(0.0, 1.0, pb.partition().nodes.size))
    au = apply_operator(pb, u)
    assert au.sup_norm() == 0.0


def test_operator_oracle_constant_density():
    """a f == 1 with q = 3: A u(t) = int K(t,s) s^2 ds, known in closed form."""
    pb = _problem(a="1", f="1", alpha=2.5, eta=0.5, p=1.5)
    part = pb.partition()
    au = apply_operator(pb, GridFunction.constant(part, 0.0))
    # frozen endpoint values (high-resolution independent quadrature)
    assert au.values[0] == pytest.approx(0.19495535588821019746, abs=5e-9)
    assert au.values[-1] == pytest.approx(0.15674569097069019496, abs=5e-9)
    # full curve against the beta-function closed form
    b325 = math.gamma(3.0) * math.gamma(2.5) / math.gamma(5.5)
    b315 = math.gamma(3.0) * math.gamma(1.5) / math.gamma(4.5)
    t = part.nodes
    expected = (b325 * (1.0 - t**4.5) / math.gamma(2.5)
                + b315 * (1.0 - 0.5**3.5) / math.gamma(1.5))
    assert np.max(np.abs(au.values - expected)) <= 5e-9


@pytest.mark.parametrize("alpha", [2.02, 2.5, 3.0])
def test_fractional_integral_of_monomials(alpha):
    # I^alpha s^k = Gamma(k+1) / Gamma(k+1+alpha) t^(k+alpha)
    part = Partition.graded(256, 2.0)
    assembly = KernelAssembly(KernelParams(alpha, 0.5), part, 4)
    t = part.nodes
    for k in range(4):
        exact = math.gamma(k + 1) / math.gamma(k + 1 + alpha) * t ** (k + alpha)
        ialpha = _at_nodes(assembly._integrals(lambda s: s ** k))
        assert np.max(np.abs(ialpha - exact)) <= 1e-12


@pytest.mark.parametrize("alpha", [2.02, 2.2, 2.5, 3.0])
@pytest.mark.parametrize("delta", [0.0, 1e-9, 1e-7, 1e-5, 1e-3, 0.065, 0.5, 0.999])
def test_c0_with_eta_just_above_a_node(alpha, delta):
    # for g = 1, C0 = 1 / Gamma(alpha + 1) + (1 - eta^(alpha - 1)) / Gamma(alpha);
    # (eta - s)^(alpha - 2) is nearly singular on the cell below eta's when
    # eta sits delta panels above node 64.  6 points, because at 4 the
    # Gauss-Legendre error of the cells further down is about 1e-10.
    part = Partition.graded(128, 2.0)
    t = part.nodes
    eta = t[64] + delta * (t[65] - t[64])
    assembly = KernelAssembly(KernelParams(alpha, eta), part, 6)
    c0 = assembly.apply_to(np.ones_like)[0]
    exact = 1.0 / math.gamma(alpha + 1.0) + (1.0 - eta ** (alpha - 1.0)) / math.gamma(alpha)
    assert abs(c0 - exact) <= 1e-12


def _rule_geometry(kp, partition, m):
    """KernelAssembly's cell edges, shared Gauss points and weights, targets
    and the tail cell of each target, built as the rule builds them."""
    nodes = partition.nodes
    halves = 0.5 ** np.arange(ORIGIN_LEVELS, 0, -1)
    edges = np.concatenate([[0.0], nodes[1] * halves, nodes[1:]])
    k = max(int(np.searchsorted(edges, kp.eta)) - 1, 1)
    edges = np.insert(edges, k, edges[k] - (edges[k] - edges[k - 1]) * halves[::-1])
    x, w = panel_rule(edges, m)
    taus = np.concatenate([nodes[1:], [1.0, kp.eta]])
    return edges, x, w, taus, np.searchsorted(edges, taus) - 1


def _dense_rule(kp, partition, g, m=4):
    """Reference: KernelAssembly's rule with its full weight matrix, zeros
    right of each row's tail cell included, applied in one product.  Returns
    I^beta g at t_1..t_N, 1 and eta, and the bytes of the matrix."""
    edges, x, w, taus, tail = _rule_geometry(kp, partition, m)
    lo = edges[tail]
    half = 0.5 * (taus - lo)
    weights = np.maximum(taus[:, None] - x[None, :], 0.0)
    tail_x = np.empty((taus.size, m))
    tail_w = np.empty((taus.size, m))
    for rows, beta in ((slice(None, -2), kp.alpha), (slice(-2, None), kp.alpha - 1.0)):
        scale = 1.0 / math.gamma(beta)
        weights[rows] = np.power(weights[rows], beta - 1.0) * (scale * w)
        xj, wj = jacobi_rule(m, beta - 1.0)
        tail_x[rows] = lo[rows, None] + half[rows, None] * (1.0 + xj)
        tail_w[rows] = scale * half[rows, None] ** beta * wj
    weights[np.arange(taus.size)[:, None], tail[:, None] * m + np.arange(m)] = 0.0
    return weights @ g(x) + np.sum(tail_w * g(tail_x), axis=1), weights.nbytes


def _reference_blocks(kp, partition, m):
    """Reference: KernelAssembly's stored blocks built one array per block,
    every distance clipped at 0 and raised to beta - 1, zeros included, and
    the tail cells zeroed by index."""
    _, x, w, taus, tail = _rule_geometry(kp, partition, m)
    scaled = {beta: (1.0 / math.gamma(beta)) * w for beta in (kp.alpha, kp.alpha - 1.0)}
    blocks = []
    for r0 in range(0, taus.size - 1, BLOCK_ROWS):
        r1 = r0 + BLOCK_ROWS if r0 + BLOCK_ROWS < taus.size - 1 else taus.size
        cols = min(-(-m * int(tail[r0:r1].max()) // 4) * 4, x.size)
        block = taus[r0:r1, None] - x[None, :cols]
        np.maximum(block, 0.0, out=block)
        split = max(min(taus.size - 2, r1) - r0, 0)
        for part, beta in ((block[:split], kp.alpha), (block[split:], kp.alpha - 1.0)):
            np.power(part, beta - 1.0, out=part)
            part *= scaled[beta][:cols]
        cells = m * tail[r0:r1, None] + np.arange(m)
        i, j = np.nonzero(cells < cols)
        block[i, cells[i, j]] = 0.0
        blocks.append(block)
    return blocks


def _arrays_of(blocks, limit):
    """The arrays that hold the blocks, after checking that each holds a run
    of consecutive blocks, back to back, within limit entries or alone."""
    arrays = []
    for block in blocks:
        assert block.base is not None
        if not arrays or block.base is not arrays[-1]:
            arrays.append(block.base)
    assert len({id(array) for array in arrays}) == len(arrays)
    for array in arrays:
        run = [block for block in blocks if block.base is array]
        assert np.concatenate([block.ravel() for block in run]).tobytes() == array.tobytes()
        assert len(run) == 1 or array.size <= limit
    return arrays


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("panels", [4, 64, 95, 128, 257])
@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("limit", [STORE_ENTRIES, 20000])
def test_blocks_match_the_per_block_construction_bit_for_bit(panels, m, limit, monkeypatch):
    # at 95 panels the last block takes a one-row remainder besides the C0
    # rows; eta near 0, inside a panel, on a node and next to 1.  Every rule
    # here fits in one array of STORE_ENTRIES; in arrays of 20000 entries,
    # from 64 panels on, some blocks share an array and some take their own.
    monkeypatch.setattr(solver, "STORE_ENTRIES", limit)
    part = Partition.graded(panels, 2.0)
    for alpha in (2.0 + 1e-9, 2.05, 2.5, 3.0):
        for eta in (1e-9, 0.3, float(part.nodes[panels // 2]), 1.0 - 1e-9):
            kp = KernelParams(alpha, eta)
            blocks = KernelAssembly(kp, part, m)._blocks
            want = _reference_blocks(kp, part, m)
            assert [b.shape for b in blocks] == [b.shape for b in want]
            assert all(b.tobytes() == ref.tobytes() for b, ref in zip(blocks, want))
            arrays = _arrays_of(blocks, limit)
            assert len(arrays) == 1 or limit < STORE_ENTRIES


@pytest.mark.parametrize("panels", [4, 64, 95, 128, 257])
@pytest.mark.parametrize("m", [2, 4, 6])
def test_points_placed_from_their_cells_match_the_search_bit_for_bit(panels, m):
    # the rule takes each sample point's panel from its cell, without the
    # search of FixedPoints; the grid of the block test above
    part = Partition.graded(panels, 2.0)
    for alpha in (2.0 + 1e-9, 2.05, 2.5, 3.0):
        for eta in (1e-9, 0.3, float(part.nodes[panels // 2]), 1.0 - 1e-9):
            rule = KernelAssembly(KernelParams(alpha, eta), part, m)
            placed, searched = rule._at_points, FixedPoints(part.nodes, rule._points)
            assert placed.cell.dtype == searched.cell.dtype
            assert placed.cell.tobytes() == searched.cell.tobytes()
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(placed.offsets, searched.offsets))


@pytest.mark.parametrize("panels", [4, 5, 31, 33, 64, 257])
@pytest.mark.parametrize("alpha", [2.02, 2.5, 3.0])
def test_blocked_rule_matches_dense_rule(panels, alpha):
    # no panel count is a multiple of the block size; eta in the first panel,
    # on a node, 1e-5 of a panel above a node, and in the last panel
    part = Partition.graded(panels, 2.0)
    t = part.nodes
    j = panels // 3
    etas = (0.5 * t[1], t[panels // 2], t[j] + 1e-5 * (t[j + 1] - t[j]), 0.5 * (t[-2] + 1.0))

    def g(s):
        return 1.0 + s ** 0.3 + np.sin(5.0 * s) ** 2

    for eta in etas:
        kp = KernelParams(alpha, float(eta))
        rows, _ = _dense_rule(kp, part, g)
        ialpha = np.concatenate([[0.0], rows[:-2]])
        assembly = KernelAssembly(kp, part)
        for got, want in ((_at_nodes(assembly._integrals(g)), ialpha),
                          (assembly.apply_to(g), rows[-3] + rows[-2] - rows[-1] - ialpha)):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_blocked_rule_stores_about_half_the_dense_matrix():
    panels, m = 1024, 4
    assembly = KernelAssembly(KernelParams(2.5, 0.5), Partition.graded(panels, 2.0), m)
    stored = sum(block.nbytes for block in assembly._blocks)
    assert stored <= 0.55 * (panels + 2) * m * (panels + 2 * ORIGIN_LEVELS) * 8


def test_problem_builds_one_assembly_per_partition(monkeypatch):
    built = []
    init = KernelAssembly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(KernelAssembly, "__init__", counting_init)
    pb = _problem(f="(1 + u)/2", panels=64)
    report = picard_solve(pb)
    verification_report(pb, report.solution, 0.5)
    apply_operator(pb, report.solution)
    apply_operator(pb, report.solution)
    assert len(built) == 1
    # a solution on another partition gets a rule of its own
    apply_operator(pb, GridFunction.constant(Partition.graded(32, 2.0), 0.1))
    assert len(built) == 2
    # a copy with other settings starts without the rule of the original,
    # here one with other points on the same nodes
    six = replace(pb, discretization=replace(pb.discretization, points_per_panel=6))
    apply_operator(six, report.solution)
    assert len(built) == 3 and built[-1][2] == 6


def test_last_application_is_not_reused_on_another_partition():
    # the same nodal values on another partition with as many nodes: the
    # application is that of the new partition, as on a fresh problem
    pb = _problem(f="(1 + u)/2", panels=64)
    other = Partition.graded(64, 1.5)
    values = np.linspace(0.3, 0.1, 65)
    apply_operator(pb, GridFunction(pb.partition(), values))
    got = apply_operator(pb, GridFunction(other, values)).values
    assert np.array_equal(got, apply_operator(replace(pb), GridFunction(other, values)).values)


def test_kept_assembly_is_invisible():
    pb = replace(CASES["ex43"].problem)  # a new instance, with nothing kept yet
    fresh, key = pickle.dumps(pb), hash(pb)
    assert len(fresh) == 410
    report = picard_solve(pb)
    # the theorem checks keep int_0^1 a, Lambda_2 and f's box extrema beside the plan
    l1, l2 = lambda1(pb), lambda2(pb, 0.5)
    check_leray_schauder(pb, 1.0)
    check_krasnoselskii(pb, 0.5, 1.0 / 120.0, 1.0)
    check_contraction_large_p(pb, 0.005, 1.5, 0.01)
    assert set(pb.__dict__["_kept"]) > {"plan", "a_integral", ("lambda2", 0.5)}
    assert pickle.dumps(pb) == fresh
    assert hash(pb) == key and pb == replace(pb) and repr(pb) == repr(replace(pb))
    clone = copy.deepcopy(pb)
    assert clone == pb and hash(clone) == key and "_kept" not in clone.__dict__
    assert np.array_equal(picard_solve(clone).solution.values, report.solution.values)
    # a copy with other panels computes int_0^1 a and Lambda_2 on its own
    coarse = replace(pb, discretization=replace(pb.discretization, panels=64))
    assert "_kept" not in coarse.__dict__
    assert lambda2(coarse, 0.5) != l2
    assert lambda1(coarse) != l1 and lambda1(coarse) == lambda1(replace(coarse))
    assert lambda2(coarse, 0.5) == lambda2(replace(coarse), 0.5)
    assert (lambda1(pb), lambda2(pb, 0.5)) == (l1, l2)
    ref = weakref.ref(pb)
    del pb, report, coarse
    gc.collect()
    assert ref() is None


def test_kept_partition_is_one_object_and_invisible():
    pb = replace(CASES["ex43"].problem)
    disc = pb.discretization
    part = pb.partition()
    assert pb.partition() is part and disc.partition() is part
    assert picard_solve(pb).solution.partition is part
    # a copy starts without the partition and builds an equal one on demand;
    # keeping it changes no pickle, equality, hash or repr
    bare = copy.copy(disc)
    assert "_partition" not in bare.__dict__
    key, fresh = hash(bare), pickle.dumps(bare)
    assert bare.partition().nodes.tobytes() == part.nodes.tobytes()
    assert "_partition" in bare.__dict__
    for kept in (bare, disc):
        assert pickle.dumps(kept) == fresh and hash(kept) == key
        assert kept == replace(kept) and repr(kept) == repr(replace(kept))
    for clone in (pickle.loads(fresh), copy.deepcopy(disc), replace(disc)):
        assert clone == disc and hash(clone) == key
        assert clone.partition() is not part
    assert replace(disc, panels=64).partition().nodes.size == 65
    assert len(pickle.dumps(pb)) == 410


def _lattice_samples(monkeypatch) -> list:
    """A list that gets each expression Problem's check evaluates on its
    lattice, as it is evaluated."""
    samples = []
    evaluate = solver.exprlang.evaluate

    def counting(e, t=None, u=None):
        if np.size(t) == solver.LATTICE:
            samples.append(e)
        return evaluate(e, t=t, u=u)

    monkeypatch.setattr(solver.exprlang, "evaluate", counting)
    return samples


def test_problem_with_the_deepest_sum_compares_and_copies():
    pb = _problem(f="+".join(["u"] * exprlang.MAX_DEPTH))
    clone = copy.deepcopy(pb)
    assert clone == pb and hash(clone) == hash(pb) and repr(clone) == repr(pb)
    assert pickle.loads(pickle.dumps(pb)) == pb and clone != replace(pb, p=2.0)


def test_checked_coefficients_are_not_sampled_again(monkeypatch):
    monkeypatch.setattr(solver, "_VALIDATED", {})
    samples = _lattice_samples(monkeypatch)
    first = _problem(a="1 + t", f="(2 + u)/3")
    assert len(samples) == 2  # a, then f
    # new expressions with the same texts, and a copy with other panels
    again = _problem(a="1 + t", f="(2 + u)/3", panels=64)
    replace(first, discretization=Discretization(panels=32))
    assert len(samples) == 2
    assert list(solver._VALIDATED) == [(parse("1 + t", variables=("t",)).rows,
                                        parse("(2 + u)/3").rows)]
    # the kept rows are plain tuples: no expression outlives its problem
    refs = [weakref.ref(x) for x in (first, first.a, first.f, again.a)]
    del first, again, samples[:]
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_failed_coefficient_check_is_not_kept(monkeypatch):
    monkeypatch.setattr(solver, "_VALIDATED", {})
    samples = _lattice_samples(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            _problem(f="u - 50")
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "f(t, u) is negative: f(0.0, 0.0) = -50.0"
    assert len(samples) == 4  # a and f, twice
    assert not solver._VALIDATED


def test_checked_coefficients_are_bounded(monkeypatch):
    monkeypatch.setattr(solver, "_VALIDATED", {})
    for k in range(solver.VALIDATED_MAX + 3):
        _problem(f=f"u + {k}")
    kept = list(solver._VALIDATED)
    assert len(kept) == solver.VALIDATED_MAX
    assert kept[0] == (parse("1").rows, parse("u + 3").rows)
    assert kept[-1] == (parse("1").rows, parse(f"u + {solver.VALIDATED_MAX + 2}").rows)


def test_operator_samples_density_once():
    part = Partition.graded(256, 2.0)
    assembly = KernelAssembly(KernelParams(2.5, 0.5), part, 4)
    calls = []

    def g(s):
        calls.append(s.size)
        return np.ones_like(s)

    assembly.apply_to(g)
    assert len(calls) == 1 and calls[0] < 4000


def test_operator_requires_nonnegative_iterate():
    pb = _problem()
    part = pb.partition()
    bad = GridFunction(part, np.full(part.nodes.size, -0.5))
    with pytest.raises(SolverError):
        apply_operator(pb, bad)


def test_operator_propagates_expression_errors_with_sample():
    # valid on the load lattice (u <= 100) but not at the supplied iterate
    pb = _problem(f="sqrt(100-u)+10")
    part = pb.partition()
    u = GridFunction.constant(part, 200.0)
    with pytest.raises(ExprEvalError) as err:
        apply_operator(pb, u)
    assert "u=" in str(err.value)


def test_picard_zero_nonlinearity_two_iterations():
    pb = _problem(f="0")
    u0 = GridFunction.constant(pb.partition(), 3.0)
    report = picard_solve(pb, u0=u0)
    assert report.converged
    assert report.iterations <= 2
    assert report.solution.sup_norm() == 0.0
    assert report.residual <= 1e-10


def test_picard_rejects_bad_controls():
    pb = _problem(f="0")
    with pytest.raises(ValueError):
        picard_solve(pb, tol=0.0)
    with pytest.raises(ValueError):
        picard_solve(pb, tol=math.nan)
    with pytest.raises(ValueError):
        picard_solve(pb, tol=math.inf)
    with pytest.raises(ValueError):
        picard_solve(pb, max_iter=0)
    with pytest.raises(ValueError):
        picard_solve(pb, damping=0.0)
    with pytest.raises(SolverError):
        picard_solve(pb, u0=GridFunction.constant(pb.partition(), -1.0))


def test_picard_controls_are_the_solver_settings():
    assert problemfile.SolverSettings is plbvp.SolverSettings is SolverSettings
    params = inspect.signature(picard_solve).parameters
    assert SolverSettings() == SolverSettings(
        params["tol"].default, params["max_iter"].default, params["damping"].default)
    pb = _problem(f="0")
    for controls, message in (({"tol": 0.0}, "tol must be positive"),
                              ({"max_iter": 0}, "max_iter must be >= 1"),
                              ({"damping": 1.5}, "damping must lie in")):
        with pytest.raises(ValueError, match=message):
            picard_solve(pb, **controls)
        with pytest.raises(ValueError, match=message):
            SolverSettings(**controls)


# Manufactured instances (alpha, eta, p, c, r, k) with closed-form solutions
# (see the manufactured fixture).
MANUFACTURED = [
    (2.5, 0.5, 3.5, 1.0, 2.5, 1.0),    # shape of ex43
    (2.05, 0.3, 1.5, 1.0, 1.5, 1.0),   # alpha near 2, p < 2
    (2.2, 0.5, 4.0, 0.5, 2.5, 2.0),    # large p
    (2.02, 0.5, 2.5, 1.0, 1.7, 1.0),   # alpha -> 2+
]


@pytest.mark.parametrize("instance", MANUFACTURED)
def test_manufactured_solution_converges(manufactured, instance):
    text, exact = manufactured(*instance)
    errors = []
    for panels in (64, 128):
        report = picard_solve(problemfile.loads_problem(text(panels)).problem)
        assert report.converged
        # damped Picard took 11 to 26 iterations here, Anderson mixing 6 or 7
        assert report.iterations <= 8
        u = report.solution
        errors.append(float(np.max(np.abs(u.values - exact(u.partition.nodes)))))
    # largest error about 5e-4 at 128 panels, lowest observed order about 1.5
    assert errors[1] <= 1e-3
    assert math.log2(errors[0] / errors[1]) >= 1.4


def _hermite_reference(x, y, d, xi):
    """The PCHIP evaluation that FixedPoints replaces: a cell search per call."""
    h = np.diff(x)
    secant = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2.0 * secant) / h
    c2 = (secant - d[:-1]) / h - t
    c3 = t / h
    k = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, h.size - 1)
    s = xi - x[k]
    return y[k] + d[k] * s + c2[k] * (s * s) + c3[k] * (s * s * s)


def _operator_reference(pb, u):
    """A u by the path the operator plan replaces: a fresh rule, F =
    cumulative(density) as a grid function, and g sampled through F(s) with
    a cell search."""
    rule = KernelAssembly(pb.kernel_params, u.partition, pb.discretization.points_per_panel)
    F = cumulative(pb.density(u))

    def g(s):
        return phi(pb.q, _hermite_reference(F.partition.nodes, F.values, F._pchip[2], s))

    return rule, g, rule.apply_to(g)


def _plan_cases(manufactured):
    ex43 = CASES["ex43"].problem
    text, _ = manufactured(*MANUFACTURED[1])
    return [replace(ex43, discretization=replace(ex43.discretization, panels=64)),
            replace(ex43, discretization=replace(ex43.discretization, panels=257)),
            problemfile.loads_problem(text(128)).problem]


def test_operator_plan_is_bit_for_bit(manufactured):
    for pb in _plan_cases(manufactured):
        t = pb.partition().nodes
        for u in (GridFunction(pb.partition(), 0.4 * (1.0 - t ** 2) + 0.1 * np.sin(7.0 * t) ** 2),
                  picard_solve(pb).solution):
            rule, _, reference = _operator_reference(pb, u)
            got = apply_operator(pb, u).values
            assert np.array_equal(got, reference)
            assert np.array_equal(
                got, rule.apply_to(rule.integrand(pb.q, pb.density(u).values)))


def test_integral_form_residual_shares_the_operator_plan(manufactured):
    for pb in _plan_cases(manufactured):
        u = picard_solve(pb).solution
        rule, g, _ = _operator_reference(pb, u)
        ialpha = _at_nodes(rule._integrals(g))
        reference = float(np.max(np.abs(u.values - u.values[0] + ialpha)))
        assert integral_form_residual(pb, u) == reference


def test_picard_ex41_fixed_point_is_zero():
    # ex41 has f(t, 0) == 0, so from u0 == 0 the iteration stays at the
    # trivial fixed point; its residual is exactly zero
    report = picard_solve(CASES["ex41"].problem)
    assert report.converged
    assert report.solution.sup_norm() == 0.0
    assert report.residual == 0.0


def test_picard_ex42_decays_to_zero():
    pb = CASES["ex42"].problem
    u0 = GridFunction.constant(pb.partition(), 0.5)
    report = picard_solve(pb, u0=u0, tol=1e-10)
    assert report.converged
    assert report.solution.sup_norm() <= 1e-10
    assert report.residual <= 1e-10


def test_picard_ex43_nontrivial_solution():
    case = CASES["ex43"]
    report = picard_solve(case.problem, tol=1e-10)
    assert report.converged
    norm = report.solution.sup_norm()
    assert case.flags["rho1"] < norm < case.flags["rho2"]
    assert np.min(report.solution.values) > 0.0
    assert len(report.successive_diffs) == report.iterations


def test_report_residual_definition():
    pb = CASES["ex43"].problem
    report = picard_solve(pb, tol=1e-10)
    au = apply_operator(pb, report.solution)
    res = float(np.max(np.abs(au.values - report.solution.values)))
    assert res == pytest.approx(report.residual, rel=1e-6, abs=1e-14)
    assert report.converged and report.residual <= 1e-10


def test_iterates_stay_in_cone():
    case = CASES["ex43"]
    pb = case.problem
    gam = cone_gamma(pb.kernel_params, case.rho)
    part = pb.partition()
    head = part.nodes <= case.rho
    u = GridFunction.constant(part, 0.0)
    for _ in range(6):
        u = apply_operator(pb, u)
        sup = u.sup_norm()
        assert float(np.min(u.values[head])) >= gam * sup - 1e-10
        assert float(np.min(u.values)) >= -1e-15


def test_operator_output_nonincreasing_in_t():
    for case_id in ("ex42", "ex43"):
        pb = CASES[case_id].problem
        u = GridFunction.constant(pb.partition(), 0.4)
        au = apply_operator(pb, u)
        assert np.all(np.diff(au.values) <= 1e-10)


def test_operator_bounded_by_envelope_estimate():
    pb = CASES["ex43"].problem
    u = GridFunction.constant(pb.partition(), 0.7)
    au = apply_operator(pb, u)
    q = pb.q
    from plbvp import exprlang
    ts = np.linspace(0.0, 1.0, 401)
    f_vals = exprlang.evaluate(pb.f, t=ts, u=np.full_like(ts, 0.7))
    big_l = float(np.max(np.broadcast_to(np.asarray(f_vals), ts.shape)))
    a_int = integrate(lambda s: np.broadcast_to(
        np.asarray(exprlang.evaluate(pb.a, t=s), float), s.shape), 0.0, 1.0)
    phi_int = integrate(lambda s: phi_envelope(pb.kernel_params, s), 0.0, 1.0)
    bound = big_l ** (q - 1.0) * a_int ** (q - 1.0) * phi_int
    assert au.sup_norm() <= bound + 1e-12


def test_mixing_converges_on_cycling():
    # steeply decreasing f makes plain Picard 2-cycle; Anderson mixing with
    # the undamped beta = 1 converges, in no more iterations than damped
    # Picard's 26 (beta 1, halved to 0.5 once the gaps stopped contracting)
    pb = _problem(a="1", f="4*exp(-8*u)", p=2.0)
    report = picard_solve(pb, tol=1e-9, max_iter=120)
    assert report.converged
    assert report.iterations <= 26


def test_damping_is_the_mixing_parameter():
    pb = CASES["ex43"].problem
    full = picard_solve(pb)
    half = picard_solve(pb, damping=0.5)
    assert full.converged and half.converged
    assert half.successive_diffs != full.successive_diffs
    # the first step has no history: it is the damped Picard step from u = 0
    assert half.successive_diffs[0] == pytest.approx(0.5 * full.successive_diffs[0],
                                                     rel=1e-15)


def test_nonconvergence_returns_report():
    pb = _problem(a="1", f="4*exp(-8*u)", p=2.0)
    report = picard_solve(pb, tol=1e-9, max_iter=3)
    assert not report.converged
    assert report.iterations == 3
    assert len(report.successive_diffs) == 3


def test_overflowing_iterate_stops_the_solve():
    # phi_q with q = 21 overflows at the fourth iterate; the solve stops there,
    # with no numpy warning, and keeps the last iterate whose image is finite
    pb = _problem(a="3", f="1 + u", p=1.05)
    report = picard_solve(pb)
    assert not report.converged
    assert report.residual == math.inf
    assert report.iterations == len(report.successive_diffs) + 1 < 80
    assert np.all(np.isfinite(report.solution.values))


def test_iterate_that_overflows_f_stops_the_solve():
    # f = e^u overflows at the second iterate: the solve stops there, as for
    # an A x that overflows, and keeps the last iterate whose image is finite
    pb = _problem(a="3", f="exp(u)", p=1.05)
    report = picard_solve(pb)
    assert not report.converged
    assert report.residual == math.inf
    assert report.iterations == len(report.successive_diffs) + 1 < 80
    assert np.all(np.isfinite(report.solution.values))
    # a single application still raises, as every overflow of f does
    with pytest.raises(ExprOverflowError):
        apply_operator(pb, GridFunction.constant(pb.partition(), 1000.0))
    assert issubclass(ExprOverflowError, ExprEvalError)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_running_integral_that_overflows_stops_the_solve(p):
    # f = 1e308 is finite, but int_0^s a f overflows: the solve stops at once,
    # as where f overflows, and an application or a verification names the
    # running integral, with no numpy warning; so where a f itself overflows
    for a, f in (("1", "1e308"), ("1e300", "1e10")):
        pb = _problem(a=a, f=f, p=p)
        report = picard_solve(pb)
        assert not report.converged
        assert report.residual == math.inf and report.iterations == 0
        assert np.array_equal(report.solution.values, np.zeros(pb.partition().nodes.size))
        for check in (apply_operator, integral_form_residual,
                      lambda pb, u: verification_report(pb, u, 0.5)):
            with pytest.raises(QuadratureError, match="running integral .* overflows"):
                check(pb, report.solution)


def test_doubled_resolution_agreement():
    pb = CASES["ex43"].problem
    fine = replace(pb, discretization=replace(pb.discretization,
                                              panels=2 * pb.discretization.panels))
    s1 = picard_solve(pb, tol=1e-10)
    s2 = picard_solve(fine, tol=1e-10)
    diff = np.max(np.abs(s2.solution(pb.partition().nodes) - s1.solution.values))
    assert s1.converged and s2.converged
    assert diff <= 1e-5


def _operator_oracle(pb, partition):
    """v -> (A v - v, its sup norm) by the chain an application took before it
    shared F's secants and one error state: the density, its running
    integral F at the nodes as ``cumulative`` summed it, F's PCHIP at the
    sample points with a cell search, ``phi`` of it, and the rows summed as
    one list of block products; (None, inf) where f, F or phi_q(F)
    overflows."""
    rule = KernelAssembly(pb.kernel_params, partition, pb.discretization.points_per_panel)
    ts = partition.nodes
    widths = np.diff(ts)
    a_nodes = exprlang.evaluate(pb.a, t=ts)

    def integrals(g):
        shared = g[:rule._shared]
        tails = g[rule._shared:].reshape(rule._tail_w.shape)
        rows = np.concatenate([b @ shared[:b.shape[1]] for b in rule._blocks])
        rows = rows + np.sum(rule._tail_w * tails, axis=1)
        return (rows[-3] + rows[-2] - rows[-1]) - np.concatenate([[0.0], rows[:-2]])

    def residual_at(v):
        try:
            y = a_nodes * exprlang.evaluate(pb.f, t=ts, u=np.maximum(v, 0.0))
            d = GridFunction(partition, y)._pchip[2]
            panel = 0.5 * (y[1:] + y[:-1]) * widths
            panel += widths * widths * (d[:-1] - d[1:]) / 12.0
            F = GridFunction(partition, np.concatenate([[0.0], np.cumsum(panel)]))
            g = phi(pb.q, _hermite_reference(ts, F.values, F._pchip[2], rule._points))
        except ValueError:  # f overflows, or F, or the phi_q(F) it feeds
            return None, math.inf
        r = integrals(g) - v
        return r, float(np.max(np.abs(r)))
    return residual_at


def _anderson_oracle(pb, u0=None, tol=1e-10, max_iter=80, damping=1.0):
    """picard_solve as written with lists of history columns, stacked at each
    step, on the operator oracle: (values, iterations, gaps, residual,
    converged)."""
    u0 = GridFunction.constant(pb.partition(), 0.0) if u0 is None else u0
    residual_at = _operator_oracle(pb, u0.partition)
    x = u0.values
    dxs, dfs, diffs = [], [], []
    converged = False
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        f, residual = residual_at(x)
        while math.isfinite(residual) and iterations < max_iter:
            iterations += 1
            step = x + damping * f
            if dxs:
                dx, df = np.column_stack(dxs), np.column_stack(dfs)
                gamma = np.linalg.lstsq(df, f, rcond=None)[0]
                step -= (dx + damping * df) @ gamma
            new = np.maximum(step, 0.0)
            f_new, residual = residual_at(new)
            if not math.isfinite(residual):
                break
            gap = float(np.max(np.abs(new - x)))
            diffs.append(gap)
            dxs = (dxs + [new - x])[-solver.MEMORY:]
            dfs = (dfs + [f_new - f])[-solver.MEMORY:]
            x, f = new, f_new
            if gap <= tol and residual <= tol:
                converged = True
                break
    if not math.isfinite(residual):
        residual = math.inf
    return x.tobytes(), iterations, diffs, residual, converged


def _oracle_cases(oracle):
    """(name, problem, picard_solve keywords) of the oracle comparison."""
    for inst, panels in [(inst, n) for n in (64, 256) for inst in oracle.REFINE]:
        yield f"refine {inst} at {panels}", inst.problem(panels), {}
    for inst in oracle.scan_batch(np.random.default_rng(0)):
        yield f"scan {inst} at 64", inst.problem(64), {}
    pb = oracle.REFINE[1].problem(64)
    yield "damping 0.5", pb, {"damping": 0.5}
    for max_iter in (1, 2):  # the history not yet full
        yield f"max_iter {max_iter}", pb, {"max_iter": max_iter}
    t = pb.partition().nodes
    yield "given u0", pb, {"u0": GridFunction(pb.partition(), 0.3 * (1.0 - t * t))}
    # the extreme inputs of CI: residual inf, the last finite iterate kept
    for name, p, f in (("diverging", 1.05, "1 + u"), ("big_f", 1.5, "1e308"),
                       ("big_phi", 1.5, "1e200")):
        yield name, _problem(a="3" if name == "diverging" else "1", f=f, p=p), {}


def test_solve_matches_the_list_history_oracle_bit_for_bit(bench_oracle):
    infinite = []
    for name, pb, kwargs in _oracle_cases(bench_oracle):
        report = picard_solve(pb, **kwargs)
        got = (report.solution.values.tobytes(), report.iterations,
               report.successive_diffs, report.residual, report.converged)
        assert got == _anderson_oracle(pb, **kwargs), name
        if report.residual == math.inf:
            infinite.append(name)
    assert infinite == ["diverging", "big_f", "big_phi"]
