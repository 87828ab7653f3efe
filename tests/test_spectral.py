import contextlib
import dataclasses
import gc
import logging
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.integrate
import scipy.interpolate
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from henonball.closedform import ProblemParams, lambda1_closed
from henonball import spectral
from henonball.bifurcation import SolverCache
from henonball.errors import BracketError, DomainError, NumericsError
from henonball.radial import solve_dirichlet_ball
from henonball.rescaling import rescale
from henonball.spectral import (
    EigenResult,
    Pencil,
    RadialGrid,
    SLProblem,
    assemble_pencil,
    default_spectral_grid,
    eigfun_decay_check,
    limit_eigen,
    limit_problem,
    node_count,
    prufer_eigen,
    radial_kernel_test,
    scale_equivalence_test,
    solve_eigen,
)


def zero_potential(r):
    """The sample of q = 0 with no shifts."""
    return np.zeros_like(np.asarray(r, dtype=float)), ()


def constant_potential(value):
    """The sample of q = value with no shifts."""
    return lambda r: (np.full(np.shape(r), value), ())


@pytest.fixture(scope="module")
def profile_3_2_005():
    return solve_dirichlet_ball(ProblemParams(3, 2.0, 0.05))


@pytest.fixture(scope="module")
def ball_problem(profile_3_2_005):
    return SLProblem.from_profile(profile_3_2_005)


@pytest.fixture
def stebz_calls(monkeypatch):
    """(select_range, eigenvalues) of each `eigh_tridiagonal` call, in order."""
    calls, lapack = [], spectral.eigh_tridiagonal

    def spy(*args, **kwargs):
        out = lapack(*args, **kwargs)
        calls.append((kwargs["select_range"], out if kwargs["eigvals_only"] else out[0]))
        return out

    monkeypatch.setattr(spectral, "eigh_tridiagonal", spy)
    return calls


class TestAssembly:
    def test_matrices_symmetric_and_weight_positive(self, ball_problem):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 300))
        # tridiagonal symmetric by construction: one diagonal + one off band
        assert pen.a_diag.shape == (300,) and pen.a_off.shape == (299,)
        assert np.all(pen.b_diag > 0)

    def test_grid_validation(self, ball_problem):
        with pytest.raises(DomainError):
            assemble_pencil(ball_problem, np.array([0.0, 0.5, 0.9]))
        with pytest.raises(DomainError):
            assemble_pencil(ball_problem, np.array([0.1, 0.1, 0.9]))
        with pytest.raises(DomainError):
            assemble_pencil(ball_problem, np.array([0.1, 0.5, 1.0]))
        with pytest.raises(DomainError, match="n_points >= 3"):
            spectral.pencil_pair(ball_problem, 2)

    @pytest.mark.parametrize("r_end, n_points", [
        (1.0, 0), (1.0, 2.5), (1.0, -3), (math.inf, 10)])
    def test_default_grid_rejects_what_it_cannot_build(self, r_end, n_points):
        with pytest.raises(DomainError):
            default_spectral_grid(r_end, n_points)

    def test_pair_needs_an_integer_node_count(self, ball_problem):
        with pytest.raises(DomainError, match="integer n_points >= 3, got 1500.0"):
            spectral.pencil_pair(ball_problem, 1500.0)

    def test_grid_nodes_must_be_finite(self, ball_problem):
        grid = default_spectral_grid(1.0, 10)
        grid[3] = np.nan
        with pytest.raises(DomainError, match="finite"):
            assemble_pencil(ball_problem, grid)

    def test_domain_end_must_be_finite(self):
        for r_end in (math.nan, math.inf):
            problem = SLProblem(3, r_end, zero_potential)
            with pytest.raises(DomainError, match="finite"):
                assemble_pencil(problem, np.array([0.1, 0.2, 0.3]))
            with pytest.raises(DomainError, match="finite"):
                spectral.pencil_pair(problem, 5)

    def test_non_finite_potential_names_its_first_radius(self):
        # one NaN in q: the pair path (solve_eigen) and the one-grid path
        # (assemble_pencil, whose count would read the NaN pivot as positive)
        grid = default_spectral_grid(1.0, 100)
        bad_r = grid[40]

        def sample(r):
            out = np.zeros_like(r)
            out[r == bad_r] = np.nan
            return out, ()

        problem = SLProblem(3, 1.0, sample)
        message = f"not finite at 1 of 100 grid nodes, the first at r = {bad_r:.6g}"
        with pytest.raises(DomainError, match=message):
            assemble_pencil(problem, grid)
        with pytest.raises(DomainError, match="not finite at 1 of 100 grid nodes"):
            solve_eigen(problem, n_points=50)

    def test_grid_must_match_the_problem(self, ball_problem):
        with pytest.raises(DomainError, match="grid built for N=4"):
            assemble_pencil(ball_problem, RadialGrid.log_uniform(4, 1.0, 300))
        with pytest.raises(DomainError, match="r_end=2.0"):
            assemble_pencil(ball_problem, RadialGrid.log_uniform(3, 2.0, 300))

    @pytest.mark.parametrize("kind, n", [
        ("ball", 1500), ("ball-cache", 1500), ("limit", 3000), ("limit-2e3", 3000),
        ("expanding", 1500)])
    def test_pair_is_the_assembly_on_both_grids(self, profile_3_2_005, kind, n):
        # one q read on the fine grid; the coarse pencil takes every other
        # node, and a contiguous copy of every other entry of each guess;
        # "ball-cache" assembles on a SolverCache's grids, as flux_gap does
        problem = {
            "ball": lambda: SLProblem.from_profile(profile_3_2_005),
            "ball-cache": lambda: SLProblem.from_profile(profile_3_2_005),
            "limit": lambda: limit_problem(3, 2.0, 1e3),
            "limit-2e3": lambda: limit_problem(3, 2.0, 2e3),
            "expanding": lambda: SLProblem.from_rescaled(rescale(profile_3_2_005)),
        }[kind]()
        reads = []
        spied = replace(problem, sample=lambda r: reads.append(r.size) or problem.sample(r))
        if kind == "ball-cache":
            grids = SolverCache().grids(3)
            pair = spectral._pencils_on(grids, *spied.read(grids[1].r))
        else:
            pair = spectral.pencil_pair(spied, n)
        assert reads == [2 * n]
        for pencil, size in zip(pair, (n, 2 * n)):
            ref = assemble_pencil(problem, default_spectral_grid(problem.r_end, size))
            # a Pencil built from the fields derives pair's and count's operands
            derived = Pencil(ref.grid.copy(), ref.a_diag, ref.a_off.copy(), ref.b_diag.copy())
            for name in ("grid", "a_diag", "a_off", "b_diag", "abs_off", "inv_b"):
                assert np.array_equal(getattr(pencil, name), getattr(ref, name)), name
                assert np.array_equal(getattr(pencil, name), getattr(derived, name)), name
            assert pencil.pivmin == derived.pivmin
            assert [s for s, _ in pencil.shifts] == [s for s, _ in ref.shifts]
            for (_, guess), (_, ref_guess) in zip(pencil.shifts, ref.shifts, strict=True):
                assert guess.tobytes() == ref_guess.tobytes()
                assert guess.flags.c_contiguous

    def test_dense_solver_oracle_q0(self):
        # q = 0, N = 3 on (0, pi): bisection against an independent dense
        # eigensolver on the same 200-point pencil
        prob = SLProblem(3, math.pi, zero_potential)
        pen = assemble_pencil(prob, default_spectral_grid(math.pi, 200))
        mine = pen.eigenvalue_batch(3)
        a = np.diag(pen.a_diag) + np.diag(pen.a_off, 1) + np.diag(pen.a_off, -1)
        b = np.diag(pen.b_diag)
        dense = np.sort(np.linalg.eigvalsh(np.linalg.solve(b, a) @ np.eye(len(b))))
        # generalized problem via symmetric transform for the oracle
        binv = np.diag(1.0 / np.sqrt(pen.b_diag))
        dense = np.sort(np.linalg.eigvalsh(binv @ a @ binv))
        assert np.allclose(mine, dense[:3], rtol=1e-9, atol=1e-9)

    def test_own_bisection_matches_fast_path(self, ball_problem):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 400))
        fast = pen.eigenvalue_batch(2)
        slow = [pen.eigenvalue_bisect(1), pen.eigenvalue_bisect(2)]
        assert np.allclose(fast, slow, rtol=1e-10, atol=1e-10)


GEOMETRY = ("r", "flux_sum", "a_off", "rn1", "cell", "b_diag")


class TestRadialGrid:
    @pytest.mark.parametrize("r_end", [1.0, math.pi, 1e3, 2e3])
    @pytest.mark.parametrize("n", [750, 1500, 3000])
    def test_coarsen_is_the_coarse_grid_bit_for_bit(self, n, r_end):
        coarse = RadialGrid.log_uniform(4, r_end, 2 * n).coarsen()
        ref = RadialGrid.log_uniform(4, r_end, n)
        assert coarse.r.tobytes() == default_spectral_grid(r_end, n).tobytes()
        for name in GEOMETRY:
            assert getattr(coarse, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_geometry_is_read_only(self):
        nodes = default_spectral_grid(1.0, 50)
        grid = RadialGrid(3, 1.0, nodes)
        for name in GEOMETRY:
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, name)[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.r = nodes
        # the grid keeps its own copy; the caller's array stays writable
        nodes[0] = 2e-6
        assert grid.r[0] == 1e-6
        pencil = grid.pencil(np.ones(50))
        assert pencil.a_off is grid.a_off
        assert pencil.a_diag.flags.writeable

    def test_flux_depends_on_the_dimension(self):
        # same nodes, N = 3 and N = 4: the couplings are m^(N-1)/h at the
        # gap midpoints m
        nodes = default_spectral_grid(1.0, 40)
        n3, n4 = RadialGrid(3, 1.0, nodes), RadialGrid(4, 1.0, nodes)
        assert not np.array_equal(n3.a_off, n4.a_off)
        mids, gaps = 0.5 * (nodes[:-1] + nodes[1:]), np.diff(nodes)
        for n_dim, grid in ((3, n3), (4, n4)):
            assert np.allclose(-grid.a_off, mids ** (n_dim - 1) / gaps, rtol=1e-13, atol=0)
            assert np.allclose(grid.rn1, nodes ** (n_dim - 1), rtol=1e-13, atol=0)

    def test_non_positive_weight_is_a_numerics_error(self):
        # r^(N-3)·cell underflows to 0 at N = 400 on nodes near 1e-6
        with pytest.raises(NumericsError, match="positivity"):
            RadialGrid(400, 1.0, np.array([1e-6, 2e-6, 3e-6]))


class TestEigenvalues:
    def test_ordering_and_certificates(self, ball_problem):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 1500))
        vals, zs = pen.eigenvectors(3)
        assert vals[0] < vals[1] < vals[2]
        assert [node_count(z) for z in zs] == [0, 1, 2]

    def test_first_eigenfunction_positive(self, ball_problem):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 1500))
        _, zs = pen.eigenvectors(2)
        assert np.all(zs[0] >= -1e-12)
        assert np.max(zs[0]) == pytest.approx(1.0)
        assert node_count(zs[1]) == 1  # second eigenfunction: one sign change

    def test_weighted_orthogonality(self, ball_problem):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 1200))
        _, (z1, z2) = pen.eigenvectors(2)
        b = pen.b_diag
        ip = z1 @ (b * z2) / math.sqrt((z1 @ (b * z1)) * (z2 @ (b * z2)))
        assert abs(ip) < 1e-8

    def test_inertia_counts_bracket_each_value(self, ball_problem):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 800))
        vals = pen.eigenvalue_batch(3)
        for j, v in enumerate(vals, start=1):
            assert pen.count(v - 1e-8 * max(1, abs(v))) <= j - 1
            assert pen.count(v + 1e-8 * max(1, abs(v))) >= j

    def test_wrong_node_count_raises(self, ball_problem, monkeypatch):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 300))
        monkeypatch.setattr(spectral, "node_count", lambda z: 5)
        # pair 1 fails, and so does its stebz fallback; the message names the value
        with pytest.raises(NumericsError,
                           match=r"node-count certificate failed for eigenvalue 1 at -\d"):
            pen.eigenvectors(2)

    def test_error_estimate_is_the_fine_grid_increment(self, ball_problem):
        res = solve_eigen(ball_problem, 2, n_points=300, with_vectors=False)
        coarse, fine = (assemble_pencil(ball_problem, default_spectral_grid(1.0, n))
                        .eigenvalue_batch(2) for n in (300, 600))
        for r, c, f in zip(res, coarse, fine):
            assert r.error_estimate == abs(f - c) / 3.0
            assert r.extrapolated == (4.0 * f - c) / 3.0
        # it sizes the fine-grid value's error, not the extrapolant's
        ref = solve_eigen(ball_problem, 2, n_points=2400, with_vectors=False)
        for r, f, exact in zip(res, fine, ref):
            fine_error = abs(f - exact.extrapolated)
            assert 0.5 * fine_error < r.error_estimate < 2.0 * fine_error
            assert abs(r.extrapolated - exact.extrapolated) < 0.1 * r.error_estimate

    def test_values_only_path_has_no_vectors(self, ball_problem):
        res = solve_eigen(ball_problem, 2, n_points=300, with_vectors=False)
        assert res[0].node_count is None
        assert res[1].r.size == res[1].z.size == 0


def _ladder_pencil(kind, profile):
    """A 600-node unit-ball pencil (one shift), limit pencil (two) or
    expanding-ball pencil (none)."""
    grid = default_spectral_grid(1.0, 600)
    if kind == "ball":
        return assemble_pencil(SLProblem.from_profile(profile), grid)
    if kind == "limit":
        return assemble_pencil(limit_problem(3, 2.0), default_spectral_grid(1e3, 600))
    rescaled = rescale(profile)
    return assemble_pencil(SLProblem.from_rescaled(rescaled), rescaled.rho_eps * grid)


class TestLadder:
    @pytest.mark.parametrize("kind, n_shifts", [("ball", 1), ("limit", 2), ("expanding", 0)])
    def test_values_equal_the_vectors_path_bit_for_bit(self, profile_3_2_005, kind,
                                                       n_shifts, stebz_calls):
        pen = _ladder_pencil(kind, profile_3_2_005)
        assert len(pen.shifts) == n_shifts
        vals = pen.eigenvalue_batch(3)
        assert vals.tobytes() == pen.eigenvectors(3)[0].tobytes()
        # both ask stebz once, for the indices after the shifted pairs
        assert [select for select, _ in stebz_calls] == [(n_shifts, 2)] * 2

    def test_count_out_of_range(self, ball_problem):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 300))
        for call in (lambda: pen.eigenvalue_batch(0), lambda: pen.eigenvectors(301)):
            with pytest.raises(DomainError, match="count out of range 1..300"):
                call()

    def test_integral_float_count_and_index_accepted(self, ball_problem):
        # count = 2.0 and j = 1.0 raised a TypeError
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 300))
        assert pen.eigenvalue_batch(2.0).tobytes() == pen.eigenvalue_batch(2).tobytes()
        assert [a.tobytes() for a in pen.eigenvectors(2.0)] == [
            a.tobytes() for a in pen.eigenvectors(2)]
        assert [a.tobytes() for a in np.atleast_1d(*pen.pair(1.0))] == [
            a.tobytes() for a in np.atleast_1d(*pen.pair(1))]
        assert pen.eigenvalue_bisect(2.0) == pen.eigenvalue_bisect(2)
        values = [[r.extrapolated for r in solve_eigen(ball_problem, count, n_points=300)]
                  for count in (2.0, 2)]
        assert values[0] == values[1]

    @pytest.mark.parametrize("bad", [1.5, math.nan])
    def test_non_integral_count_or_index_is_named(self, ball_problem, bad):
        # eigenvalue_bisect(1.5) returned a value, the others a TypeError
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 300))
        calls = {"count": [pen.eigenvalue_batch, pen.eigenvectors,
                           lambda c: solve_eigen(ball_problem, c, n_points=300)],
                 "j": [pen.pair, pen.eigenvalue_bisect]}
        for name, fns in calls.items():
            for fn in fns:
                with pytest.raises(DomainError, match=f"need an integer {name}, got {bad!r}$"):
                    fn(bad)


# (N, α, ε) of the lowest-pair tests; the second to fourth lie near the
# admissible edge, and (3, 4.0, 0.002) has φ(1-h) near 1e-17 of the sup norm
LOWEST_PAIR_POINTS = [
    (3, 2.0, 0.05), (3, 0.3, 3.0), (4, 1.0, 1.5), (3, 2.4, 6.4), (3, 2.0, 0.005),
    (4, 4.0, 0.2), (5, 4.0, 0.1), (4, 2.0, 0.01), (3, 4.0, 0.002), (5, 2.0, 0.3),
]


class TestLowestPair:
    @pytest.mark.parametrize("n_dim, alpha, eps", LOWEST_PAIR_POINTS)
    def test_agrees_with_stebz_and_stein(self, n_dim, alpha, eps, caplog):
        prob = SLProblem.from_profile(solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps)))
        for n in (1500, 3000):
            pen = assemble_pencil(prob, default_spectral_grid(1.0, n))
            with caplog.at_level(logging.WARNING, logger="henonball"):
                lam, phi = pen.pair(1)
            assert caplog.records == []
            (ref_lam,), (ref_phi,) = replace(pen, shifts=()).eigenvectors(1)
            assert abs(lam - ref_lam) <= 1e-10
            assert np.max(np.abs(phi - ref_phi)) <= 1e-10
            # the entries φ'(1) is read from, relative to their own size
            assert np.max(np.abs(phi[-4:] / ref_phi[-4:] - 1.0)) <= 1e-9

    def test_rerun_gives_identical_bits(self, ball_problem):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 1500))
        (lam_a, phi_a), (lam_b, phi_b) = pen.pair(1), pen.pair(1)
        assert lam_a == lam_b and phi_a.tobytes() == phi_b.tobytes()

    def test_is_the_first_pair_of_every_path(self, ball_problem, stebz_calls):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 600))
        lam, phi = pen.pair(1)
        vals, zs = pen.eigenvectors(3)
        assert vals[0] == lam and zs[0].tobytes() == phi.tobytes()
        stebz_calls.clear()
        batch = pen.eigenvalue_batch(3)
        assert batch[0] == lam
        # stebz is asked for indices 2 and 3 alone, 0-based (1, 2)
        [(select, stebz_vals)] = stebz_calls
        assert select == (1, 2) and batch[1:].tolist() == stebz_vals.tolist()

    def test_bad_shift_falls_back_to_stebz(self, ball_problem, caplog):
        # the guess φ₂ at a shift just below Λ₂ draws the iteration to the
        # second pair, which fails the first pair's inertia certificate
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 1500))
        stebz = replace(pen, shifts=())
        (_, lam2), (_, phi2) = stebz.eigenvectors(2)
        with caplog.at_level(logging.WARNING, logger="henonball"):
            lam, phi = replace(pen, shifts=((lam2 - 1e-3, phi2),)).pair(1)
        [record] = caplog.records
        assert record.levelno == logging.WARNING and "falls back" in record.getMessage()
        (ref_lam,), (ref_phi,) = stebz.eigenvectors(1)
        assert lam == ref_lam and phi.tobytes() == ref_phi.tobytes()

    # the pencils on which a residual test at 4096 ulps stops one solve early
    @pytest.mark.parametrize("n_dim, alpha, eps, n", [
        (3, 0.5, 0.01, 3000), (3, 2.0, 0.05, 3000), (4, 2.0, 0.05, 1500),
        (4, 2.0, 0.05, 3000),
    ])
    def test_stops_one_solve_after_the_residual_test(self, n_dim, alpha, eps, n,
                                                     monkeypatch):
        # pair's rule: once |Ax - μBx| in the B^-1 norm is within 4 ulps of
        # |A||x| + |μ|B|x|, one more solve at μ, then stop
        prob = SLProblem.from_profile(solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps)))
        pen = assemble_pencil(prob, default_spectral_grid(1.0, n))
        iterates, gtsv = [], spectral.dgtsv

        def spy(*args):
            out = gtsv(*args)
            iterates.append(out[-2] / np.max(np.abs(out[-2])))
            return out

        monkeypatch.setattr(spectral, "dgtsv", spy)
        pen.pair(1)
        a, off, b = pen.a_diag, pen.a_off, pen.b_diag

        def product(diag, sub, x):
            out = diag * x
            out[:-1] += sub * x[1:]
            out[1:] += sub * x[:-1]
            return out

        def passes(x):
            ax, bx = product(a, off, x), b * x
            mu = np.dot(x, ax) / np.dot(x, bx)
            residual = ax - mu * bx
            terms = product(np.abs(a), np.abs(off), np.abs(x)) + abs(mu) * np.abs(bx)
            return (np.dot(residual**2, 1.0 / b)
                    <= (4.0 * np.finfo(float).eps) ** 2 * np.dot(terms**2, 1.0 / b))

        first = [passes(x) for x in iterates].index(True)
        assert len(iterates) == first + 2 < spectral._SHIFTED_SOLVES

    @pytest.mark.parametrize("n_dim, k", [(3, 2), (3, 3), (4, 2), (4, 3)])
    @pytest.mark.parametrize("eps", [0.005, 0.05])
    def test_at_most_three_solves_from_the_guess(self, n_dim, k, eps, monkeypatch, caplog):
        # the pencils of a bifurcate op at its corner (N, k): one solve at σ
        # from z = r^(-α/2) u', then Rayleigh-quotient steps; B·1 takes 4
        alpha = 2.0 * (k - 1)
        prob = SLProblem.from_profile(solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps)))
        solves, gtsv = [], spectral.dgtsv
        monkeypatch.setattr(spectral, "dgtsv", lambda *a: solves.append(1) or gtsv(*a))
        for pen in spectral.pencil_pair(prob, 1500):
            solves.clear()
            with caplog.at_level(logging.WARNING, logger="henonball"):
                lam, _ = pen.pair(1)
            assert caplog.records == []
            assert 1 <= len(solves) <= 3
            assert abs(lam - replace(pen, shifts=()).eigenvalue_batch(1)[0]) <= 1e-10

    def test_far_guess_still_gives_the_first_pair(self, caplog):
        # at (3, 2.4, 6.4) the guess's Rayleigh quotient lies far above Λ₂;
        # the solve at σ = Λ₁(α) still draws the iterate to the first pair
        prob = SLProblem.from_profile(solve_dirichlet_ball(ProblemParams(3, 2.4, 6.4)))
        for n in (1500, 3000):
            pen = assemble_pencil(prob, default_spectral_grid(1.0, n))
            z = pen.shifts[0][1]
            ref = replace(pen, shifts=()).eigenvalue_batch(2)
            assert z @ (pen.a_diag * z) + 2.0 * (z[:-1] @ (pen.a_off * z[1:])) > (
                ref[1] * (z @ (pen.b_diag * z)))
            with caplog.at_level(logging.WARNING, logger="henonball"):
                lam, phi = pen.pair(1)
            assert caplog.records == []
            assert abs(lam - ref[0]) <= 1e-10 and node_count(phi) == 0

    def test_guess_is_evaluated_once_on_the_fine_nodes(self, ball_problem):
        # assembling a pair samples q and each guess once, on the fine nodes,
        # a single pencil once on its nodes, and pair samples none
        reads = []
        problem = replace(ball_problem,
                          sample=lambda r: reads.append(r.size) or ball_problem.sample(r))
        pencils = [*spectral.pencil_pair(problem, 150),
                   assemble_pencil(problem, default_spectral_grid(1.0, 200))]
        assert reads == [300, 200]
        for pen in pencils:
            pen.pair(1)
        assert reads == [300, 200]

    def test_guesses_share_the_read_of_q(self, profile_3_2_005, monkeypatch):
        # a pair's q and both pencils' guesses z come from one profile read
        # on the fine grid, and a single pencil's from one on its grid
        reads, evaluate = [], type(profile_3_2_005).evaluate
        monkeypatch.setattr(type(profile_3_2_005), "evaluate",
                            lambda self, r: reads.append(r.size) or evaluate(self, r))
        solve_eigen(SLProblem.from_profile(profile_3_2_005), count=2, n_points=750)
        assert reads == [1500]
        reads.clear()
        pen = assemble_pencil(SLProblem.from_profile(profile_3_2_005),
                              default_spectral_grid(1.0, 300))
        pen.pair(1)
        assert reads == [300]

    def test_writable_radii_are_read_again(self, profile_3_2_005, monkeypatch):
        # each sample call reads the profile afresh: radii written in place
        # between two calls are read anew, also when they are made read-only
        # after the write
        reads, evaluate = [], type(profile_3_2_005).evaluate
        monkeypatch.setattr(type(profile_3_2_005), "evaluate",
                            lambda self, r: reads.append(r.size) or evaluate(self, r))
        sample = SLProblem.from_profile(profile_3_2_005).sample
        r = default_spectral_grid(1.0, 300)
        sample(r)
        r *= 0.5
        q_half = sample(r)[0]
        r *= 0.5
        r.flags.writeable = False
        q_quarter = sample(r)[0]
        assert reads == [300, 300, 300]
        fresh = SLProblem.from_profile(profile_3_2_005).sample
        assert q_half.tobytes() == fresh(2.0 * r)[0].tobytes()
        assert q_quarter.tobytes() == fresh(r)[0].tobytes()

    @pytest.mark.parametrize("guesses", [0, 2])
    def test_guess_count_must_match_the_shifts(self, ball_problem, guesses):
        # a bare zip would drop the one shift, or the second guess
        def sample(r):
            return ball_problem.sample(r)[0], (np.ones(r.size),) * guesses

        problem = replace(ball_problem, sample=sample)
        message = f"sample gave {guesses} guesses for 1 shifts"
        with pytest.raises(DomainError, match=message):
            assemble_pencil(problem, default_spectral_grid(1.0, 300))
        with pytest.raises(DomainError, match=message):
            spectral.pencil_pair(problem, 150)

    def test_singular_solve_falls_back(self, ball_problem, caplog, monkeypatch):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 300))
        gtsv = spectral.dgtsv
        monkeypatch.setattr(spectral, "dgtsv", lambda *a: (*gtsv(*a)[:-1], 1))
        with caplog.at_level(logging.WARNING, logger="henonball"):
            lam, _ = pen.pair(1)
        [record] = caplog.records
        assert "shifted solve failed" in record.getMessage()
        assert lam == replace(pen, shifts=()).eigenvectors(1)[0][0]


# (N, α) of the limit spectra that verify's C1 and C2 solve
LIMIT_POINTS = [(3, 2.0), (3, 0.0), (4, 2.0), (3, 1.0)]


class TestPair:
    @pytest.mark.parametrize("n_dim, alpha", LIMIT_POINTS)
    def test_limit_pairs_agree_with_stebz(self, n_dim, alpha, caplog):
        # the grids and truncations of limit_eigen
        for r_trunc in (1e3, 2e3):
            for n in (3000, 6000):
                pen = assemble_pencil(limit_problem(n_dim, alpha, r_trunc),
                                      default_spectral_grid(r_trunc, n))
                with caplog.at_level(logging.WARNING, logger="henonball"):
                    lams = [pen.pair(j)[0] for j in (1, 2)]
                assert caplog.records == []
                ref = replace(pen, shifts=()).eigenvalue_batch(2)
                assert np.max(np.abs(np.array(lams) - ref)) <= 1e-10

    def test_second_limit_vector_agrees_with_stein(self):
        pen = assemble_pencil(limit_problem(3, 2.0), default_spectral_grid(1e3, 1500))
        lam, z = pen.pair(2)
        (_, ref_lam), (_, ref_z) = replace(pen, shifts=()).eigenvectors(2)
        assert node_count(z) == 1 and abs(lam) < 1e-2
        assert abs(lam - ref_lam) <= 1e-10 and np.max(np.abs(z - ref_z)) <= 1e-8

    def test_failed_certificate_falls_back_bit_for_bit(self, caplog, stebz_calls):
        # on this pencil (entries from 1e-27 to 1e15) the iteration from
        # Λ₂ = 0 settles about 1e-8 above the second eigenvalue, past the
        # certificate's 1e-10 gap
        pen = assemble_pencil(limit_problem(6, 0.0, 1e3), default_spectral_grid(1e3, 6000))
        with caplog.at_level(logging.WARNING, logger="henonball"):
            lam, _ = pen.pair(2)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "eigenpair 2" in record.getMessage() and "falls back" in record.getMessage()
        assert "inertia certificate failed for eigenvalue 2" in record.getMessage()
        # the fallback is stebz asked for index 2 alone
        [(select, stebz_vals)] = stebz_calls
        assert select == (1, 1) and lam == stebz_vals[0]

    def test_batch_and_vectors_take_every_shifted_pair(self, monkeypatch, stebz_calls):
        pen = assemble_pencil(limit_problem(3, 2.0), default_spectral_grid(1e3, 600))
        (lam1, phi1), (lam2, phi2) = pen.pair(1), pen.pair(2)
        vals, zs = pen.eigenvectors(3)
        assert vals[:2].tolist() == [lam1, lam2]
        assert zs[0].tobytes() == phi1.tobytes() and zs[1].tobytes() == phi2.tobytes()
        stebz_calls.clear()
        batch = pen.eigenvalue_batch(3)
        assert batch[:2].tolist() == [lam1, lam2]
        # stebz is asked for index 3 alone after the shifted pairs
        [(select, stebz_vals)] = stebz_calls
        assert select == (2, 2) and batch[2] == stebz_vals[0]

        def forbidden(*args, **kwargs):
            raise AssertionError("bisection ran")

        monkeypatch.setattr(spectral, "eigh_tridiagonal", forbidden)
        assert pen.eigenvalue_batch(2).tolist() == [lam1, lam2]

    def test_shifts_come_from_the_problem(self, ball_problem, profile_3_2_005):
        grid = default_spectral_grid(1.0, 300)
        [(shift, _)] = assemble_pencil(ball_problem, grid).shifts
        assert shift == lambda1_closed(3, 2.0) == -6.0
        limit = assemble_pencil(limit_problem(3, 2.0), grid)
        assert [shift for shift, _ in limit.shifts] == [-6.0, 0.0]
        rescaled = SLProblem.from_rescaled(rescale(profile_3_2_005))
        assert assemble_pencil(rescaled, grid).shifts == ()
        for pen, j in ((limit, 3), (limit, 0), (assemble_pencil(rescaled, grid), 1)):
            with pytest.raises(DomainError, match="shift"):
                pen.pair(j)


def ldlt_count(pen, shifts):
    """Reference inertia count with stebz's conventions for a nonpositive
    pivot: the LDLᵀ pivot recurrence q_i = (a_i - x b_i) - e·(e/q_{i-1}) of
    A - xB written out row by row, vectorized over shifts, where a pivot
    q ≤ 0 is counted and moved to min(q, -pivmin), pivmin = tiny·max(1,
    max e²).  A positive pivot is kept as it is, however small."""
    x = np.atleast_1d(np.asarray(shifts, dtype=float))
    dxb = pen.a_diag[:, None] - x[None, :] * pen.b_diag[:, None]
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(pen.a_off**2, initial=0.0)))
    cnt = np.zeros(x.size, dtype=np.int64)
    q = dxb[0]
    for i in range(pen.n):
        if i:
            e = pen.a_off[i - 1]
            with np.errstate(over="ignore"):  # a pivot near pivmin
                q = dxb[i] - e * (e / q)
        counted = q <= 0
        cnt += counted
        q = np.where(counted, np.minimum(q, -pivmin), q)
    return cnt


def dense_count(pen, shifts):
    """Eigenvalues at or below each shift, from eigvalsh of B^-1/2 A B^-1/2,
    and the distance of each shift from the nearest eigenvalue."""
    t = np.diag(pen.a_diag) + np.diag(pen.a_off, 1) + np.diag(pen.a_off, -1)
    scale = 1.0 / np.sqrt(pen.b_diag)
    eig = np.linalg.eigvalsh(scale[:, None] * t * scale[None, :])
    x = np.asarray(shifts, dtype=float)[:, None]
    return np.sum(eig <= x, axis=1), np.min(np.abs(x - eig), axis=1), eig


@st.composite
def small_pencils(draw):
    """Random symmetric tridiagonal A with a positive diagonal B."""
    n = draw(st.integers(1, 8))
    # small integers give exactly zero pivots
    entries = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0))
    a_diag = draw(st.lists(entries, min_size=n, max_size=n))
    a_off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    b_diag = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    return Pencil(np.arange(1.0, n + 1), *map(np.array, (a_diag, a_off, b_diag)))


class TestInertiaCount:
    @pytest.fixture(scope="class")
    def pencils(self, ball_problem):
        pens = [
            assemble_pencil(ball_problem, default_spectral_grid(1.0, n))
            for n in (1500, 3000)
        ]
        for r_trunc in (1e3, 2e3):
            prob = limit_problem(3, 2.0, r_trunc)
            pens.append(assemble_pencil(prob, default_spectral_grid(r_trunc, 3000)))
        return pens

    def test_matches_ldlt_reference(self, pencils):
        rng = np.random.default_rng(17089112)
        mismatches = 0
        for pen in pencils:
            lam = pen.eigenvalue_batch(10)[[0, 1, 2, 3, 9]]
            gap = 1e-10 * np.maximum(1.0, np.abs(lam[:4]))
            lo, hi = pen.gershgorin()
            shifts = np.concatenate([
                lam[:4] - gap,
                lam[:4] + gap,
                rng.uniform(lam[0] - 1.0 - abs(lam[0]), lam[4], 60),
                rng.uniform(lo, hi, 20),
            ])
            counts = pen.count(shifts)
            assert counts.dtype == np.int64 and counts.shape == shifts.shape
            assert list(counts[:8]) == [0, 1, 2, 3, 1, 2, 3, 4]
            mismatches += int(np.sum(counts != ldlt_count(pen, shifts)))
        assert mismatches == 0

    @settings(max_examples=200, deadline=None)
    @given(pen=small_pencils(),
           shifts=st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=20))
    def test_count_monotone_in_shift(self, pen, shifts):
        shifts = np.sort(shifts)
        counts = pen.count(shifts)
        assert np.all(np.diff(counts) >= 0)
        expected, distance, eig = dense_count(pen, shifts)
        # a shift within rounding of an eigenvalue may be counted either way
        clear = distance > 1e-9 * max(1.0, np.max(np.abs(eig)))
        assert np.array_equal(counts[clear], expected[clear])

    @settings(max_examples=300, deadline=None)
    @given(pen=small_pencils(),
           shifts=st.lists(st.one_of(st.integers(-6, 6).map(float), st.floats(-150.0, 150.0)),
                           min_size=1, max_size=20))
    def test_count_is_the_reference_pivot_count(self, pen, shifts):
        # the same count at every shift, ties and exactly zero pivots included
        assert pen.count(shifts).tolist() == ldlt_count(pen, shifts).tolist()

    @pytest.mark.parametrize("a_diag, a_off, shift, want", [
        # pivots 1, 0, -1 + huge: the zero pivot in the middle counts, and its
        # Schur update lifts the last row, whose own entry is negative
        ([1.0, 1.0, -1.0], [1.0, 1.0], 0.0, 1),
        # pivots 1, -1, 0: the last row's zero pivot counts; the spectrum is
        # 0, ±√3
        ([1.0, 0.0, -1.0], [1.0, 1.0], 0.0, 2),
        # a zero coupling: blocks [[1, 1], [1, 1]] and [1], spectrum 0, 2, 1
        ([1.0, 1.0, 1.0], [1.0, 0.0], 0.0, 1),
        # pivots 2, 0 in a two-row pencil: spectrum 0 and 2.5
        ([2.0, 0.5], [1.0], 0.0, 1),
        # the first pencil, shifted by 1
        ([2.0, 2.0, 0.0], [1.0, 1.0], 1.0, 1),
    ])
    def test_integer_pencils_with_zero_pivots(self, a_diag, a_off, shift, want):
        pen = Pencil(np.arange(len(a_diag), dtype=float), np.array(a_diag), np.array(a_off),
                     np.ones(len(a_diag)))
        assert pen.count(shift) == want
        assert ldlt_count(pen, shift).tolist() == [want]
        expected, distance, _ = dense_count(pen, [shift])
        assert expected[0] == want or distance[0] < 1e-12

    @pytest.mark.parametrize("a_diag, a_off, b_diag", [
        ([0.5], [], [2.0]),
        ([2.0, 3.0], [1.0], [1.0, 2.0]),
        ([-3.0, 2.0], [0.0], [1.0, 4.0]),
        ([3.0, -1.0, 2.0, 0.5], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0, 4.0]),
    ])
    def test_small_pencils_match_eigvalsh(self, a_diag, a_off, b_diag):
        pen = Pencil(np.arange(len(a_diag), dtype=float), *map(np.array, (a_diag, a_off, b_diag)))
        _, _, eig = dense_count(pen, [0.0])
        # below, between and above the eigenvalues, clear of each
        edges = np.concatenate([[eig[0] - 1.0], eig, [eig[-1] + 1.0]])
        shifts = 0.5 * (edges[:-1] + edges[1:])
        expected, _, _ = dense_count(pen, shifts)
        assert pen.count(shifts).tolist() == expected.tolist() == list(range(pen.n + 1))

    def test_counts_near_n_match_eigvalsh(self):
        pen = assemble_pencil(SLProblem(3, math.pi, zero_potential),
                              default_spectral_grid(math.pi, 200))
        _, _, eig = dense_count(pen, [0.0])
        shifts = np.concatenate([0.5 * (eig[-4:-1] + eig[-3:]), [2.0 * eig[-1]]])
        expected, _, _ = dense_count(pen, shifts)
        assert expected.tolist() == [197, 198, 199, 200]
        assert pen.count(shifts).tolist() == [197, 198, 199, 200]

    def test_non_finite_shifts(self):
        pen = assemble_pencil(SLProblem(3, math.pi, zero_potential),
                              default_spectral_grid(math.pi, 200))
        # every eigenvalue lies at or below +inf and none at or below -inf
        assert pen.count(math.inf) == 200 and pen.count(-math.inf) == 0
        assert pen.count([-math.inf, 0.0, math.inf]).tolist() == [0, 0, 200]
        with pytest.raises(DomainError, match="nan"):
            pen.count(math.nan)
        with pytest.raises(DomainError, match="nan"):
            pen.count([0.0, math.nan])

    def test_bisection_counts_stay_near_j(self, ball_problem):
        # the upper end grows from Gershgorin's lower end; started at
        # Gershgorin's upper end, the first count read 194 of these 400
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 400))
        seen, count = [], pen.count
        pen.count = lambda x: seen.append(count(x)) or seen[-1]
        lam = pen.eigenvalue_batch(3)
        for j in (1, 2, 3):
            seen.clear()
            assert pen.eigenvalue_bisect(j) == pytest.approx(lam[j - 1], rel=1e-10, abs=1e-10)
            assert max(seen) <= 60

    def test_one_row_pencil(self):
        # no off-diagonal at all: the single eigenvalue is 0.5 / 2.0
        pen = Pencil(np.array([1.0]), np.array([0.5]), np.array([]), np.array([2.0]))
        assert list(pen.count([0.0, 0.25, 1.0])) == [0, 1, 1]
        assert pen.eigenvalue_batch(1)[0] == pytest.approx(0.25, rel=1e-12)
        assert pen.eigenvalue_bisect(1) == pytest.approx(0.25, rel=1e-12)

    def test_scalar_shift_gives_int(self, pencils):
        c = pencils[0].count(0.0)
        assert type(c) is int and c == int(ldlt_count(pencils[0], 0.0)[0])

    def test_failed_certificate_raises(self, ball_problem, monkeypatch):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 300))
        # a count that never sees an eigenvalue fails the fast path's
        # certificate and the bisection fallback's alike
        monkeypatch.setattr(pen, "count", lambda shifts: np.zeros(np.shape(shifts), int))
        with pytest.raises(NumericsError, match="inertia certificate failed"):
            pen.eigenvalue_batch(2)

    def test_wrong_fast_path_falls_back_to_bisection(self, ball_problem, monkeypatch):
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 300))
        exact = [pen.eigenvalue_bisect(1), pen.eigenvalue_bisect(2)]
        lapack = spectral.eigh_tridiagonal
        monkeypatch.setattr(
            spectral, "eigh_tridiagonal", lambda *a, **k: lapack(*a, **k) + 0.1
        )
        assert np.allclose(pen.eigenvalue_batch(2), exact, rtol=1e-10, atol=1e-10)


class TestLimitProblem:
    @pytest.mark.parametrize(
        "n_dim, alpha, target",
        [(3, 2.0, -6.0), (3, 0.0, -2.0), (4, 2.0, -8.0)],
    )
    def test_first_eigenvalue_closed_form(self, n_dim, alpha, target):
        assert lambda1_closed(n_dim, alpha) == target
        res = limit_eigen(n_dim, alpha)
        assert abs(res.lambda1 - target) < 1e-4
        assert res.lambda1_trunc_shift < 1e-6

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_second_eigenvalue_zero(self, alpha):
        res = limit_eigen(3, alpha)
        assert abs(res.lambda2) < 1e-2
        assert res.lambda2_trunc_shift < 5e-3

    @pytest.mark.parametrize("n_dim", [4, 5, 6])
    def test_no_fallback_at_alpha_4(self, n_dim, caplog):
        # started from B·1, these pairs fell back to stebz 1, 4 and 4 times
        with caplog.at_level(logging.WARNING, logger="henonball"):
            res = limit_eigen(n_dim, 4.0)
        assert caplog.records == []
        assert abs(res.lambda1 - lambda1_closed(n_dim, 4.0)) < 1e-4
        assert abs(res.lambda2) < 1e-2

    @pytest.mark.parametrize("n_dim, alpha", [(3, 2.0), (5, 1.0)])
    def test_guesses_are_the_entire_space_eigenfunctions(self, n_dim, alpha):
        # each guess is close to the truncated pencil's eigenvector: the
        # B-cosine against stein's vector on 3000 nodes
        pen = assemble_pencil(limit_problem(n_dim, alpha), default_spectral_grid(1e3, 3000))
        _, zs = replace(pen, shifts=()).eigenvectors(2)
        b = pen.b_diag
        guesses = [guess for _, guess in pen.shifts]
        for g, z in zip(guesses, zs, strict=True):
            assert abs(g @ (b * z)) / math.sqrt((g @ (b * g)) * (z @ (b * z))) > 0.9999
        assert node_count(guesses[1]) == 1

    def test_grid_refinement_second_order(self):
        prob = limit_problem(3, 2.0, 1e3)
        errs = []
        for n in (750, 1500, 3000):
            pen = assemble_pencil(prob, default_spectral_grid(1e3, n))
            errs.append(abs(pen.eigenvalue_batch(1)[0] + 6.0))
        rate1 = math.log(errs[0] / errs[1]) / math.log(2.0)
        rate2 = math.log(errs[1] / errs[2]) / math.log(2.0)
        assert rate1 > 1.9 and rate2 > 1.9


class TestPrufer:
    def test_agreement_with_pencil(self, ball_problem):
        lam1 = solve_eigen(ball_problem, 1, with_vectors=False)[0].extrapolated
        pv = prufer_eigen(ball_problem, 1, (lam1 - 0.05, lam1 + 0.05))
        assert abs(pv - lam1) < 1e-6

    def test_limit_problem_first_eigenvalue(self):
        pv = prufer_eigen(limit_problem(3, 2.0, 1e3), 1, (-6.5, -5.5))
        assert abs(pv + 6.0) < 1e-4

    def test_closed_form_bessel_eigenvalue(self):
        # q ≡ k² with tan k = k on the unit ball, N=3: z = j₁(kr) solves the
        # problem with Λ₁ = -2 and no interior node.  V = k²r² peaks at
        # r_end, so the matching point is clamped one node inside it.
        k = brentq(lambda x: math.sin(x) - x * math.cos(x), 4.0, 4.6)
        prob = SLProblem(3, 1.0, constant_potential(k * k))
        assert abs(prufer_eigen(prob, 1, (-2.05, -1.95)) + 2.0) < 1e-9

    def test_integrations_stop_at_the_matching_point(self, ball_problem, monkeypatch):
        lam1 = solve_eigen(ball_problem, 1, with_vectors=False)[0].extrapolated
        spans = []

        class Recorded(scipy.integrate.ode):
            def integrate(self, t, *args, **kwargs):
                spans.append((self.t, t, self))
                return super().integrate(t, *args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "ode", Recorded)
        prufer_eigen(ball_problem, 1, (lam1 - 0.05, lam1 + 0.05))
        # the node of prufer_eigen's table where V = r² q peaks
        t0, t1 = math.log(1e-7), 0.0
        nodes = np.linspace(t0, t1, math.ceil((t1 - t0) / spectral.PRUFER_DT) + 1)
        r = np.exp(nodes)
        t_m = nodes[np.argmax(r * r * ball_problem.sample(r)[0])]
        assert t0 < t_m < t1
        assert 2 <= len(spans) <= 20
        assert all(end == t_m for _, end, _ in spans)
        starts = [start for start, _, _ in spans]
        assert starts.count(t0) == starts.count(t1) == len(spans) // 2
        # one solver restarted per shot: scipy's wrapper keeps every solver
        # it has run alive
        assert len({id(solver) for _, _, solver in spans}) == 1

    @pytest.mark.parametrize("j", [1.5, 0, -1, math.nan])
    def test_non_integral_or_low_index_rejected(self, j):
        # j = 1.5 gave -6.1e-5, no eigenvalue (Λ₂ = +6.5e-5); j = 0 a
        # BracketError
        with pytest.raises(DomainError, match="integer eigenvalue index"):
            prufer_eigen(limit_problem(3, 2.0), j, (-6.5, 0.5))

    def test_integral_float_index_accepted(self):
        prob = limit_problem(3, 2.0, 1e3)
        assert prufer_eigen(prob, 1.0, (-6.5, -5.5)) == prufer_eigen(prob, 1, (-6.5, -5.5))

    def test_prufer_runs_no_solve_ivp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
        assert abs(prufer_eigen(limit_problem(3, 2.0, 1e3), 1, (-6.5, -5.5)) + 6.0) < 1e-4

    def test_abandoned_integration_is_a_numerics_error(self):
        # θ' ~ 1e200: the Fortran code stops at once, step size too small
        prob = SLProblem(3, 1.0, constant_potential(1e200))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericsError, match="Prüfer integration failed.*-3"):
                prufer_eigen(prob, 1, (-1.0, 1.0))
        assert caught == []

    def test_non_finite_potential_is_named(self):
        def sample(r):
            out = np.ones_like(np.asarray(r, dtype=float))
            out[100] = np.nan
            return out, ()

        with pytest.raises(DomainError, match="potential table .* not finite at 1 of"):
            prufer_eigen(SLProblem(3, 1.0, sample), 1, (-2.05, -1.95))

    def test_oscillation_count_monotone(self):
        # the matching mismatch θ_L(t_m) - θ_R(t_m) increases with the
        # spectral shift
        prob = limit_problem(3, 1.0, 100.0)
        misses = []
        for lam in (-4.0, -3.0, -2.0):
            try:
                prufer_eigen(prob, 1, (lam, lam + 1e-9))
            except BracketError as err:
                misses.append(str(err))
        # extract the reported mismatch at the lower end of each degenerate
        # bracket
        los = [float(m.split("(")[-1].split(",")[0]) for m in misses]
        assert los[0] < los[1] < los[2]

    def test_bad_bracket_raises(self, ball_problem):
        with pytest.raises(BracketError):
            prufer_eigen(ball_problem, 1, (-20.0, -15.0))

    def test_expanding_ball_past_rho(self):
        # the table's last node exp(log ρ) rounds above ρ, where q reads the
        # zero extension of w
        rescaled = rescale(solve_dirichlet_ball(ProblemParams(3, 2.0, 0.01)))
        t0, t1 = math.log(1e-7), math.log(rescaled.rho_eps)
        nodes = np.linspace(t0, t1, math.ceil((t1 - t0) / spectral.PRUFER_DT) + 1)
        assert np.exp(nodes)[-1] > rescaled.rho_eps
        prob = SLProblem.from_rescaled(rescaled)
        lam1 = solve_eigen(prob, 1, with_vectors=False)[0].extrapolated
        assert abs(prufer_eigen(prob, 1, (lam1 - 0.05, lam1 + 0.05)) - lam1) < 1e-8

    @pytest.mark.parametrize("kind, n_dim, alpha, j", [
        ("ball", 3, 2.0, 1), ("ball", 4, 1.0, 1), ("rescaled", 3, 2.0, 1),
        ("limit", 3, 2.0, 1), ("ball", 3, 2.0, 2),
    ], ids=["ball-3-2.0", "ball-4-1.0", "rescaled-3-2.0", "limit-3-2.0", "ball-3-2.0-j2"])
    def test_tabulated_potential_matches_scalar_reference(self, kind, n_dim, alpha, j):
        if kind == "limit":
            prob, lam = limit_problem(n_dim, alpha, 1e3), lambda1_closed(n_dim, alpha)
        else:
            prof = solve_dirichlet_ball(ProblemParams(n_dim, alpha, 0.05))
            prob = (SLProblem.from_profile(prof) if kind == "ball"
                    else SLProblem.from_rescaled(rescale(prof)))
            lam = solve_eigen(prob, j, with_vectors=False)[j - 1].extrapolated
        # Λ₂ moves by ~1e-4 with the inner cut (Prüfer starts at r = 1e-7, the
        # pencil's grid at 1e-6), so its bracket around the pencil is wider
        width = 1e-7 if j == 1 else 1e-3
        tabulated = prufer_eigen(prob, j, (lam - width, lam + width))
        # the end angle increases with Λ, so a sign change of the reference
        # miss across tabulated ± 1e-9 puts the reference eigenvalue there
        assert reference_miss(prob, j, tabulated - 1e-9) < 0.0
        assert reference_miss(prob, j, tabulated + 1e-9) > 0.0

    def test_potential_tabulated_once_per_call(self):
        prob = limit_problem(3, 2.0, 1e3)
        calls = []

        def sample(r):
            calls.append(r)
            return prob.sample(r)

        prufer_eigen(replace(prob, sample=sample), 1, (-6.0 - 1e-7, -6.0 + 1e-7))
        assert len(calls) == 1
        assert isinstance(calls[0], np.ndarray) and calls[0].size > 1

    @pytest.mark.parametrize("bracket", [(-6.0 - 1e-7, -6.0 + 1e-7), (-20.0, -15.0)])
    def test_spline_table_freed_on_return(self, monkeypatch, bracket):
        # scipy's ode wrapper keeps every rhs it has run alive; the
        # potential's spline table must still go on return, both after a
        # root and after a BracketError, without the cycle collector
        tables = []

        class Recorded(scipy.interpolate.CubicSpline):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tables.append(weakref.ref(self.c))

        monkeypatch.setattr(scipy.interpolate, "CubicSpline", Recorded)
        gc.disable()
        try:
            with contextlib.suppress(BracketError):
                prufer_eigen(limit_problem(3, 2.0, 1e3), 1, bracket)
            assert len(tables) == 1 and tables[0]() is None
        finally:
            gc.enable()


def reference_miss(problem, j, lam, r_min=1e-7, rtol=1e-11):
    """Reference end-angle miss θ(t1) - jπ of prufer_eigen's shooting, with
    the right-hand side evaluating q at one scalar e^t per step."""
    shift = ((problem.n_dim - 2.0) / 2.0) ** 2

    def rhs(t, theta):
        q = problem.sample(np.array([math.exp(t)]))[0]
        v = lam - shift + math.exp(2.0 * t) * float(q[0])
        s, c = math.sin(theta[0]), math.cos(theta[0])
        return [c * c + v * s * s]

    t_span = (math.log(r_min), math.log(problem.r_end))
    sol = solve_ivp(rhs, t_span, [0.0], method="DOP853", rtol=rtol, atol=1e-12)
    assert sol.status == 0, sol.message
    return sol.y[0, -1] - j * math.pi


def kernel_ode(profile, tol=1e-11):
    """Reference v(1): integrate v'' + (N-1)/r v' + p r^α u^(p-1) v = 0 from
    v(0)=1, v'(0)=0 (two-term series start at r = 1e-8)."""
    pr = profile.params
    expn = pr.p_alpha - 1.0 - pr.eps
    c0 = pr.p * profile.u0**expn
    r0 = 1e-8
    y0 = (
        1.0 - c0 * r0 ** (2.0 + pr.alpha) / ((2.0 + pr.alpha) * (pr.n_dim + pr.alpha)),
        -c0 * r0 ** (1.0 + pr.alpha) / (pr.n_dim + pr.alpha),
    )

    def rhs(r, y):
        u = max(float(profile.evaluate(np.array([r]))[0][0]), 0.0)
        pot = pr.p * r**pr.alpha * u**expn
        return (y[1], -(pr.n_dim - 1.0) / r * y[1] - pot * y[0])

    sol = solve_ivp(rhs, (r0, 1.0), y0, method="DOP853", rtol=tol, atol=1e-13)
    assert sol.status == 0, sol.message
    return float(sol.y[0, -1])


class TestRadialKernel:
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5, 3.5, 4.5])
    def test_nondegenerate_across_alphas(self, alpha):
        prof = solve_dirichlet_ball(ProblemParams(3, alpha, 0.05))
        assert abs(radial_kernel_test(prof)) > 1e-3

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5, 3.5, 4.5])
    def test_scaling_generator_matches_linearized_ode(self, alpha):
        prof = solve_dirichlet_ball(ProblemParams(3, alpha, 0.05))
        assert radial_kernel_test(prof) == pytest.approx(kernel_ode(prof), rel=1e-7)

    def test_pencil_has_no_kernel_and_one_negative(self, ball_problem):
        # morse_index's fine pencil, channel k = 0: nothing within 1e-4 of 0
        # and a single radial negative direction
        pen = assemble_pencil(ball_problem, default_spectral_grid(1.0, 3000))
        assert pen.count([-1e-4, 1e-4]).tolist() == [1, 1]


class TestScaleEquivalence:
    def test_matched_grids_exact(self, profile_3_2_005):
        assert scale_equivalence_test(profile_3_2_005) < 1e-8

    @settings(max_examples=20, deadline=None)
    @given(n_dim=st.integers(3, 6), alpha=st.floats(0.0, 4.5),
           log_eps=st.floats(math.log(0.005), math.log(0.2)))
    def test_isospectral_property(self, n_dim, alpha, log_eps):
        # C8.c's gate, over N, α and log-uniform ε
        prof = solve_dirichlet_ball(ProblemParams(n_dim, alpha, math.exp(log_eps)))
        assert scale_equivalence_test(prof) < 1e-6


class TestEigfunDecay:
    def test_fitted_constant_definition(self):
        r = np.geomspace(0.5, 50.0, 500)
        z = 1.0 / np.maximum(r, 1.0)  # ~ r^-(N-2) for N = 3
        eig = EigenResult(1, -1.0, 0.0, 0, r, z)
        c = eigfun_decay_check(eig, 3)
        assert c >= 1.0

    def test_stability_over_sweep(self):
        cs = []
        for eps in (0.05, 0.02):
            for alpha in (1.0, 2.0):
                rs = rescale(solve_dirichlet_ball(ProblemParams(3, alpha, eps)))
                res = solve_eigen(SLProblem.from_rescaled(rs), 1, n_points=1500)
                cs.append(eigfun_decay_check(res[0], 3))
        assert max(cs) / min(cs) < 10.0


def hump_sign_reference(z):
    # the scalar loop that _first_hump_sign replaces
    az = np.abs(z)
    thresh = 0.05 * np.max(az)
    for i in range(1, z.size - 1):
        if az[i] >= thresh and az[i] >= az[i - 1] and az[i] >= az[i + 1]:
            return 1.0 if z[i] > 0 else -1.0
    return 1.0 if z[np.argmax(az)] > 0 else -1.0


def test_first_hump_sign_matches_the_loop(ball_problem):
    _, zs = assemble_pencil(ball_problem, default_spectral_grid(1.0, 1500)).eigenvectors(3)
    rng = np.random.default_rng(7)
    cases = [*zs, *-zs, *rng.normal(size=(20, 40)),
             # a first hump below 5% of the peak is skipped
             np.array([0.0, -0.01, 0.0, 0.5, 1.0, 0.2]),
             np.ones(5), np.array([0.3]), np.array([0.3, -0.4])]
    for z in cases:
        assert spectral._first_hump_sign(z) == hump_sign_reference(z)
    assert [spectral._first_hump_sign(z) for z in zs] == [1.0, 1.0, 1.0]
    # no interior hump: the sign of the largest entry
    monotone = np.linspace(-1.0, 0.2, 50)
    assert spectral._first_hump_sign(monotone) == hump_sign_reference(monotone) == -1.0


def test_node_count_helper():
    assert node_count(np.array([0.1, 0.5, 1.0, 0.4])) == 0
    assert node_count(np.array([0.1, 0.5, -0.2, -1.0])) == 1
    # noise-level entries must not create spurious crossings
    assert node_count(np.array([0.5, -1e-12, 0.4])) == 0
    assert node_count(np.array([1e-14, 0.5, -0.2, -1e-15, -0.3])) == 1
