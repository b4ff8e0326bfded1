import inspect
import math
import threading
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize

from ucsk import optimizer
from ucsk.colorimetry import (
    ChromaticityPoint,
    GamutPolygon,
    centroid,
    xy_distance,
)
from ucsk.constellation import (
    FIXED_BLUE,
    BlueTarget,
    build_constellation,
)
from ucsk.linksim import LinkConfig, build_hypotheses
from ucsk.optimizer import (
    ConvergenceError,
    InfeasibleTargetError,
    OptimizerConfig,
    _problem,
    design_constellation,
    dmin_upper_bound,
)
from ucsk.presets import (
    GAMUTS,
    TABLE1_FIXTURES,
    blue_target_preset,
    led_triangle_gamut,
)

FAST = OptimizerConfig(multistart_count=8, rng_seed=0)


class TestUpperBound:
    def test_target1(self):
        target = blue_target_preset(1)
        expect = xy_distance(target.center, FIXED_BLUE) + 0.1
        assert dmin_upper_bound(target) == pytest.approx(expect, rel=1e-12)
        assert dmin_upper_bound(target) == pytest.approx(0.2807, abs=1e-4)

    def test_target2(self):
        assert dmin_upper_bound(blue_target_preset(2)) == pytest.approx(
            0.1811, abs=1e-4
        )

    def test_zero_radius(self):
        target = BlueTarget(ChromaticityPoint(0.2, 0.3), 0.0)
        assert dmin_upper_bound(target) == xy_distance(target.center, FIXED_BLUE)


def _central_difference(fun, z, h=1e-7):
    cols = []
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        cols.append((np.atleast_1d(fun(zp)) - np.atleast_1d(fun(zm))) / (2 * h))
    return np.stack(cols, axis=1)


def _evaluators(problem):
    """(fun, jac) of one z, each a one-row batch of the evaluators."""

    def fun(z):
        return problem.values(np.asarray(z)[None])[0]

    def jac(z):
        C = problem.normals0.copy(order="F")
        C[:7] = problem.normals(np.asarray(z)[None])[0]
        return C

    return fun, jac


def _scalar_evaluators(problem, blue, target, gamut):
    """(fun, jac) of one z in the arithmetic of a single start: the forms
    that the batched evaluators must reproduce bit for bit."""
    jac0, offset = optimizer._point_map(blue, target)
    pair_jac = jac0[optimizer._PAIR_I] - jac0[optimizer._PAIR_J]
    pair_offset = offset[optimizer._PAIR_I] - offset[optimizer._PAIR_J]
    a, b = gamut.halfplanes
    lin_a = np.hstack([np.vstack([a @ jac0[0], a @ jac0[1]]), np.zeros((2 * len(b), 1))])
    lin_b = np.concatenate([b - a @ offset[0], b - a @ offset[1]]) + optimizer._GAMUT_MARGIN

    def fun(z):
        p = pair_jac @ z[:4] + pair_offset
        d = np.empty(len(problem.normals0))
        d[:6] = np.einsum("ij,ij->i", p, p) - z[4] ** 2
        d[6] = 1.0 - optimizer._DISK_SLACK - z[2:4] @ z[2:4]
        d[7:] = lin_b - lin_a @ z
        return d

    def jac(z):
        p = pair_jac @ z[:4] + pair_offset
        C = problem.normals0.copy(order="F")
        C[:6, :4] = 2.0 * np.einsum("ij,ijk->ik", p, pair_jac)
        C[:6, 4] = -2.0 * z[4]
        C[6, 2:4] = -2.0 * z[2:4]
        return C

    return fun, jac


JACOBIAN_TARGETS = pytest.mark.parametrize(
    "target",
    [blue_target_preset(2), BlueTarget(ChromaticityPoint(0.15, 0.15), 0.0)],
    ids=["disk", "zero-radius-disk"],
)


def _jacobian_points():
    """The 12 z's the Jacobian checks run at, as one (12, 5) batch."""
    rng = np.random.default_rng(3)
    return np.array([
        rng.uniform([0.05, 0.05, -1.5, -1.5, 0.01], [0.6, 0.7, 1.5, 1.5, 0.3])
        for _ in range(12)
    ])


class TestJacobians:
    @JACOBIAN_TARGETS
    def test_match_central_differences(self, locus, target):
        # 6 pair rows, 1 disk row and 2 gamut rows per half-plane, all
        # inequalities at every radius
        problem = _problem(FIXED_BLUE.as_array(), target, locus)
        m = 7 + 2 * len(locus.halfplanes[1])
        assert problem.normals0.shape == (m, 5)
        assert problem.normals0.flags.f_contiguous
        Z = _jacobian_points()
        assert problem.values(Z).shape == (12, m)
        normals = problem.normals(Z)
        assert normals.shape == (12, 7, 5)
        fun, _ = _evaluators(problem)
        for z, top in zip(Z, normals):
            C = problem.normals0.copy()
            C[:7] = top
            np.testing.assert_allclose(
                C, _central_difference(fun, z), rtol=1e-6, atol=1e-8
            )

    @JACOBIAN_TARGETS
    @pytest.mark.parametrize("gamut_name", ("horseshoe", "led-triangle"))
    def test_batch_rows_match_one_row_bitwise(self, target, gamut_name):
        # A start solved in a batch must see the bytes it would see alone,
        # and alone it must see the arithmetic of a single start: t**2 is
        # libm's pow, not t * t, and no product spans the batch.
        gamut = GAMUTS[gamut_name]()
        blue = FIXED_BLUE.as_array()
        problem = _problem(blue, target, gamut)
        fun, jac = _evaluators(problem)
        scalar_fun, scalar_jac = _scalar_evaluators(problem, blue, target, gamut)
        # About 1 t in 1,000 has t**2 != t * t; 200 more z's, the first
        # of them at such t's.
        rng = np.random.default_rng(4)
        extra = rng.uniform([0.05, 0.05, -1.5, -1.5, 0.0], [0.6, 0.7, 1.5, 1.5, 0.3], (200, 5))
        t = rng.uniform(0.0, 0.3, 20_000)
        odd = t[[s**2 != s * s for s in t]][:10]
        assert len(odd) == 10
        extra[:10, 4] = odd
        Z = np.concatenate([_jacobian_points(), extra])
        values, normals = problem.values(Z), problem.normals(Z)
        for z, d, top in zip(Z, values, normals):
            assert d.tobytes() == fun(z).tobytes() == scalar_fun(z).tobytes()
            assert top.tobytes() == jac(z)[:7].tobytes()
            assert jac(z).tobytes() == scalar_jac(z).tobytes()

    def test_pair_residuals_are_squared_distances(self):
        target = blue_target_preset(3)
        fun, _ = _evaluators(
            _problem(FIXED_BLUE.as_array(), target, led_triangle_gamut())
        )
        fx = TABLE1_FIXTURES["table1-t3o1"]
        c = build_constellation(fx.r, fx.g)
        u = (c.x.as_array() - target.center.as_array()) / target.radius
        t = 0.05
        res = fun(np.array([fx.r.x, fx.r.y, *u, t]))[:6]
        expect = sorted(xy_distance(p, q) ** 2 - t**2 for p, q in combinations(
            (c.r, c.g, c.b, c.x), 2
        ))
        np.testing.assert_allclose(sorted(res), expect, atol=1e-15)


class TestDesign:
    def test_target3_bracket(self, locus):
        target = blue_target_preset(3)
        result = design_constellation(target, FAST, locus)
        assert 0.0962 <= result.constellation.d_min <= 0.1019
        assert result.constellation.d_min <= dmin_upper_bound(target) + 1e-6
        assert target.contains(result.constellation.x)
        # dominates the best published design for this target
        best_published = max(
            fx.d_min_tabulated
            for fx in TABLE1_FIXTURES.values()
            if fx.target_id == 3
        )
        assert result.constellation.d_min >= best_published - 0.005
        c = result.constellation
        assert target.margin(c.x) >= 0.0
        assert all(locus.contains(p) for p in c.points().values())

    def test_deterministic(self, locus):
        target = blue_target_preset(3)
        a = design_constellation(target, FAST, locus)
        b = design_constellation(target, FAST, locus)
        assert a == b

    def test_seed_changes_search(self, locus):
        target = blue_target_preset(3)
        a = design_constellation(target, FAST, locus)
        b = design_constellation(
            target, OptimizerConfig(multistart_count=8, rng_seed=99), locus
        )
        # same optimum within tolerance, independent searches
        assert a.constellation.d_min == pytest.approx(b.constellation.d_min, abs=1e-4)

    def test_degenerate_disk_at_blue(self, locus):
        target = BlueTarget(FIXED_BLUE, 0.0)
        result = design_constellation(target, FAST, locus)
        assert result.constellation.d_min <= 1e-3
        assert target.contains(result.constellation.x)
        assert xy_distance(result.constellation.x, FIXED_BLUE) <= 1e-9

    def test_degenerate_disk_pins_x(self, locus):
        center = ChromaticityPoint(0.15, 0.15)
        target = BlueTarget(center, 0.0)
        result = design_constellation(target, FAST, locus)
        assert xy_distance(result.constellation.x, center) <= 1e-9
        assert result.constellation.d_min <= xy_distance(center, FIXED_BLUE) + 1e-9

    def test_infeasible_target(self, locus):
        with pytest.raises(InfeasibleTargetError):
            design_constellation(
                BlueTarget(ChromaticityPoint(2.0, 2.0), 0.1), FAST, locus
            )

    def test_gamut_without_the_fixed_blue_is_infeasible(self):
        # The disk lies well inside this gamut; the fixed blue does not.
        gamut = GamutPolygon(
            [ChromaticityPoint(0.3, 0.3), ChromaticityPoint(0.5, 0.3),
             ChromaticityPoint(0.4, 0.5)]
        )
        target = BlueTarget(ChromaticityPoint(0.4, 0.35), 0.01)
        with pytest.raises(InfeasibleTargetError, match="fixed blue"):
            design_constellation(target, FAST, gamut)

    def test_unreachable_centroid_reports_diagnostics(self):
        # disk inside the LED triangle but beyond any centroid with B fixed
        tri = led_triangle_gamut()
        target = BlueTarget(ChromaticityPoint(0.70, 0.28), 0.005)
        cfg = OptimizerConfig(multistart_count=3, rng_seed=0)
        with pytest.raises(ConvergenceError) as err:
            design_constellation(target, cfg, tri)
        diagnostics = err.value.diagnostics
        assert len(diagnostics) == 3
        for diag in diagnostics:
            assert type(diag["iterations"]) is int
            assert 1 <= diag["iterations"] <= optimizer._MAX_ITERATIONS
            assert type(diag["exit_mode"]) is int
            assert diag["converged"] == (diag["exit_mode"] == 0)

    def test_labels_canonical(self, locus):
        result = design_constellation(blue_target_preset(3), FAST, locus)
        assert result.constellation.r.x >= result.constellation.g.x


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            OptimizerConfig(multistart_count=0)


class TestCap:
    @pytest.mark.parametrize("gamut_name", sorted(GAMUTS))
    @pytest.mark.parametrize("preset", (1, 2, 3))
    def test_dmin_within_cap(self, preset, gamut_name):
        target = blue_target_preset(preset)
        result = design_constellation(target, FAST, GAMUTS[gamut_name]())
        cap = dmin_upper_bound(target)
        assert result.constellation.d_min <= cap + 1e-9
        if gamut_name == "horseshoe" and preset in (2, 3):
            # (X, B) is the binding pair: X sits on the far rim of the disk
            assert result.constellation.d_min >= cap - 1e-6


    @pytest.mark.parametrize("seed", (9, 14, 28, 49, 50))
    def test_led_preset2_escapes_local_optimum(self, seed):
        # Most starts at these seeds lie in the basin of a local optimum
        # at d_min 0.11455; the best design is 0.1163855.  Starting every
        # start with X at the disk center lost it at seeds 49 and 50.
        result = design_constellation(
            blue_target_preset(2), OptimizerConfig(rng_seed=seed), led_triangle_gamut()
        )
        assert result.constellation.d_min >= 0.1163855 - 1e-6

    def test_led_green_vertex_start_is_accepted(self, monkeypatch):
        # One start (19) ends with G at the green vertex, where the offset
        # half-planes meet 1.005e-4 outside the triangle by Euclidean
        # distance; membership reads the same half-planes, so it counts.
        # With no stop floor every start runs, so every start is judged.
        _uncertified(monkeypatch)
        result = design_constellation(
            blue_target_preset(1), OptimizerConfig(rng_seed=2024), led_triangle_gamut()
        )
        assert result.starts_converged == 32
        assert result.best_start_index == 0
        assert result.constellation.d_min == 0.17147647168797073


def _scipy_row(x0, problem):
    """One start by scipy.optimize.minimize(method="SLSQP"), as
    (x bytes, success, nit, exit mode), with scipy's OpenBLAS at one
    thread as optimizer.minimize runs it."""
    con_fun, con_jac = _evaluators(problem)
    with optimizer._one_blas_thread():
        ref = scipy.optimize.minimize(
            lambda z: -z[4],
            x0,
            jac=lambda z: optimizer._NEG_T_GRAD,
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": con_fun, "jac": con_jac}],
            options={"maxiter": optimizer._MAX_ITERATIONS, "ftol": optimizer._FTOL},
        )
    return ref.x.tobytes(), ref.success, ref.nit, ref.status


def _rows(res):
    """(x bytes, success, nit, exit mode) of each row of a batch."""
    return [
        (x.tobytes(), success, nit, mode)
        for x, success, nit, mode in zip(res.x, res.success, res.iterations, res.mode)
    ]


def _uncertified(patch, bound=None):
    """Patch out both stop floors, so that every start runs: the cap is
    infinite, and the certified bound is None or, given bound=math.inf,
    one that no start reaches."""
    patch.setattr(optimizer, "dmin_upper_bound", lambda target: math.inf)
    patch.setattr(optimizer, "certified_dmin_bound", lambda target, gamut: bound)


def _design_batches(monkeypatch, target, cfg, gamut, bound=None):
    """(x0, problem) of every minimize call of a design that certifies no
    start, so that every start runs; bound is _uncertified's."""
    solve, batches = optimizer.minimize, []

    def record(fun, x0, grad, problem):
        batches.append((np.array(x0), problem))
        return solve(fun, x0, grad, problem)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "minimize", record)
        _uncertified(patch, bound)
        design_constellation(target, cfg, gamut)
    return batches


class TestKernelDriver:
    # optimizer.minimize drives SLSQP's private kernel directly, one
    # kernel state per row of a batch of starts.  Every row must end
    # where scipy.optimize.minimize ends on the same start, bit for bit,
    # so a change of the kernel, of scipy's loop around it or of the
    # lockstep fails here rather than in a distant digest.  scipy runs
    # under the same one-thread pin of its OpenBLAS.  With no stop floor
    # no start certifies, so all 32 run at every case, in waves of 1, 2
    # and 29.
    @pytest.mark.parametrize("seed", (0, 2024))
    @pytest.mark.parametrize("preset", (1, 2, 3))
    @pytest.mark.parametrize("gamut_name", ("horseshoe", "led-triangle"))
    def test_matches_scipy_minimize(self, monkeypatch, gamut_name, preset, seed):
        solve = optimizer.minimize
        ours, refs = [], []

        def both(fun, x0, grad, problem):
            res = solve(fun, x0, grad, problem)
            ours.extend(_rows(res))
            refs.extend(_scipy_row(row, problem) for row in x0)
            return res

        monkeypatch.setattr(optimizer, "minimize", both)
        _uncertified(monkeypatch)
        design_constellation(
            blue_target_preset(preset), OptimizerConfig(rng_seed=seed), GAMUTS[gamut_name]()
        )
        assert len(ours) == 32
        for k, (row, ref) in enumerate(zip(ours, refs)):
            assert row == ref, f"start {k}"

    def test_rows_that_finish_in_different_rounds(self, monkeypatch):
        # The 32 starts of one design, solved as one batch: rows that end
        # early drop out of the lockstep, and each row still ends where it
        # ends alone and where scipy ends.
        batches = _design_batches(
            monkeypatch, blue_target_preset(1), OptimizerConfig(rng_seed=0),
            led_triangle_gamut(),
        )
        problem = batches[0][1]
        x0 = np.concatenate([x for x, _ in batches])
        res = optimizer.minimize(lambda z: -z[4], x0, optimizer._NEG_T_GRAD, problem)
        assert len(set(res.iterations)) > 1
        alone = [
            _rows(optimizer.minimize(lambda z: -z[4], row[None], optimizer._NEG_T_GRAD, problem))[0]
            for row in x0
        ]
        assert _rows(res) == alone
        assert alone == [_scipy_row(row, problem) for row in x0]

    def test_batch_of_one(self, locus):
        problem = _problem(FIXED_BLUE.as_array(), blue_target_preset(1), locus)
        x0 = np.array([[0.5, 0.4, 0.2, -0.3, 0.0]])
        res = optimizer.minimize(lambda z: -z[4], x0, optimizer._NEG_T_GRAD, problem)
        assert res.x.shape == (1, 5)
        assert _rows(res) == [_scipy_row(x0[0], problem)]
        assert res.nit == res.iterations[0]


class TestBlasPin:
    # optimizer._one_blas_thread runs a block with scipy's OpenBLAS at one
    # thread.  The count is process-wide, so blocks that overlap share one
    # pin: the first to enter saves the count, the last to leave restores
    # it, and no block runs at another count in between.
    @pytest.fixture
    def count(self):
        threads = optimizer._blas_threads()
        if threads is None:
            pytest.skip("the SLSQP kernel links no scipy-bundled OpenBLAS")
        get, set_ = threads
        before = get()
        set_(2)
        assert get() == 2
        yield get
        set_(before)

    def test_nested_blocks(self, count):
        with optimizer._one_blas_thread():
            with optimizer._one_blas_thread():
                assert count() == 1
            assert count() == 1
        assert count() == 2

    def test_blocks_in_two_threads(self, count):
        # A enters, then B; A leaves while B runs; B leaves last.
        entered, a_left, seen = threading.Event(), threading.Event(), []

        def a():
            with optimizer._one_blas_thread():
                entered.set()
                assert b_entered.wait(60)
            a_left.set()

        b_entered = threading.Event()
        thread = threading.Thread(target=a)
        thread.start()
        try:
            assert entered.wait(60)
            with optimizer._one_blas_thread():
                b_entered.set()
                assert a_left.wait(60)
                seen.append(count())
        finally:
            b_entered.set()
            thread.join(60)
        assert seen == [1]
        assert count() == 2


class TestTracerContract:
    # bench/spans.py wraps optimizer.minimize by name: it calls
    # minimize(objective, x0, grad, problem) with fun wrapped so that it
    # counts each objective evaluation, and adds the result's nit to the
    # traced iteration count.  A drift here reads as a wrong count, not
    # as an error.
    def test_signature(self):
        assert list(inspect.signature(optimizer.minimize).parameters) == [
            "fun", "x0", "grad", "problem",
        ]

    def test_fun_once_per_evaluation_and_nit_is_the_batch_total(
        self, monkeypatch, locus
    ):
        kernel = optimizer._kernel()
        evaluations = []

        def counting(state, *args):
            kernel(state, *args)
            evaluations.append(state["mode"] == 1)

        monkeypatch.setattr(optimizer, "_kernel", lambda: counting)
        batches = _design_batches(
            monkeypatch, blue_target_preset(1), OptimizerConfig(rng_seed=0), locus
        )
        x0 = np.concatenate([x for x, _ in batches])
        calls = []

        def fun(z):
            calls.append(z.copy())
            return -z[4]

        evaluations.clear()
        res = optimizer.minimize(fun, x0, optimizer._NEG_T_GRAD, batches[0][1])
        # One evaluation at each start, then one per mode-1 request.
        assert len(calls) == len(x0) + sum(evaluations)
        assert type(res.nit) is int
        assert res.nit == sum(res.iterations)
        assert all(type(nit) is int for nit in res.iterations)


class TestCertificate:
    # A feasible start within radius * _DISK_SLACK of dmin_upper_bound
    # is optimal, so the search stops there.  On the horseshoe only
    # presets 2 and 3 reach the cap; (X, B) is their one binding pair.
    # The other presets stop at their certified bounds instead
    # (tests/test_certificates.py).
    @pytest.mark.parametrize("seed", (*range(10), 2024))
    @pytest.mark.parametrize("preset", (2, 3))
    def test_horseshoe_stops_at_the_cap(self, monkeypatch, locus, preset, seed):
        target = blue_target_preset(preset)
        cfg = OptimizerConfig(rng_seed=seed)
        result = design_constellation(target, cfg, locus)
        assert result.certified and result.starts_used <= 3
        assert result.best_start_index == result.starts_used - 1
        monkeypatch.setattr(optimizer, "dmin_upper_bound", lambda target: math.inf)
        full = design_constellation(target, cfg, locus)
        assert not full.certified and full.starts_used == 32
        slack = target.radius * optimizer._DISK_SLACK
        assert result.constellation.d_min >= full.constellation.d_min - slack

    @pytest.mark.parametrize(
        "gamut_name, preset",
        [("horseshoe", 1), ("led-triangle", 1), ("led-triangle", 2),
         ("led-triangle", 3)],
    )
    def test_below_the_cap_runs_every_start(self, monkeypatch, gamut_name, preset):
        # With its certified bound patched out, the cap alone stops none of
        # these designs.
        monkeypatch.setattr(optimizer, "certified_dmin_bound", lambda target, gamut: None)
        result = design_constellation(
            blue_target_preset(preset), OptimizerConfig(rng_seed=2024),
            GAMUTS[gamut_name](),
        )
        assert not result.certified and result.starts_used == 32

    def test_zero_radius_disk_at_blue_stops_at_first_feasible_start(self, locus):
        # The cap is 0, so any feasible start certifies.
        result = design_constellation(BlueTarget(FIXED_BLUE, 0.0), FAST, locus)
        assert result.certified
        assert result.starts_used == result.best_start_index + 1
        assert result.starts_converged == 1


def _replay(monkeypatch, target, cfg, gamut):
    """design_constellation one start at a time: each start a one-row
    minimize call from the x0 the design gives it, judged in index order,
    stopping at the first feasible start at or above the stop floor.
    Returns the DesignResult and each start's (d_min, feasible)."""
    batches = _design_batches(monkeypatch, target, cfg, gamut)
    problem = batches[0][1]
    jac, offset = optimizer._point_map(FIXED_BLUE.as_array(), target)
    floor, bound = optimizer._stop_floor(target, gamut)
    best, converged, starts = None, 0, []
    for k, x0 in enumerate(np.concatenate([x for x, _ in batches])):
        res = optimizer.minimize(lambda z: -z[4], x0[None], optimizer._NEG_T_GRAD, problem)
        pts = jac @ res.x[0, :4] + offset
        dmin = float(np.linalg.norm(pts[optimizer._PAIR_I] - pts[optimizer._PAIR_J], axis=1).min())
        r, g = ChromaticityPoint(*pts[0]), ChromaticityPoint(*pts[1])
        ok = (
            res.success[0] and gamut.contains(r) and gamut.contains(g)
            and target.contains(centroid([r, g, FIXED_BLUE]))
        )
        starts.append((dmin, ok))
        if ok:
            converged += 1
            if best is None or dmin > best[0]:
                best = (dmin, k, *sorted((r, g), key=lambda p: -p.x))
            if dmin >= floor:
                break
    dmin, k, r, g = best
    result = optimizer.DesignResult(
        constellation=build_constellation(r, g, FIXED_BLUE, gamut),
        starts_converged=converged,
        best_start_index=k,
        starts_used=len(starts),
        certified=dmin >= floor,
        certified_bound=bound,
    )
    return result, starts


class TestWaves:
    # design_constellation solves its starts in waves of 1, 2, 4, 8, 16
    # and then at most 32 for a target with a certified bound, of 1, 2 and
    # then at most 32 for any other, and judges each wave's starts in
    # index order.  It must give what one start at a time gives.
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("preset", (2, 3))
    def test_horseshoe_certificates(self, monkeypatch, locus, preset, seed):
        target, cfg = blue_target_preset(preset), OptimizerConfig(rng_seed=seed)
        expect, _ = _replay(monkeypatch, target, cfg, locus)
        assert expect.certified and expect.starts_used <= 3
        assert design_constellation(target, cfg, locus) == expect

    @pytest.mark.parametrize("preset", (1, 2, 3))
    def test_led_triangle(self, monkeypatch, preset):
        # Each design stops at its certified bound, first met by starts 0,
        # 11 and 3: in the first, fourth and third waves, so starts 12-14
        # of preset 2 and 4-6 of preset 3 are solved but not judged.
        target, cfg = blue_target_preset(preset), OptimizerConfig(rng_seed=2024)
        expect, _ = _replay(monkeypatch, target, cfg, led_triangle_gamut())
        assert expect.certified and expect.starts_used == {1: 1, 2: 12, 3: 4}[preset]
        assert design_constellation(target, cfg, led_triangle_gamut()) == expect

    @pytest.mark.parametrize("preset", (1, 2, 3))
    def test_led_triangle_without_a_floor(self, monkeypatch, preset):
        target, cfg = blue_target_preset(preset), OptimizerConfig(rng_seed=2024)
        expect, _ = _replay(monkeypatch, target, cfg, led_triangle_gamut())
        _uncertified(monkeypatch)
        full, _ = _replay(monkeypatch, target, cfg, led_triangle_gamut())
        assert not full.certified and full.starts_used == 32
        assert design_constellation(target, cfg, led_triangle_gamut()) == full
        # The stop gives up at most the certificate's slack.
        slack = optimizer._BOUND_SLACK
        assert expect.constellation.d_min >= full.constellation.d_min - slack

    def test_more_starts_than_one_wave(self, monkeypatch):
        # 70 starts run in waves of 1, 2, 32, 32 and 3.
        self._more_starts_than_one_wave(monkeypatch, None, [1, 2, 32, 32, 3])

    def test_more_starts_than_one_wave_with_a_certified_bound(self, monkeypatch):
        # 70 starts run in waves of 1, 2, 4, 8, 16, 32 and 7.
        self._more_starts_than_one_wave(monkeypatch, math.inf, [1, 2, 4, 8, 16, 32, 7])

    def _more_starts_than_one_wave(self, monkeypatch, bound, waves):
        target = blue_target_preset(2)
        cfg = OptimizerConfig(multistart_count=70, rng_seed=0)
        batches = _design_batches(monkeypatch, target, cfg, led_triangle_gamut(), bound)
        assert [len(x0) for x0, _ in batches] == waves
        _uncertified(monkeypatch, bound)
        expect, _ = _replay(monkeypatch, target, cfg, led_triangle_gamut())
        assert expect.starts_used == 70 and expect.certified_bound == bound
        assert design_constellation(target, cfg, led_triangle_gamut()) == expect

    def test_certificate_inside_a_wave(self, monkeypatch):
        # A cap met first by a start that is not the last of its wave:
        # the starts after it in that wave are solved but neither counted
        # nor judged.
        self._floor_inside_a_wave(monkeypatch, "cap")

    def test_certified_bound_inside_a_wave(self, monkeypatch):
        self._floor_inside_a_wave(monkeypatch, "certified-bound")

    def _floor_inside_a_wave(self, monkeypatch, floor):
        target, gamut = blue_target_preset(3), led_triangle_gamut()
        cfg = OptimizerConfig(rng_seed=2024)
        _uncertified(monkeypatch)
        _, starts = _replay(monkeypatch, target, cfg, gamut)
        best, records = -math.inf, []
        for k, (dmin, ok) in enumerate(starts):
            if ok and dmin > best:
                records.append((k, best, dmin))
                best = dmin
        # The last start of each wave of 32 starts.
        wave_ends = {"cap": (0, 2, 31), "certified-bound": (0, 2, 6, 14, 30, 31)}[floor]
        k, below, at = next(r for r in records if r[0] > 0 and r[0] not in wave_ends)
        if floor == "cap":
            cap = (below + at) / 2 + target.radius * optimizer._DISK_SLACK
            monkeypatch.setattr(optimizer, "dmin_upper_bound", lambda target: cap)
        else:
            bound = (below + at) / 2 + optimizer._BOUND_SLACK
            monkeypatch.setattr(optimizer, "certified_dmin_bound", lambda target, gamut: bound)
        expect, _ = _replay(monkeypatch, target, cfg, gamut)
        assert expect.certified and expect.starts_used == k + 1
        assert design_constellation(target, cfg, gamut) == expect


def _scalar_sample_point(rng, gamut, bbox):
    """One attempt at a time: the start sampler's oracle."""
    xmin, xmax, ymin, ymax = bbox
    for _attempt in range(10_000):
        p = np.array([rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)])
        if gamut.nearest_boundary(ChromaticityPoint(*p)) <= 0.0:
            return p
    return np.mean([v.as_array() for v in gamut.vertices], axis=0)


class TestStartSampler:
    @pytest.mark.parametrize("gamut_name", sorted(GAMUTS))
    def test_blocks_match_one_attempt_at_a_time(self, gamut_name):
        gamut = GAMUTS[gamut_name]()
        bbox = gamut.bounding_box()
        for seed in range(50):
            for k in range(32):
                ours = optimizer._sample_points(np.random.default_rng([seed, k]), gamut, bbox)
                rng = np.random.default_rng([seed, k])
                oracle = [_scalar_sample_point(rng, gamut, bbox) for _ in range(2)]
                assert [p.tobytes() for p in ours] == [p.tobytes() for p in oracle], (seed, k)

    @pytest.mark.parametrize(
        "width, seed, fallbacks",
        [(1e-7, 0, [True, True]), (2e-4, 2, [True, False]),
         (2e-4, 5, [False, False]), (2e-4, 6, [False, True])],
        ids=["both-miss", "r-misses", "misses-restart", "g-misses"],
    )
    def test_sliver_gamut_falls_back_to_the_vertex_mean(self, width, seed, fallbacks):
        # The triangle covers width / 2 of its bounding box.  At 1e-7,
        # 10,000 attempts miss it for both points; at 2e-4 and seed 5, R
        # takes 9,662 attempts and G 7,231, so the count of misses starts
        # again at each point.
        gamut = GamutPolygon([
            ChromaticityPoint(0.0, 0.0), ChromaticityPoint(1.0, 1.0),
            ChromaticityPoint(1.0, 1.0 - width),
        ])
        bbox = gamut.bounding_box()
        mean = np.mean([v.as_array() for v in gamut.vertices], axis=0)
        follow = np.random.default_rng([seed, 0])
        ours = optimizer._sample_points(follow, gamut, bbox)
        rng = np.random.default_rng([seed, 0])
        oracle = [_scalar_sample_point(rng, gamut, bbox) for _ in range(2)]
        assert [p.tobytes() for p in ours] == [p.tobytes() for p in oracle]
        assert [p.tobytes() == mean.tobytes() for p in ours] == fallbacks
        if fallbacks == [True, True]:
            # Two fallbacks take exactly 2 x 10,000 attempts of the stream.
            rng = np.random.default_rng([seed, 0])
            rng.random(40_000)
            assert follow.random() == rng.random()


class TestDiskContainment:
    @pytest.mark.parametrize("gamut_name", sorted(GAMUTS))
    @pytest.mark.parametrize("seed", range(8))
    def test_every_point_inside(self, seed, gamut_name):
        # Each center is the centroid of the fixed blue and two random
        # points of the LED triangle, so every disk is reachable on both
        # gamuts.  Below a radius of about 2e-7 the disk slack is under
        # the centroid's rounding, which the tolerance covers instead.
        rng = np.random.default_rng(seed)
        tri = np.array([v.as_array() for v in led_triangle_gamut().vertices])
        rg = rng.dirichlet(np.ones(3), size=2) @ tri
        center = ChromaticityPoint(*(rg.sum(axis=0) + FIXED_BLUE.as_array()) / 3.0)
        target = BlueTarget(center, 10.0 ** rng.uniform(-6.0, -0.5))
        gamut = GAMUTS[gamut_name]()
        c = design_constellation(target, FAST, gamut).constellation
        assert target.margin(c.x) >= 0.0
        assert all(gamut.contains(p) for p in c.points().values())

    @pytest.mark.parametrize("radius", (1e-12, 1e-200))
    def test_tiny_radius_matches_zero_radius(self, locus, radius):
        center = ChromaticityPoint(0.2, 0.3)
        target = BlueTarget(center, radius)
        tiny = design_constellation(target, FAST, locus)
        zero = design_constellation(BlueTarget(center, 0.0), FAST, locus)
        assert target.contains(tiny.constellation.x)
        assert tiny.constellation.d_min == pytest.approx(
            zero.constellation.d_min, abs=1e-9
        )

    @pytest.mark.parametrize("gamut_name", sorted(GAMUTS))
    @pytest.mark.parametrize("radius", (1e4, 1e8, 1e154))
    def test_disk_past_the_gamut_matches_one_inside_it(self, gamut_name, radius):
        # On both gamuts the best X for this center is within 0.5 of it,
        # so no larger disk changes the design.  Unclipped, a radius this
        # large scaled u past what SLSQP converges on, or overflowed.
        center = ChromaticityPoint(0.15, 0.1)
        gamut = GAMUTS[gamut_name]()
        target = BlueTarget(center, radius)
        large = design_constellation(target, FAST, gamut)
        inside = design_constellation(BlueTarget(center, 0.5), FAST, gamut)
        assert target.contains(large.constellation.x)
        assert large.constellation.d_min == pytest.approx(
            inside.constellation.d_min, abs=1e-9
        )


class TestLedFluxes:
    # LED-triangle designs may sit up to the gamut allowance outside the
    # source triangle.  GamutPolygon.contains still accepts them, and
    # solve_fluxes clips their slightly negative fluxes at 0.
    @pytest.mark.parametrize("seed", (0, 2024))
    @pytest.mark.parametrize("preset", (1, 2, 3))
    def test_designs_render_at_10m(self, preset, seed, water):
        cfg = OptimizerConfig(rng_seed=seed)
        result = design_constellation(
            blue_target_preset(preset), cfg, led_triangle_gamut()
        )
        h = build_hypotheses(result.constellation, LinkConfig(water, 10.0))
        assert h.vectors.shape == (4, 3)
        assert np.all(np.isfinite(h.vectors))
