"""PPT entanglement, Gaussian steering, and sudden-death thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oamcv.channels
import oamcv.criteria
import oamcv.gaussian
from oamcv import (ChannelParams, InputError, NumericalError, SqueezingSpec,
                   UnphysicalStateError, apply_channel, classify, classify_many,
                   entanglement_death_eta, make_tmss, ppt_nu, ppt_nu_closed_form,
                   ppt_nu_eigen, steering, steering_death_eta,
                   steering_death_eta_ba_lossy, symplectic_eigenvalues)
from oamcv.criteria import ETA_LO, STEERING_CLASSES
from conftest import (V_REF, VP_REF, analytic_family_cm, deltas, eigvals_symplectic, etas,
                      source_specs, squeezed_specs)

REF_SPEC = SqueezingSpec(V_REF, VP_REF)

# regression values frozen from an independent dense-scan + brentq oracle on
# the eigenvalue route (xtol 1e-12)
DEATH_ETA = {0.15: 0.105060267, 0.5: 0.281254088, 1.0: 0.439029371}
STEERING_DEATH_AB_015 = 0.489455685
STEERING_DEATH_BA_015 = 0.805462048
STEERING_DEATH_BA_LOSSY = 0.7826245222350299
NU_HALF_LOSS = 0.6407723527415286
GAB_HALF_LOSS = 0.08146110759597645
# product state whose partially transposed spectrum is nearly degenerate:
# the two PPT routes differ by ~4e-8 here, accepted by the degeneracy allowance;
# the exact nu is the smaller diagonal entry
NEAR_DEGENERATE = np.diag([4.263414216490556, 4.263414216490556,
                           4.263414216486129, 4.263414216486129])
_PT = np.diag([1.0, 1.0, 1.0, -1.0])


def distributed(eta, delta, spec=REF_SPEC):
    return apply_channel(make_tmss(spec), ChannelParams(eta, delta))


def separability_gap(spec, delta, eta):
    """1 - Dt + det sigma of the distributed state: positive where it is separable."""
    sigma = distributed(eta, delta, spec).entries
    dt = (np.linalg.det(sigma[:2, :2]) + np.linalg.det(sigma[2:, 2:])
          - 2.0 * np.linalg.det(sigma[:2, 2:]))
    return 1.0 - dt + np.linalg.det(sigma)


def _log_det_ratio(cm, block):
    sigma = cm.entries
    return math.log(np.linalg.det(sigma[block, block]) / np.linalg.det(sigma))


# signed margin of each correlation in the full distributed state, positive
# where it is alive: 1 - nu, and the steerability before steering() clamps it
MARGIN = {
    "entanglement": lambda cm: 1.0 - ppt_nu(cm),
    "AB": lambda cm: _log_det_ratio(cm, slice(0, 2)),
    "BA": lambda cm: _log_det_ratio(cm, slice(2, 4)),
}
# below this margin at a bracket end, the sign of a double-precision state
# evaluation does not decide whether the correlation is alive there
RESOLVED_MARGIN = 1e-8


def bisected_death_eta(spec, delta, which, xtol=1e-9):
    """Reference threshold: bisection over the distributed state built at each eta.

    Returns (eta*, resolved).  eta* is None when the correlation is dead at
    eta = 1 or still alive at ETA_LO, the same bracket rule as the closed
    forms; resolved is False when the margin at either end is too small
    for its sign to be trusted.
    """
    margin = lambda eta: MARGIN[which](distributed(eta, delta, spec))
    at_hi, at_lo = margin(1.0), margin(ETA_LO)
    resolved = min(abs(at_hi), abs(at_lo)) > RESOLVED_MARGIN
    if at_hi <= 0.0 or at_lo > 0.0:
        return None, resolved
    dead, living = ETA_LO, 1.0
    while living - dead > xtol:
        mid = 0.5 * (dead + living)
        if margin(mid) > 0.0:
            living = mid
        else:
            dead = mid
    return 0.5 * (dead + living), resolved


def reference_classify(sigma):
    """Per-state reference of classify(), one state and one formula at a time.

    The invariants from np.linalg.det per block, the closed form through
    math.sqrt, the eigen route on the 4x4 matrix, the agreement gate with
    the degeneracy allowance, and math.log steerabilities.  Returns
    (nu, entangled, g_ab, g_ba, steering_class).
    """
    det_a, det_b, det_c, det_sigma = (float(np.linalg.det(m)) for m in (
        sigma[:2, :2], sigma[2:, 2:], sigma[:2, 2:], sigma))
    dt = det_a + det_b - 2.0 * det_c
    s = math.sqrt(max(dt * dt - 4.0 * det_sigma, 0.0))
    closed = math.sqrt(max(2.0 * det_sigma / (dt + s), 0.0))
    eigen = float(symplectic_eigenvalues(_PT @ sigma @ _PT)[0])
    noise = 8.0 * np.finfo(float).eps * max(1.0, dt * dt)
    ds = math.sqrt(noise) if s * s <= noise else noise / (2.0 * s)
    nu2 = max(2.0 * det_sigma / max(dt + s, np.finfo(float).tiny), 0.0)
    allowance = math.sqrt(noise) if nu2 <= 0.0 else 4.0 * math.sqrt(nu2) * ds / (2.0 * (dt + s))
    gap, strict = abs(closed - eigen), 1e-9 * max(1.0, abs(closed))
    assert gap <= strict + allowance
    nu = closed if gap <= strict else eigen
    g_ab = max(0.0, 0.5 * math.log(det_a / det_sigma))
    g_ba = max(0.0, 0.5 * math.log(det_b / det_sigma))
    cls = STEERING_CLASSES[2 * (g_ab <= 1e-9) + (g_ba <= 1e-9)]
    return nu, nu < 1.0 - 1e-9, g_ab, g_ba, cls


def closed_death_eta(spec, delta, which):
    if which == "entanglement":
        return entanglement_death_eta(spec, delta)
    return steering_death_eta(spec, delta, which)


class TestPptNu:
    def test_reference_source(self):
        assert ppt_nu(make_tmss(REF_SPEC)) == pytest.approx(0.470, abs=1e-9)

    def test_vacuum_is_boundary(self):
        assert ppt_nu(np.eye(4)) == 1.0

    def test_half_loss_regression(self):
        assert ppt_nu(distributed(0.5, 0.0)) == pytest.approx(NU_HALF_LOSS, abs=1e-9)

    def test_routes_agree_on_reference_points(self):
        for eta, delta in [(1.0, 0.0), (0.5, 0.0), (0.5, 1.0), (0.3, 0.5), (0.0, 0.5)]:
            cm = distributed(eta, delta)
            assert ppt_nu_closed_form(cm) == pytest.approx(ppt_nu_eigen(cm), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(source_specs(), etas, deltas)
    def test_routes_agree_everywhere(self, spec, eta, delta):
        cm = apply_channel(make_tmss(spec), ChannelParams(eta, delta))
        nus = symplectic_eigenvalues(np.diag([1.0, 1.0, 1.0, -1.0]) @ cm.entries
                                     @ np.diag([1.0, 1.0, 1.0, -1.0]))
        if nus[1] - nus[0] > 1e-6:
            # strict agreement away from symplectic degeneracy, where the
            # closed-form discriminant is resolvable in double precision
            assert abs(ppt_nu_closed_form(cm) - ppt_nu_eigen(cm)) <= 1e-9
        ppt_nu(cm)  # the built-in cross-check must accept every valid state

    def test_rejects_non_positive_definite(self):
        m = np.eye(4)
        m[0, 0] = -1.0
        with pytest.raises(InputError):
            ppt_nu(m)

    def test_near_degenerate_returns_accurate_route(self):
        # the closed form is off by ~4e-8 here; ppt_nu must not return it
        exact = NEAR_DEGENERATE[2, 2]
        assert ppt_nu(NEAR_DEGENERATE) == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert classify_many(NEAR_DEGENERATE[None]).nu[0] == ppt_nu(NEAR_DEGENERATE)


class TestSteering:
    def test_reference_source_symmetric(self):
        g_ab, g_ba = steering(make_tmss(REF_SPEC))
        expected = 0.5 * math.log(2.29 ** 2 / (V_REF * VP_REF) ** 2)
        assert g_ab == pytest.approx(expected, abs=1e-12)
        assert g_ba == pytest.approx(expected, abs=1e-12)
        assert g_ab == pytest.approx(0.170, abs=5e-4)

    def test_product_state_has_no_steering(self):
        assert steering(np.diag([1.7, 1.7, 2.3, 2.3])) == (0.0, 0.0)

    def test_half_loss_is_one_way(self):
        g_ab, g_ba = steering(distributed(0.5, 0.0))
        assert g_ab == pytest.approx(GAB_HALF_LOSS, abs=1e-9)
        assert g_ba == 0.0

    def test_rejects_degenerate_determinant(self):
        with pytest.raises(UnphysicalStateError):
            steering(np.zeros((4, 4)))

    @settings(max_examples=150, deadline=None)
    @given(source_specs())
    def test_symmetric_source_steers_equally(self, spec):
        g_ab, g_ba = steering(make_tmss(spec))
        assert g_ab == g_ba

    @settings(max_examples=200, deadline=None)
    @given(source_specs(), etas, deltas)
    def test_steering_implies_entanglement(self, spec, eta, delta):
        cm = apply_channel(make_tmss(spec), ChannelParams(eta, delta))
        g_ab, g_ba = steering(cm)
        if g_ab > 1e-12 or g_ba > 1e-12:
            assert ppt_nu(cm) < 1.0


class TestClassify:
    def test_source_is_two_way_entangled(self):
        report = classify(make_tmss(REF_SPEC))
        assert report.entangled
        assert report.steering_class == "two-way"

    def test_vacuum(self):
        report = classify(np.eye(4))
        assert not report.entangled
        assert report.steering_class == "none"
        assert "boundary" in report.describe()

    def test_half_loss_one_way(self):
        report = classify(distributed(0.5, 0.0))
        assert report.entangled
        assert report.steering_class == "one-way-AB"
        assert "boundary" not in report.describe()

    def test_json_schema(self):
        d = classify(make_tmss(REF_SPEC)).to_json_dict()
        assert set(d) == {"nu", "entangled", "gAB", "gBA", "class"}
        assert d["class"] in ("two-way", "one-way-AB", "one-way-BA", "none")

    def test_one_way_classes_need_exactly_one_direction(self):
        report = classify(distributed(0.5, 0.0))
        assert (report.g_ab > 1e-9) != (report.g_ba > 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(source_specs(), etas, deltas)
    def test_charge_invariance(self, spec, eta, delta):
        # the criteria depend on the CM only, so identical specs at any l agree
        first = classify(apply_channel(make_tmss(spec), ChannelParams(eta, delta)))
        second = classify(apply_channel(make_tmss(spec), ChannelParams(eta, delta)))
        assert (first.nu, first.g_ab, first.g_ba) == (second.nu, second.g_ab, second.g_ba)


# a distributed state whose probe variance sigma[2, 2] differs from the
# source's, so a patch can pick it out of a stack
TARGET = apply_channel(make_tmss(REF_SPEC), ChannelParams(0.5, 0.15)).entries


class TestClassifyMany:
    @staticmethod
    def assert_matches_classify(stack):
        # stack independence: a state's values do not depend on its neighbours
        batched = classify_many(stack)
        scalar = [classify(s) for s in stack]
        assert batched.nu.tolist() == [r.nu for r in scalar]
        assert batched.g_ab.tolist() == [r.g_ab for r in scalar]
        assert batched.g_ba.tolist() == [r.g_ba for r in scalar]
        assert batched.entangled.tolist() == [r.entangled for r in scalar]
        assert batched.steering_class.tolist() == [r.steering_class for r in scalar]
        return batched

    @staticmethod
    def assert_matches_reference(stack, batched):
        assert list(zip(*(column.tolist() for column in batched))) == \
            [reference_classify(s) for s in stack]

    @staticmethod
    def assert_same_error(bad, exc_type):
        """classify(bad) and classify_many([good, bad, good]) raise the same error."""
        with pytest.raises(exc_type) as scalar:
            classify(bad)
        good = make_tmss(REF_SPEC).entries
        with pytest.raises(exc_type) as batched:
            classify_many(np.array([good, bad, good]))
        assert type(batched.value) is type(scalar.value)
        assert str(batched.value) == str(scalar.value)
        # under numpy 2 the repr of an array element reads np.float64(...)
        assert "np.float64(" not in str(scalar.value)
        return str(scalar.value)

    def test_boundary_and_near_degenerate_states(self):
        closed, eigen = ppt_nu_closed_form(NEAR_DEGENERATE), ppt_nu_eigen(NEAR_DEGENERATE)
        assert abs(closed - eigen) > 1e-9 * closed  # the allowance is in use
        stack = np.array([np.eye(4), NEAR_DEGENERATE, make_tmss(REF_SPEC).entries])
        batched = self.assert_matches_classify(stack)
        self.assert_matches_reference(stack, batched)
        assert batched.nu[1] == eigen
        assert batched.nu[0] == 1.0 and not batched.entangled[0]
        assert batched.steering_class.tolist() == ["none", "none", "two-way"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(source_specs(), etas, deltas), min_size=1, max_size=12),
           st.integers(0, 12), st.integers(0, 12))
    def test_equals_classify_on_channel_outputs(self, points, at_vacuum, at_degenerate):
        stack = [apply_channel(make_tmss(spec), ChannelParams(eta, delta)).entries
                 for spec, eta, delta in points]
        stack.insert(at_vacuum, np.eye(4))
        stack.insert(at_degenerate, NEAR_DEGENERATE)
        stack = np.array(stack)
        batched = self.assert_matches_classify(stack)
        self.assert_matches_reference(stack, batched)
        # the stacked eigenvalue route agrees with the stacked closed form
        nus = symplectic_eigenvalues(_PT @ stack @ _PT)
        apart = nus[:, 1] - nus[:, 0] > 1e-6
        assert np.all(np.abs(batched.nu - nus[:, 0])[apart] <= 1e-9)

    def test_empty_stack(self):
        assert classify_many(np.empty((0, 4, 4))).nu.shape == (0,)

    @pytest.mark.parametrize("bad", [
        np.diag([-1.0, 1.0, 1.0, 1.0]),                  # not positive definite
        np.zeros((4, 4)),                                 # singular
        np.full((4, 4), np.nan),                          # not finite
        np.eye(4) + np.triu(np.ones((4, 4)), 1),          # not symmetric
    ])
    def test_failing_state_raises_the_scalar_error(self, bad):
        self.assert_same_error(bad, InputError)

    def test_underflowing_determinants_raise_the_scalar_error(self):
        # positive definite, but every determinant underflows to 0, so Dt = 0
        bad = np.diag([1e-200] * 4)
        assert self.assert_same_error(bad, NumericalError) == \
            "degenerate PPT invariants (Dt = 0.0)"

    def test_overflowing_invariants_raise_the_scalar_error(self):
        # positive definite, but every determinant overflows to inf, so the
        # closed form is NaN, which no comparison of the later checks catches
        bad = np.diag([1e200] * 4)
        text = self.assert_same_error(bad, NumericalError)
        assert text == "state invariants are not finite (Dt = inf, det sigma = inf)"
        for entry_point in (ppt_nu, ppt_nu_closed_form, ppt_nu_eigen, steering):
            with pytest.raises(NumericalError) as scalar:
                entry_point(bad)
            assert str(scalar.value) == text

    @pytest.mark.parametrize("bad", [
        np.diag([1e100, 1e100, 1e54, 1e54]),  # Dt^2 - 4 det sigma = inf - inf
        np.diag([1e80, 1e80, 1e20, 1e20]),    # Dt^2 = inf, so the closed form would read 0
    ])
    def test_overflowing_discriminant_raises_the_scalar_error(self, bad):
        # positive definite with finite invariants, but the discriminant overflows
        text = self.assert_same_error(bad, NumericalError)
        assert text.startswith("PPT discriminant overflows (Dt = ")
        for entry_point in (ppt_nu, ppt_nu_closed_form, ppt_nu_eigen, steering):
            with pytest.raises(NumericalError) as scalar:
                entry_point(bad)
            assert str(scalar.value) == text

    def test_gate_fails_closed_on_a_nan_route(self, monkeypatch):
        # with the discriminant check switched off, the NaN closed form of an
        # overflowing state reaches the agreement gate, which must reject it
        real = oamcv.criteria._discriminant

        def unchecked(dt, det_sigma):
            disc, (mask, error) = real(dt, det_sigma)
            return disc, (np.zeros_like(mask), error)

        monkeypatch.setattr(oamcv.criteria, "_discriminant", unchecked)
        bad = np.diag([1e100, 1e100, 1e54, 1e54])
        text = self.assert_same_error(bad, NumericalError)
        assert text == "PPT computation paths disagree: closed form nan vs eigen 1e+54"

    def test_route_disagreement_raises_the_scalar_error(self, monkeypatch):
        real = oamcv.criteria.symplectic_eigenvalues
        monkeypatch.setattr(oamcv.criteria, "symplectic_eigenvalues",
                            lambda m: real(m) + 1e-6 * (m[:, 2:3, 2] == TARGET[2, 2]))
        text = self.assert_same_error(TARGET, NumericalError)
        assert text.startswith("PPT computation paths disagree: closed form ")
        with pytest.raises(NumericalError) as scalar:
            ppt_nu(TARGET)
        assert str(scalar.value) == text

    @pytest.mark.parametrize("transform, exc_type, prefix", [
        # det sigma = Dt^2 makes the discriminant -3 Dt^2
        (lambda dt, det_sigma, det_a, det_b: (dt, dt * dt, det_a, det_b),
         NumericalError, "PPT discriminant is negative beyond tolerance: "),
        (lambda dt, det_sigma, det_a, det_b: (dt, det_sigma, -det_a, det_b),
         UnphysicalStateError, "state determinants must be positive, got det sigma = "),
    ])
    def test_patched_invariants_raise_the_scalar_error(self, monkeypatch, transform,
                                                       exc_type, prefix):
        real = oamcv.criteria._invariants

        def patched(sigma):
            values, hit = real(sigma), sigma[:, 2, 2] == TARGET[2, 2]
            return tuple(np.where(hit, new, old) for new, old in zip(transform(*values), values))

        monkeypatch.setattr(oamcv.criteria, "_invariants", patched)
        assert self.assert_same_error(TARGET, exc_type).startswith(prefix)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InputError):
            classify_many(np.eye(4))


class TestEigenRouteReference:
    """The Cholesky-Hermitian route against the general eigensolver on i*Omega*sigma."""

    @staticmethod
    def channel_outputs(n=2000, seed=20260):
        rng = np.random.default_rng(seed)
        r, m = rng.uniform(0.0, 2.0, n), rng.uniform(1.0, 4.0, n)
        eta, delta = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 3.0, n)
        return np.array([analytic_family_cm(mi * math.exp(-2.0 * ri), mi * math.exp(2.0 * ri),
                                            e, d) for ri, mi, e, d in zip(r, m, eta, delta)])

    def test_agrees_with_eigvals_on_channel_outputs(self):
        # guard: the two routes agree on every physical channel output
        stack = self.channel_outputs()
        for sigmas in (stack, _PT @ stack @ _PT):
            nus, reference = symplectic_eigenvalues(sigmas), eigvals_symplectic(sigmas)
            assert np.all(np.abs(nus - reference) <= 1e-12 * reference)

    def test_agrees_with_eigvals_near_degeneracy(self):
        # the agreement is a guard (it holds for eigvals too); the exact last
        # digit is the Hermitian route's, where eigvals is 3 ulp off
        for sigma in (NEAR_DEGENERATE, _PT @ NEAR_DEGENERATE @ _PT):
            nus, reference = symplectic_eigenvalues(sigma), eigvals_symplectic(sigma)
            assert np.all(np.abs(nus - reference) <= 1e-12 * reference)
        assert ppt_nu_eigen(NEAR_DEGENERATE) == NEAR_DEGENERATE[2, 2]


class TestEntanglementDeath:
    @pytest.mark.parametrize("delta", [0.15, 0.5, 1.0])
    def test_frozen_thresholds(self, delta):
        eta_star = entanglement_death_eta(REF_SPEC, delta)
        assert eta_star == pytest.approx(DEATH_ETA[delta], abs=2e-6)

    def test_lossy_channel_never_kills(self):
        assert entanglement_death_eta(REF_SPEC, 0.0) is None

    def test_death_point_sits_on_boundary(self):
        eta_star = entanglement_death_eta(REF_SPEC, 1.0)
        assert ppt_nu(distributed(eta_star, 1.0)) == pytest.approx(1.0, abs=1e-5)
        assert ppt_nu(distributed(eta_star + 0.01, 1.0)) < 1.0
        assert ppt_nu(distributed(eta_star - 0.01, 1.0)) > 1.0

    def test_unentangled_source_returns_none(self):
        assert entanglement_death_eta(SqueezingSpec(2.0, 2.0), 0.5) is None

    def test_rejects_negative_delta(self):
        with pytest.raises(InputError):
            entanglement_death_eta(REF_SPEC, -0.1)

    @settings(max_examples=60, deadline=None)
    @given(squeezed_specs(), st.floats(0.01, 3.0))
    def test_noisy_death_exists_and_is_a_root(self, spec, delta):
        eta_star = entanglement_death_eta(spec, delta)
        assert eta_star is not None and 0.0 < eta_star < 1.0
        assert ppt_nu(apply_channel(make_tmss(spec), ChannelParams(eta_star, delta))) \
            == pytest.approx(1.0, abs=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(squeezed_specs(), deltas)
    def test_separability_gap_monotone_for_squeezed_family(self, spec, delta):
        # premise of a single root: one sign change on the bracket
        grid = np.linspace(1e-6, 1.0, 80)
        gaps = np.array([separability_gap(spec, delta, e) for e in grid])
        scale = max(1.0, np.abs(gaps).max())
        assert np.all(np.diff(gaps) <= 1e-9 * scale)


class TestSteeringDeath:
    def test_lossy_ba_matches_closed_form(self):
        closed = steering_death_eta_ba_lossy(REF_SPEC)
        assert closed == pytest.approx(STEERING_DEATH_BA_LOSSY, abs=1e-12)
        assert steering_death_eta(REF_SPEC, 0.0, "BA") == pytest.approx(closed, abs=2e-6)

    def test_lossy_ab_never_dies(self):
        assert steering_death_eta(REF_SPEC, 0.0, "AB") is None

    def test_noisy_thresholds(self):
        assert steering_death_eta(REF_SPEC, 0.15, "AB") == \
            pytest.approx(STEERING_DEATH_AB_015, abs=2e-6)
        assert steering_death_eta(REF_SPEC, 0.15, "BA") == \
            pytest.approx(STEERING_DEATH_BA_015, abs=2e-6)

    def test_direction_validation(self):
        with pytest.raises(InputError):
            steering_death_eta(REF_SPEC, 0.0, "XY")

    def test_closed_form_requires_squeezed_source(self):
        with pytest.raises(InputError):
            steering_death_eta_ba_lossy(SqueezingSpec(1.5, 2.0))

    @settings(max_examples=40, deadline=None)
    @given(squeezed_specs())
    def test_closed_form_cross_check(self, spec):
        closed = steering_death_eta_ba_lossy(spec)
        bisected = steering_death_eta(spec, 0.0, "BA")
        if 1e-5 < closed < 1.0 - 1e-5:
            assert bisected == pytest.approx(closed, abs=2e-6)


class TestClosedFormThresholds:
    @settings(max_examples=150, deadline=None)
    @given(source_specs(), deltas)
    def test_match_bisection_oracle(self, spec, delta):
        for which in MARGIN:
            want, resolved = bisected_death_eta(spec, delta, which)
            got = closed_death_eta(spec, delta, which)
            if not resolved:
                continue
            if want is None:
                assert got is None, which
            else:
                assert got == pytest.approx(want, abs=2e-6), which

    @pytest.mark.parametrize("spec, delta, which", [
        (SqueezingSpec(1.0, 2.0), 0.0, "entanglement"),  # s = 0
        (SqueezingSpec(1.0, 1.0), 0.0, "AB"),            # (1 + delta) a = v vp
        (SqueezingSpec(1.0, 1.0), 0.0, "BA"),
    ])
    def test_zero_slope_returns_none(self, spec, delta, which):
        # the state sits on the boundary at every eta, where the oracle's
        # sign is rounding noise, so only the closed form is checked
        assert closed_death_eta(spec, delta, which) is None

    def test_solvers_evaluate_no_state(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a threshold solver evaluated a state")

        for module, name in [(oamcv.gaussian, "make_tmss"), (oamcv.channels, "apply_channel"),
                             (oamcv.channels, "apply_channel_grid"),
                             (oamcv.criteria, "symplectic_eigenvalues"),
                             (oamcv.criteria, "ppt_nu"), (oamcv.criteria, "steering")]:
            monkeypatch.setattr(module, name, refuse)
        for name in ("apply_channel", "make_tmss"):
            monkeypatch.setattr(oamcv.criteria, name, refuse, raising=False)
        for delta, eta_star in DEATH_ETA.items():
            assert entanglement_death_eta(REF_SPEC, delta) == pytest.approx(eta_star, abs=2e-6)
        assert steering_death_eta(REF_SPEC, 0.15, "AB") == \
            pytest.approx(STEERING_DEATH_AB_015, abs=2e-6)
        assert steering_death_eta(REF_SPEC, 0.15, "BA") == \
            pytest.approx(STEERING_DEATH_BA_015, abs=2e-6)
        assert steering_death_eta(REF_SPEC, 0.0, "BA") == \
            pytest.approx(STEERING_DEATH_BA_LOSSY, abs=2e-6)


class TestMonotonicity:
    def test_reference_loss_sweep(self):
        grid = np.linspace(1e-4, 1.0, 200)
        nus, gabs, gbas = [], [], []
        for eta in grid:
            cm = distributed(eta, 0.0)
            nus.append(ppt_nu(cm))
            g_ab, g_ba = steering(cm)
            gabs.append(g_ab)
            gbas.append(g_ba)
        assert np.all(np.diff(nus) <= 1e-12)          # nu falls as eta rises
        assert np.all(np.diff(gabs) >= -1e-12)
        assert np.all(np.diff(gbas) >= -1e-12)

    @settings(max_examples=40, deadline=None)
    @given(squeezed_specs())
    def test_lossy_monotonicity_family(self, spec):
        grid = np.linspace(1e-4, 1.0, 60)
        nus, gabs, gbas = [], [], []
        for eta in grid:
            cm = apply_channel(make_tmss(spec), ChannelParams(eta, 0.0))
            nus.append(ppt_nu(cm))
            g_ab, g_ba = steering(cm)
            gabs.append(g_ab)
            gbas.append(g_ba)
        assert np.all(np.diff(nus) <= 1e-9)
        assert np.all(np.diff(gabs) >= -1e-9)
        assert np.all(np.diff(gbas) >= -1e-9)

    @settings(max_examples=60, deadline=None)
    @given(source_specs(), etas, deltas, deltas)
    def test_excess_noise_ordering(self, spec, eta, d1, d2):
        lo, hi = sorted((d1, d2))
        cm_lo = apply_channel(make_tmss(spec), ChannelParams(eta, lo))
        cm_hi = apply_channel(make_tmss(spec), ChannelParams(eta, hi))
        assert ppt_nu(cm_hi) >= ppt_nu(cm_lo) - 1e-9
        g_lo, g_hi = steering(cm_lo), steering(cm_hi)
        assert g_hi[0] <= g_lo[0] + 1e-9
        assert g_hi[1] <= g_lo[1] + 1e-9
