"""Checks for target-state builders and the entangled resource coefficients."""

import math

import numpy as np
import pytest

from bsteleport import numerics
from bsteleport.states import (
    _MAX_TAIL_RANGE,
    ResourceParams,
    TruncationError,
    cat_coeffs,
    coherent_coeffs,
    fock_coeffs,
    resource_coeffs,
    suggest_cutoff,
)

BETA_GRID = (0.1, 0.5, math.pi / 2, 2.5, 3.0)


class TestResourceParams:
    def test_derived_quantities(self):
        p = ResourceParams(7, 3, 1.0)
        assert p.total == 10
        assert p.j == 5.0
        assert p.m == 2.0

    def test_odd_total_gives_half_integer_m(self):
        p = ResourceParams(3, 2, 1.0)
        assert p.j == 2.5
        assert p.m == 0.5

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ResourceParams(-1, 0, 1.0)
        with pytest.raises(ValueError):
            ResourceParams(0, -2, 1.0)

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            ResourceParams(2.0, 1.0, 1.0)

    def test_beta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ResourceParams(1, 1, -0.1)
        with pytest.raises(ValueError):
            ResourceParams(1, 1, math.pi + 1e-9)


class TestResourceCoeffs:
    def test_normalized(self):
        for n_in, m_in in ((0, 0), (1, 0), (3, 3), (10, 4), (25, 25)):
            for beta in BETA_GRID:
                c = resource_coeffs(ResourceParams(n_in, m_in, beta)).coeffs
                assert abs(np.vdot(c, c).real - 1.0) < 1e-12

    def test_identity_splitter_is_exact_delta(self):
        c = resource_coeffs(ResourceParams(4, 2, 0.0)).coeffs
        expected = np.zeros(7, dtype=complex)
        expected[4] = 1.0
        assert np.array_equal(c, expected)

    def test_full_reflection_swaps_the_inputs(self):
        c = resource_coeffs(ResourceParams(4, 3, math.pi)).coeffs
        w = np.abs(c) ** 2
        assert w[3] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(w) - w[3] < 1e-12

    def test_single_photon_closed_form(self):
        # one photon in the first port splits as cos |1,0> + i sin |0,1>
        for beta in BETA_GRID:
            c = resource_coeffs(ResourceParams(1, 0, beta)).coeffs
            assert c[1] == pytest.approx(math.cos(beta / 2), abs=1e-14)
            assert c[0] == pytest.approx(1j * math.sin(beta / 2), abs=1e-14)

    def test_balanced_pair_interference_null(self):
        # one photon per port at a 50:50 splitter never exits one per port
        c = resource_coeffs(ResourceParams(1, 1, math.pi / 2)).coeffs
        assert abs(c[1]) < 1e-14
        assert abs(c[0]) == pytest.approx(math.sqrt(0.5), abs=1e-14)
        assert c[0] == pytest.approx(c[2], abs=1e-14)

    def test_quarter_turn_phases_are_exact(self):
        # undoing the i^(n_in - n) dressing must leave an exactly real vector
        phases = np.array([1.0, 1.0j, -1.0, -1.0j])
        for n_in, m_in, beta in ((5, 2, 0.8), (4, 4, math.pi / 2), (2, 7, 2.9)):
            c = resource_coeffs(ResourceParams(n_in, m_in, beta)).coeffs
            n = np.arange(n_in + m_in + 1)
            undone = np.conj(phases[(n_in - n) % 4]) * c
            assert np.array_equal(undone.imag, np.zeros(len(c)))

    def test_total_and_length(self):
        r = resource_coeffs(ResourceParams(2, 5, 1.3))
        assert r.total == 7
        assert len(r.coeffs) == 8

    def test_memory_budget_refused_before_allocation(self, monkeypatch):
        # the factor alone would need ~12 GiB at this total; nothing is allocated
        with pytest.raises(ValueError, match="above the 1024 MiB limit"):
            resource_coeffs(ResourceParams(20000, 20000, 1.0))
        # the point route reads the grids' budget: 96 bytes hold the total-2 factor only
        monkeypatch.setattr(numerics, "MAX_GRID_BYTES", 8 * 3 * 4)
        resource_coeffs(ResourceParams(1, 1, 1.0))
        with pytest.raises(ValueError, match="total 3 needs a factor"):
            resource_coeffs(ResourceParams(2, 1, 1.0))


class TestCatCoeffs:
    def test_odd_entries_exactly_zero(self):
        c = cat_coeffs(1.7, 22).coeffs
        assert np.array_equal(c[1::2], np.zeros(11, dtype=complex))

    def test_normalized_after_truncation(self):
        c = cat_coeffs(1.0, 14).coeffs
        assert abs(np.vdot(c, c).real - 1.0) < 1e-12

    def test_weight_ratio_matches_poisson(self):
        a = 1.3
        c = cat_coeffs(a, 16).coeffs
        for m in range(0, 14, 2):
            ratio = abs(c[m + 2]) ** 2 / abs(c[m]) ** 2
            assert ratio == pytest.approx(a**4 / ((m + 1) * (m + 2)), rel=1e-11)

    def test_zero_amplitude_is_vacuum(self):
        c = cat_coeffs(0.0, 3)
        assert np.array_equal(c.coeffs, [1.0, 0.0, 0.0, 0.0])
        assert c.label == "cat(0)"

    def test_tail_enforcement(self):
        # measured tails for alpha = 1: 9.2e-4 at cutoff 5, 1.6e-5 at 6,
        # 7.5e-12 at 12, 3.1e-14 at 14
        with pytest.raises(TruncationError):
            cat_coeffs(1.0, 5, tail_tol=1e-4)
        cat_coeffs(1.0, 6, tail_tol=1e-4)
        with pytest.raises(TruncationError):
            cat_coeffs(1.0, 12)
        cat_coeffs(1.0, 14)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            cat_coeffs(1.0, -1)

    def test_cutoff_beyond_the_weight_range_refused(self):
        # refused before the coefficient and log-factorial arrays are built
        for builder, cutoff in ((cat_coeffs, 10**13), (coherent_coeffs, 10**8),
                                (cat_coeffs, _MAX_TAIL_RANGE + 1)):
            with pytest.raises(ValueError, match="largest supported cutoff"):
                builder(3.0, cutoff)

    def test_complex_amplitude_phases(self):
        c_rot = cat_coeffs(1.0j, 12, tail_tol=1e-9).coeffs
        c_ref = cat_coeffs(1.0, 12, tail_tol=1e-9).coeffs
        m = np.arange(13)
        # rotating alpha by i multiplies entry m by i^m
        assert np.max(np.abs(c_rot - c_ref * 1j**m)) < 1e-12

    def test_cutoff_property_and_label(self):
        c = cat_coeffs(2.0, 18, tail_tol=1e-6)
        assert c.cutoff == 18
        assert c.label == "cat(2)"


class TestCoherentCoeffs:
    def test_amplitude_ratio(self):
        a = 2.0
        c = coherent_coeffs(a, 25).coeffs
        for m in range(24):
            assert c[m + 1] / c[m] == pytest.approx(a / math.sqrt(m + 1), rel=1e-11)

    def test_mean_photon_number(self):
        for a in (0.7, 2.0):
            cutoff = suggest_cutoff(a, "coherent")
            c = coherent_coeffs(a, cutoff).coeffs
            w = np.abs(c) ** 2
            assert np.dot(np.arange(cutoff + 1), w) == pytest.approx(a * a, abs=1e-9)

    def test_zero_amplitude_is_vacuum(self):
        c = coherent_coeffs(0.0, 2)
        assert np.array_equal(c.coeffs, [1.0, 0.0, 0.0])

    def test_tail_enforcement(self):
        with pytest.raises(TruncationError):
            coherent_coeffs(2.0, 10)

    def test_complex_amplitude_phases(self):
        theta = 0.9
        c_rot = coherent_coeffs(2.0 * np.exp(1j * theta), 30).coeffs
        c_ref = coherent_coeffs(2.0, 30).coeffs
        m = np.arange(31)
        assert np.max(np.abs(c_rot - c_ref * np.exp(1j * theta * m))) < 1e-12


class TestFockCoeffs:
    def test_delta_vector(self):
        c = fock_coeffs(2, 4)
        expected = np.zeros(5, dtype=complex)
        expected[2] = 1.0
        assert np.array_equal(c.coeffs, expected)
        assert c.label == "fock(2)"
        assert c.cutoff == 4

    def test_k_above_cutoff_rejected(self):
        with pytest.raises(ValueError):
            fock_coeffs(3, 2)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            fock_coeffs(-1, 2)

    def test_cutoff_beyond_the_weight_range_refused(self):
        for k, cutoff in ((10**10, 10**10), (0, _MAX_TAIL_RANGE + 1)):
            with pytest.raises(ValueError, match="largest supported cutoff"):
                fock_coeffs(k, cutoff)


class TestSuggestCutoff:
    def test_known_values(self):
        assert suggest_cutoff(0.0) == 0
        assert suggest_cutoff(1.0, "cat", 1e-4) == 6
        # the figure grids' targets
        assert suggest_cutoff(3.0, "cat") == 36
        assert suggest_cutoff(3.0, "coherent") == 37

    def test_result_satisfies_the_builder(self):
        for a, kind, builder in ((1.0, "cat", cat_coeffs), (2.0, "coherent", coherent_coeffs)):
            cutoff = suggest_cutoff(a, kind)
            builder(a, cutoff)  # must not raise

    def test_suggestion_always_accepted(self):
        # builder and suggestion once disagreed by rounding at the tail boundary
        cat_coeffs(3.8544326731278717, suggest_cutoff(3.8544326731278717, "cat"))
        rng = np.random.default_rng(7)
        for a in rng.uniform(0.5, 4.0, size=2000):
            for kind, builder in (("cat", cat_coeffs), ("coherent", coherent_coeffs)):
                builder(a, suggest_cutoff(a, kind))  # must not raise

    def test_large_amplitudes_reach_the_tolerance(self):
        rng = np.random.default_rng(8)
        for a in rng.uniform(33.0, 60.0, size=2000):
            for kind, builder in (("cat", cat_coeffs), ("coherent", coherent_coeffs)):
                builder(a, suggest_cutoff(a, kind))  # must not raise

    def test_amplitude_beyond_the_weight_range_refused(self):
        for builder in (cat_coeffs, coherent_coeffs):
            with pytest.raises(TruncationError):
                builder(1e5, 10)
        with pytest.raises(TruncationError):
            suggest_cutoff(1e5)

    def test_amplitude_too_small_to_square(self):
        assert suggest_cutoff(1e-170, "cat") == 0
        assert cat_coeffs(1e-170, 3).coeffs[0] == 1.0
        assert coherent_coeffs(1e-170, 0).coeffs[0] == 1.0

    def test_non_finite_amplitude_refused(self):
        for builder in (cat_coeffs, coherent_coeffs):
            with pytest.raises(TruncationError):
                builder(math.nan, 10)

    def test_minimality(self):
        for a, kind, builder in ((1.0, "cat", cat_coeffs), (2.0, "coherent", coherent_coeffs)):
            cutoff = suggest_cutoff(a, kind)
            with pytest.raises(TruncationError):
                builder(a, cutoff - 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            suggest_cutoff(1.0, "squeezed")

    def test_automatic_cutoff_is_capped(self):
        # at alpha = 64 the tail first drops below 1e-12 beyond cutoff 4096;
        # an explicit cutoff still builds
        with pytest.raises(TruncationError, match="no cutoff up to 4096"):
            suggest_cutoff(64.0)
        cat_coeffs(64.0, 4600)

    def test_invalid_tolerance_refused(self):
        for tol in (math.nan, math.inf, -math.inf, -1.0):
            for call in (lambda: suggest_cutoff(1.0, "cat", tol),
                         lambda: cat_coeffs(1.0, 20, tail_tol=tol),
                         lambda: coherent_coeffs(1.0, 20, tail_tol=tol)):
                with pytest.raises(ValueError, match="finite and non-negative"):
                    call()
        # zero is a valid tolerance: the tail is exactly zero at the end of the weight range
        for kind, builder in (("cat", cat_coeffs), ("coherent", coherent_coeffs)):
            builder(1.0, suggest_cutoff(1.0, kind, 0.0), tail_tol=0.0)
