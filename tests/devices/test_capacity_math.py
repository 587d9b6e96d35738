"""Regression lock on the scaled-capacity round-trip math.

``capacity_scale`` flows ``blocks_per_plane * factor`` through a float
multiply, and downstream every FTL derives user-page counts the same
way.  Plain ``int()`` truncation turns exactly-representable products
like ``1000 * 0.007 == 6.999...`` into an off-by-one block (and then an
off-by-one *patch extent* a node storage adapter trips over), while
plain ``round()`` would inflate genuinely fractional products.  The
:func:`~repro.nand.geometry.scaled_count` helper floors with a relative
epsilon; these tests pin its behaviour and the prefill round-trips that
exposed the bug.
"""

from dataclasses import replace

import pytest

from repro.devices import HUAWEI_GEN3_SPEC, build_device
from repro.nand.geometry import FlashGeometry, scaled_count
from repro.sim import Simulator


class TestScaledCount:
    def test_near_integral_products_round_to_nearest(self):
        # The motivating case: 1000 * 0.007 = 6.999999999999999.
        assert scaled_count(1000 * 0.007) == 7
        assert scaled_count(2048 * 0.01) == 20  # 20.48 floors
        assert scaled_count(0.29 * 100) == 29  # 28.999999999999996

    def test_fractional_products_still_floor(self):
        assert scaled_count(14.336) == 14
        assert scaled_count(20.48) == 20
        assert scaled_count(6.5) == 6
        assert scaled_count(0.9) == 0

    def test_exact_values_are_identity(self):
        for value in (0, 1, 7, 2048, 10**9):
            assert scaled_count(float(value)) == value

    def test_relative_epsilon_holds_at_large_magnitudes(self):
        # 62_914_560 * (1 - 0.25): float error here is ~1e-8 absolute,
        # far beyond an absolute epsilon but within the relative one.
        pages = 62_914_560
        assert scaled_count(pages * (1.0 - 0.25)) == 47_185_920

    def test_sweep_against_exact_integer_math(self):
        """Across a dense factor grid, the scaled count never deviates
        from exact fraction arithmetic by more than the floor rule."""
        from fractions import Fraction

        for blocks in (512, 1000, 2048, 4096):
            for milli in range(1, 200):
                factor = milli / 1000.0
                exact = Fraction(blocks) * Fraction(factor)
                got = scaled_count(blocks * factor)
                want = int(exact)  # Fraction floors exactly
                # Allow the round-up only when the float product sits
                # within relative 1e-9 of the next integer.
                assert got in (want, want + 1)
                if got == want + 1:
                    assert abs(blocks * factor - got) <= 1e-9 * got


class TestGeometryScaling:
    def test_scaled_geometry_uses_round_to_nearest_floor(self):
        geometry = FlashGeometry(blocks_per_plane=1000)
        assert geometry.scaled(0.007).blocks_per_plane == 7
        assert geometry.scaled(0.0072).blocks_per_plane == 7
        assert geometry.scaled(0.01).blocks_per_plane == 10

    def test_scaled_never_drops_to_zero_blocks(self):
        geometry = FlashGeometry(blocks_per_plane=1000)
        assert geometry.scaled(1e-6).blocks_per_plane == 1


class TestPrefillRoundTrip:
    @pytest.mark.parametrize("kind", ("conventional", "dftl", "hybrid"))
    def test_full_prefill_fills_exactly_user_pages(self, kind):
        device = build_device(kind, Simulator(), capacity_scale=0.007)
        written = device.prefill(1.0)
        assert written == device.user_pages

    def test_sdf_full_prefill_fills_every_logical_block(self):
        device = build_device(
            "sdf", Simulator(), capacity_scale=0.007, n_channels=4
        )
        written = device.prefill(1.0)
        assert written == sum(ftl.n_logical_blocks for ftl in device.ftls)
        assert written * device.ftls[0].logical_block_bytes == device.user_bytes

    def test_zoned_full_prefill_fills_every_zone(self):
        device = build_device(
            "zoned", Simulator(), capacity_scale=0.007, n_channels=4
        )
        written = device.prefill(1.0)
        assert written == device.n_zones
        assert all(device.zone_is_full(z) for z in range(device.n_zones))

    def test_awkward_capacity_factor_keeps_extent_math_consistent(self):
        """The original failure mode: a capacity factor whose float
        product truncates low made ``user_pages`` disagree with what
        prefill could actually write."""
        # 8 of the Gen3's 44 channels (6 data + 2 parity): the extent
        # math is per channel, the prefill cost is per page.
        spec = replace(HUAWEI_GEN3_SPEC, n_channels=8, parity_group_size=4)
        for factor in (0.007, 0.009, 0.011, 0.013, 0.021):
            device = build_device(
                "conventional", Simulator(), spec=spec, capacity_scale=factor
            )
            assert device.prefill(1.0) == device.user_pages
            # And the half-fill is the floor of the same product.
            device2 = build_device(
                "conventional", Simulator(), spec=spec, capacity_scale=factor
            )
            assert device2.prefill(0.5) == scaled_count(
                device2.user_pages * 0.5
            )
