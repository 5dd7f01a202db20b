import pytest
from hypothesis import given, settings, strategies as st

from c4quartic.scan import active_backend, scan_c4_candidates
from c4quartic.search import verify_theorem
from c4quartic.trinomial import Trinomial, is_c4

from oracles import scan_c4_bruteforce

EXHAUSTIVE_BOXES = [
    (-15, 15, -20, 20),
    (-60, 60, 1, 300),
    (-100, -90, -50, 50),
    (100, 220, -500, 9000),
    (1000, 1100, 100000, 120000),
    (0, 0, 1, 1),
    (5, 5, 5, 5),
]

coeffs = st.integers(min_value=-200, max_value=200)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("box", EXHAUSTIVE_BOXES)
    def test_exhaustive_boxes(self, box):
        assert scan_c4_candidates(*box) == scan_c4_bruteforce(*box)

    @given(coeffs, coeffs, coeffs, coeffs)
    @settings(max_examples=300)
    def test_random_boxes(self, b1, b2, d1, d2):
        box = (min(b1, b2), max(b1, b2), min(d1, d2), max(d1, d2))
        assert scan_c4_candidates(*box) == scan_c4_bruteforce(*box)

    def test_matches_classifier_small_box(self):
        expected = [
            (b, d)
            for b in range(-15, 16)
            for d in range(-20, 21)
            if is_c4(Trinomial(b, d))
        ]
        assert scan_c4_candidates(-15, 15, -20, 20) == expected


class TestScan:
    def test_known_hits(self):
        cells = scan_c4_candidates(-10, 10, 1, 25)
        for known in [(-5, 5), (-4, 2), (4, 2), (5, 5)]:
            assert known in cells

    def test_empty_region(self):
        # no d*(b^2-4d) in this box is a positive square
        assert scan_c4_candidates(-3, 3, 1, 2) == []

    def test_ordering(self):
        cells = scan_c4_candidates(-30, 30, 1, 100)
        assert cells == sorted(cells)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            scan_c4_candidates(5, 4, 1, 10)
        with pytest.raises(ValueError):
            scan_c4_candidates(1, 10, 5, 4)

    def test_scaled_witness(self):
        # scaled copy of (5, 5): (5k, 5k^2) is cyclic for any k != 0, since
        # d = e = 5k^2 is non-square with square product
        k = 400_003
        b, d = 5 * k, 5 * k * k
        assert scan_c4_candidates(b, b, d, d) == [(b, d)]

    def test_large_b_single_cell(self):
        b = 5 * ((1 << 40) + 1)
        assert scan_c4_candidates(b, b, 1, 2) == scan_c4_bruteforce(b, b, 1, 2)

    def test_a_cell_reached_from_two_s_is_listed_once(self):
        # (8, 8) comes from (s, u, w) = (2, 2, 4) and from the non-squarefree (8, 1, 1)
        assert scan_c4_candidates(8, 8, 8, 8) == [(8, 8)]

    def test_non_squarefree_s_add_no_cell_and_no_duplicate(self):
        box = (-60, 60, 1, 300)
        cells = scan_c4_candidates(*box)
        # hits through s = 8: (+-8, 8) from u = w = 1, (-24, 72) from (8, 3, -3)
        assert {(-8, 8), (8, 8), (-24, 72)} <= set(cells)
        assert len(set(cells)) == len(cells)
        assert cells == scan_c4_bruteforce(*box)

    def test_active_backend_name(self):
        assert active_backend() == "pure"


class TestTheoremBox:
    def test_verify_theorem_1000_100000(self):
        assert verify_theorem(1000, 100000).passed

    def test_candidate_count_1000_100000(self):
        # the brute-force oracle gives the same 4474 cells in about 40 s
        assert len(scan_c4_candidates(-1000, 1000, 1, 100000)) == 4474
