import functools

import pytest
from hypothesis import given, settings, strategies as st

from c4quartic._scan_py import _route, _scan_cells, _scan_gaussian, _scan_triples
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

ROUTES = [_scan_gaussian, _scan_triples, _scan_cells]

# the witness boxes of test_scaled_witness and test_large_b_single_cell
SCALED_WITNESS = (5 * 400_003, 5 * 400_003, 5 * 400_003**2, 5 * 400_003**2)
LARGE_B_CELL = (5 * ((1 << 40) + 1), 5 * ((1 << 40) + 1), 1, 2)

coeffs = st.integers(min_value=-200, max_value=200)

brute = functools.cache(scan_c4_bruteforce)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("box", EXHAUSTIVE_BOXES)
    def test_exhaustive_boxes(self, box):
        assert scan_c4_candidates(*box) == brute(*box)

    @pytest.mark.parametrize("route", ROUTES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("box", EXHAUSTIVE_BOXES)
    def test_each_route_on_exhaustive_boxes(self, box, route):
        assert route(*box) == brute(*box)

    @given(coeffs, coeffs, coeffs, coeffs)
    @settings(max_examples=300)
    def test_random_boxes(self, b1, b2, d1, d2):
        box = (min(b1, b2), max(b1, b2), min(d1, d2), max(d1, d2))
        expected = scan_c4_bruteforce(*box)
        assert scan_c4_candidates(*box) == expected
        for route in ROUTES:
            assert route(*box) == expected

    @pytest.mark.parametrize(
        "box, cells",
        [
            ((10**9, 10**9 + 10, 1, 10**4), []),
            # b = 5*F_41, d = 5: e = 25*F_41^2 - 20 = 5*L_41^2 (Fibonacci, Lucas)
            ((827900700, 827900710, 1, 10**4), [(827900705, 5)]),
        ],
    )
    def test_far_strip(self, box, cells):
        assert _route(*box) is _scan_triples
        assert scan_c4_candidates(*box) == scan_c4_bruteforce(*box) == cells

    def test_matches_classifier_small_box(self):
        expected = [
            (b, d)
            for b in range(-15, 16)
            for d in range(-20, 21)
            if is_c4(Trinomial(b, d))
        ]
        assert scan_c4_candidates(-15, 15, -20, 20) == expected


class TestRouteChoice:
    @pytest.mark.parametrize(
        "box",
        [
            (-300, 300, 1, 30000),  # the theorem box
            (-10**4, 10**4, 1, 10**6),
            (10**5, 10**5 + 10, 1, 10**6),
            (10**6, 10**6 + 10, 1, 10**7),
            # both walks take about 2 ms here
            (1000, 1100, 10**5, 12 * 10**4),
        ],
    )
    def test_gaussian_route(self, box):
        assert _route(*box) is _scan_gaussian

    @pytest.mark.parametrize("box", [(10**12, 10**12 + 10, 1, 10**6), LARGE_B_CELL])
    def test_triples_route(self, box):
        # the Gaussian walk visits about max|b|*log S pairs (sigma, q) whatever
        # the box's width, 10^12 and more here; the triples walk takes 1 s on
        # the first box's 1.1*10^7 cells, and one u on the second's d <= 2
        assert _route(*box) is _scan_triples

    @pytest.mark.parametrize(
        "box", [(10**12, 10**12 + 10, 10**12, 10**12 + 10), SCALED_WITNESS]
    )
    def test_cells_route(self, box):
        # both walks visit every u <= sqrt(d_max): 10^6 of them on the 11x11
        # box at 10^12, 894k on the one cell of the scaled witness
        assert _route(*box) is _scan_cells
        assert scan_c4_candidates(*box) == scan_c4_bruteforce(*box)


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

    @pytest.mark.parametrize("route", ROUTES, ids=lambda f: f.__name__)
    def test_non_squarefree_norm_repeats_a_listed_cell(self, route):
        # sigma = 11 + 2i = (2 + i)^3 has norm 125; with q = 1 it gives
        # (X, Y) = (11, 2), so (v, 2u) = (11, 2) and the cell (125, 125),
        # which s = 5 reaches as (s, u, w) = (5, 5, 25)
        assert route(125, 125, 125, 125) == [(125, 125)]

    def test_active_backend_name(self):
        assert active_backend() == "pure"


class TestTheoremBox:
    def test_verify_theorem_1000_100000(self):
        assert verify_theorem(1000, 100000).passed

    def test_candidate_count_1000_100000(self):
        # the brute-force oracle gives the same 4474 cells in about 40 s
        assert len(scan_c4_candidates(-1000, 1000, 1, 100000)) == 4474

    def test_verify_theorem_10000_1000000(self):
        assert verify_theorem(10**4, 10**6).passed

    def test_candidate_count_10000_1000000(self):
        assert len(scan_c4_candidates(-10**4, 10**4, 1, 10**6)) == 32674
