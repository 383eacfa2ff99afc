"""Tests for floorplanning and quadratic placement."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.netlist import make_design, map_design
from repro.place import (
    Floorplan,
    MacroRegion,
    QuadraticPlacer,
    assign_port_locations,
    make_floorplan,
    place_design,
    total_hpwl,
)
from repro.techlib import make_asap7_library


@pytest.fixture(scope="module")
def asap():
    return make_asap7_library()


@pytest.fixture(scope="module")
def placed(asap):
    nl = map_design(make_design("arm9"), asap)
    fp = place_design(nl, seed=3)
    return nl, fp


class TestFloorplan:
    def test_die_fits_cells(self, asap):
        nl = map_design(make_design("chacha"), asap)
        fp = make_floorplan(nl, utilization=0.65)
        assert fp.core_area * 1.01 >= nl.total_cell_area() / 0.65

    def test_rows_match_site(self, asap):
        nl = map_design(make_design("arm9"), asap)
        fp = make_floorplan(nl)
        assert fp.row_height == asap.site[1]
        assert fp.num_rows >= 1
        assert fp.height == pytest.approx(fp.num_rows * fp.row_height)

    def test_macros_inside_die(self, asap):
        nl = map_design(make_design("arm9"), asap)
        fp = make_floorplan(nl, n_macros=2, seed=5)
        assert len(fp.macros) == 2
        for m in fp.macros:
            assert 0 <= m.x and m.x + m.width <= fp.width + 1e-9
            assert 0 <= m.y and m.y + m.height <= fp.height + 1e-9

    def test_zero_macros(self, asap):
        nl = map_design(make_design("arm9"), asap)
        fp = make_floorplan(nl, n_macros=0)
        assert fp.macros == []

    def test_macro_region_contains(self):
        m = MacroRegion(1.0, 2.0, 3.0, 4.0)
        assert m.contains(2.0, 3.0)
        assert not m.contains(0.5, 3.0)
        assert m.area == 12.0

    def test_clamp(self):
        fp = Floorplan(10.0, 8.0, 1.0, 0.2)
        assert fp.clamp(-1.0, 20.0) == (0.0, 8.0)
        assert fp.clamp(5.0, 4.0) == (5.0, 4.0)


class TestPlacement:
    def test_all_cells_inside_die(self, placed):
        nl, fp = placed
        for cell in nl.cells.values():
            assert -1e-6 <= cell.x <= fp.width + 1e-6
            assert -1e-6 <= cell.y <= fp.height + 1e-6

    def test_cells_on_rows(self, placed):
        nl, fp = placed
        for cell in nl.cells.values():
            row = round(cell.y / fp.row_height - 0.5)
            assert cell.y == pytest.approx(fp.row_y(int(row)))

    def test_ports_on_boundary(self, placed):
        nl, fp = placed
        for port in nl.ports.values():
            on_edge = (
                abs(port.x) < 1e-6 or abs(port.x - fp.width) < 1e-6
                or abs(port.y) < 1e-6 or abs(port.y - fp.height) < 1e-6
            )
            assert on_edge, port.name

    def test_pins_follow_cells(self, placed):
        nl, _ = placed
        for cell in nl.cells.values():
            for pin in cell.pins.values():
                assert abs(pin.x - cell.x) < 0.5
                assert pin.y == pytest.approx(cell.y)

    def test_deterministic_given_seed(self, asap):
        a = map_design(make_design("linkruncca"), asap)
        b = map_design(make_design("linkruncca"), asap)
        place_design(a, seed=7)
        place_design(b, seed=7)
        for name in a.cells:
            assert a.cells[name].x == pytest.approx(b.cells[name].x)

    def test_placement_beats_random_hpwl(self, asap):
        """Quadratic placement should easily beat a random shuffle."""
        nl = map_design(make_design("chacha"), asap)
        fp = place_design(nl, seed=0)
        placed_hpwl = total_hpwl(nl)
        rng = np.random.default_rng(0)
        for cell in nl.cells.values():
            cell.x = rng.uniform(0, fp.width)
            cell.y = rng.uniform(0, fp.height)
            for pin in cell.pins.values():
                pin.x, pin.y = cell.x, cell.y
        random_hpwl = total_hpwl(nl)
        assert placed_hpwl < 0.8 * random_hpwl

    def test_connected_cells_are_near(self, placed):
        """Cells sharing a net should be much closer than the die size."""
        nl, fp = placed
        dists = []
        for net in nl.nets.values():
            if net.driver is None or net.driver.cell is None or net.is_clock:
                continue
            for sink in net.sinks:
                if sink.cell is not None:
                    dists.append(abs(net.driver.x - sink.x)
                                 + abs(net.driver.y - sink.y))
        assert np.mean(dists) < 0.5 * (fp.width + fp.height)

    def test_empty_netlist_places(self, asap):
        from repro.netlist import Netlist
        nl = Netlist("empty", asap)
        nl.add_port("a", "input")
        fp = make_floorplan(nl)
        from repro.place import QuadraticPlacer
        QuadraticPlacer(nl, fp).run()  # must not crash


def _lil_solve_quadratic(placer):
    """Reference: the clique-model solve with element-wise ``lil_matrix``
    writes, as the placer assembled its Laplacian before the triplet
    build."""
    n = len(placer.cells)
    lap = sp.lil_matrix((n, n))
    bx = np.zeros(n)
    by = np.zeros(n)
    anchor = 1e-6

    def spring(pin_a, pin_b, weight):
        ia = placer._index.get(pin_a.cell.name) if pin_a.cell else None
        ib = placer._index.get(pin_b.cell.name) if pin_b.cell else None
        if ia is None and ib is None:
            return
        if ia is not None and ib is not None:
            lap[ia, ia] += weight
            lap[ib, ib] += weight
            lap[ia, ib] -= weight
            lap[ib, ia] -= weight
        elif ia is not None:
            lap[ia, ia] += weight
            bx[ia] += weight * pin_b.x
            by[ia] += weight * pin_b.y
        else:
            lap[ib, ib] += weight
            bx[ib] += weight * pin_a.x
            by[ib] += weight * pin_a.y

    for net in placer.netlist.nets.values():
        pins = [p for p in net.pins if p is not None]
        if len(pins) < 2 or net.is_clock:
            continue
        weight = 1.0 / (len(pins) - 1)
        for i in range(len(pins)):
            for j in range(i + 1, len(pins)):
                spring(pins[i], pins[j], weight)

    fp = placer.floorplan
    for i in range(n):
        lap[i, i] += anchor
        bx[i] += anchor * fp.width / 2
        by[i] += anchor * fp.height / 2
    lap = lap.tocsr()
    x = spla.spsolve(lap, bx)
    y = spla.spsolve(lap, by)
    jitter = fp.site_width
    x = x + placer.rng.uniform(-jitter, jitter, size=n)
    y = y + placer.rng.uniform(-jitter, jitter, size=n)
    return x, y


class TestQuadraticSolve:
    @pytest.mark.parametrize("design", ["arm9", "chacha"])
    def test_matches_lil_reference_bitwise(self, asap, design):
        nl = map_design(make_design(design), asap)
        fp = make_floorplan(nl, seed=4)
        assign_port_locations(nl, fp)
        x, y = QuadraticPlacer(nl, fp, seed=4)._solve_quadratic()
        ref_x, ref_y = _lil_solve_quadratic(QuadraticPlacer(nl, fp, seed=4))
        assert np.array_equal(x, ref_x)
        assert np.array_equal(y, ref_y)
