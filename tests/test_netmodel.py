"""Network model tests: per-unit conversion, serialization, validation."""

import dataclasses
import json

import numpy as np
import pytest

from vudlmp import bundled_network
from vudlmp.netmodel import (
    BusSpec,
    GenSpec,
    LineSpec,
    LoadSpec,
    NetworkSpec,
    ParseError,
    UnbalanceConfig,
    ValidationError,
    impedance_base,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from conftest import make_two_bus


class TestPerUnit:
    def test_nonpositive_base_rejected(self):
        with pytest.raises(ValueError):
            impedance_base(0.0, 230.0)

    def test_impedance_base_value(self):
        # 230 V line-to-neutral, 50 kVA per phase -> 1.058 ohm
        assert impedance_base(50.0, 230.0) == pytest.approx(230.0**2 / 50e3)


class TestSerialization:
    def test_dict_round_trip(self, two_bus):
        doc = network_to_dict(two_bus)
        again = network_from_dict(doc)
        doc2 = network_to_dict(again)
        assert doc2["buses"] == doc["buses"]
        assert doc2["gens"] == doc["gens"]
        assert doc2["unbalance"] == doc["unbalance"]
        for l2, l1 in zip(doc2["lines"], doc["lines"]):
            assert np.allclose(l2["z_real"], l1["z_real"], rtol=1e-14)
            assert np.allclose(l2["z_imag"], l1["z_imag"], rtol=1e-14)
        for d2, d1 in zip(doc2["loads"], doc["loads"]):
            assert np.allclose(d2["p"], d1["p"], rtol=1e-14)
            assert np.allclose(d2["q"], d1["q"], rtol=1e-14)

    def test_file_round_trip(self, two_bus, tmp_path):
        path = tmp_path / "net.json"
        save_network(two_bus, path)
        again = load_network(path)
        assert np.allclose(again.lines[0].z, two_bus.lines[0].z, rtol=1e-12)
        assert np.allclose(again.demand_pu(), two_bus.demand_pu(), rtol=1e-12)
        assert again.substation_bus == two_bus.substation_bus

    def test_si_values_convert_to_per_unit(self, tmp_path):
        doc = network_to_dict(make_two_bus())
        doc["loads"][0]["p"] = [25.0, 5.0, 10.0]    # kW on a 50 kVA base
        net = network_from_dict(doc)
        assert np.allclose(net.loads[0].p, [0.5, 0.1, 0.2], rtol=1e-12)

    def test_malformed_json_raises_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_network(path)

    def test_missing_required_field(self):
        doc = network_to_dict(make_two_bus())
        del doc["lines"][0]["z_real"]
        with pytest.raises(ParseError):
            network_from_dict(doc)

    def test_substation_inferred_from_generator(self):
        doc = network_to_dict(make_two_bus())
        del doc["substation_bus"]
        net = network_from_dict(doc)
        assert net.substation_bus == "sub"


class TestValidation:
    def test_bus_bounds_must_be_ordered(self):
        with pytest.raises(ValidationError):
            BusSpec("x", vmin=1.1, vmax=0.9)

    def test_bus_id_with_carriage_return_rejected(self):
        with pytest.raises(ValidationError, match="carriage return"):
            BusSpec("r\rs")

    def test_line_impedance_shape_and_symmetry(self):
        with pytest.raises(ParseError):
            LineSpec("a", "b", np.eye(2, dtype=complex), 1.0)
        z = np.eye(3, dtype=complex) * (0.1 + 0.1j)
        z[0, 1] = 0.05
        with pytest.raises(ValidationError):
            LineSpec("a", "b", z, 1.0)

    def test_line_needs_positive_resistance_and_rating(self):
        z = np.eye(3, dtype=complex) * 1j
        with pytest.raises(ValidationError):
            LineSpec("a", "b", z, 1.0)
        z = np.eye(3, dtype=complex) * (0.1 + 0.1j)
        with pytest.raises(ValidationError):
            LineSpec("a", "b", z, 0.0)

    def test_line_checks_agree_with_numpy(self):
        # the Python-scalar checks accept and reject exactly as the numpy
        # predicates do, with the same message
        def numpy_verdict(z):
            if not np.all(np.isfinite(z)):
                return "non-finite impedance"
            if not np.allclose(z, z.T, rtol=1e-9, atol=1e-12):
                return "impedance matrix not symmetric"
            if np.any(np.real(np.diag(z)) <= 0):
                return "diagonal resistance must be positive"
            return None

        rng = np.random.default_rng(11)
        verdicts = []
        for k in range(3000):
            scale = 10.0 ** rng.uniform(-13, 1)
            z = scale * (rng.uniform(0.1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3)))
            z = z + z.T
            r, c = rng.choice(3, 2, replace=False)
            # move one entry off its twin by about the tolerance
            z[r, c] += (rng.choice((-1, 1)) * abs(z[c, r]) * 10.0 ** rng.uniform(-11, -8)
                        + rng.choice((-1, 1, 1j)) * 10.0 ** rng.uniform(-13, -11))
            if k % 5 == 1:
                z[rng.integers(3), rng.integers(3)] = rng.choice(
                    (np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1)))
            if k % 7 == 2:
                d = rng.integers(3)
                z[d, d] = complex(rng.choice((0.0, -0.0, -scale)), z[d, d].imag)
            want = numpy_verdict(z)
            verdicts.append(want)
            try:
                LineSpec("a", "b", z, 1.0)
                got = None
            except ValidationError as exc:
                got = str(exc)
            assert got == (want and f"line a-b: {want}"), (z, got, want)
        assert len(set(verdicts)) == 4

    def test_singular_impedance_rejected_at_load(self):
        doc = network_to_dict(make_two_bus())
        doc["lines"][0]["z_real"] = np.full((3, 3), 0.2).tolist()
        doc["lines"][0]["z_imag"] = np.full((3, 3), 0.1).tolist()
        with pytest.raises(ValidationError, match="singular"):
            network_from_dict(doc)

    def test_gen_empty_box_rejected(self):
        with pytest.raises(ValidationError):
            GenSpec("b", ("a",), pmin=np.ones(3), pmax=np.zeros(3),
                    qmin=np.zeros(3), qmax=np.zeros(3), marginal_cost=1.0)

    @pytest.mark.parametrize("field, value", [("cost", float("nan")),
                                              ("pmax", [float("nan"), 1.0, 1.0])],
                             ids=["nan-cost", "nan-pmax"])
    def test_gen_non_finite_value_rejected(self, field, value):
        doc = network_to_dict(make_two_bus())
        doc["gens"][0][field] = value
        with pytest.raises(ValidationError, match="non-finite"):
            network_from_dict(doc)

    def test_gen_unknown_phase_rejected(self):
        with pytest.raises(ValidationError):
            GenSpec("b", ("d",), pmin=np.zeros(3), pmax=np.ones(3),
                    qmin=np.zeros(3), qmax=np.zeros(3), marginal_cost=1.0)

    def test_unknown_unbalance_mode(self):
        with pytest.raises(ValidationError):
            UnbalanceConfig(mode="strict")

    def test_hard_mode_needs_positive_limit(self):
        with pytest.raises(ValidationError):
            UnbalanceConfig(mode="hard", vuf_limit_pct=0.0)

    def test_unbalance_subset_lists_each_bus_once(self):
        # each VUF bus owns one penalty term or one limit row
        with pytest.raises(ValidationError, match="twice"):
            UnbalanceConfig(mode="soft", penalty_weight=1.0, buses=("b4", "b4"))

    def test_duplicate_bus_ids(self):
        doc = network_to_dict(make_two_bus())
        doc["buses"].append({"id": "load", "vmin": 0.9, "vmax": 1.1})
        with pytest.raises(ValidationError):
            network_from_dict(doc)

    def test_line_to_unknown_bus(self):
        doc = network_to_dict(make_two_bus())
        doc["lines"][0]["to"] = "ghost"
        with pytest.raises(ValidationError):
            network_from_dict(doc)

    def test_disconnected_bus(self):
        doc = network_to_dict(make_two_bus())
        doc["buses"].append({"id": "island", "vmin": 0.9, "vmax": 1.1})
        with pytest.raises(ValidationError):
            network_from_dict(doc)

    def test_exactly_one_substation_generator(self):
        doc = network_to_dict(make_two_bus())
        doc["gens"][0]["is_substation"] = False
        with pytest.raises(ValidationError):
            network_from_dict(doc)

    def test_unbalance_subset_must_reference_known_buses(self):
        doc = network_to_dict(make_two_bus())
        doc["unbalance"]["buses"] = ["nope"]
        with pytest.raises(ValidationError):
            network_from_dict(doc)


class TestConvenience:
    def test_bus_index_and_unknown_bus(self, two_bus):
        assert two_bus.bus_index("load") == 1
        with pytest.raises(KeyError):
            two_bus.bus_index("ghost")

    def test_demand_aggregates_multiple_loads(self, two_bus):
        extra = two_bus.with_extra_load("load", "a", dp=0.1, dq=0.05)
        d0 = two_bus.demand_pu()
        d1 = extra.demand_pu()
        assert d1[1, 0] - d0[1, 0] == pytest.approx(0.1 + 0.05j)
        assert np.allclose(np.delete(d1.reshape(-1), 3), np.delete(d0.reshape(-1), 3))

    def test_vuf_subset_defaults_to_non_slack(self, two_bus):
        assert two_bus.vuf_bus_subset == ["load"]

    @staticmethod
    def loop_ybus(net):
        """The nodal admittance matrix as a dense loop over the lines adds it up."""
        n = len(net.buses)
        y = np.zeros((n, 3, n, 3), dtype=complex)
        for i, j, yl in zip(net.line_from, net.line_to, net.line_y):
            y[i, :, i] += yl
            y[j, :, j] += yl
            y[i, :, j] -= yl
            y[j, :, i] -= yl
        return y.reshape(3 * n, 3 * n)

    @pytest.mark.parametrize("case", ["simple5", "eulv117", "parallel", "diagonal"])
    def test_csr_ybus_equals_the_line_loop(self, case):
        two_bus = make_two_bus()
        z = two_bus.lines[0].z
        if case == "parallel":      # two lines between one bus pair, one reversed
            net = dataclasses.replace(two_bus, lines=(
                two_bus.lines[0], LineSpec("load", "sub", 1.7 * z + 0.003, 2.0)))
        elif case == "diagonal":    # its admittance has exact zeros
            net = dataclasses.replace(two_bus, lines=(
                LineSpec("sub", "load", np.diag(np.diag(z)), 2.0),))
        else:
            net = load_network(bundled_network(case))
        ref = self.loop_ybus(net)
        ybus = net.ybus_csr
        assert ybus.format == "csr"
        assert ybus.toarray().tobytes() == ref.tobytes()
        assert np.all(ybus.data != 0)
        coo = ybus.tocoo()
        assert len(set(zip(coo.row, coo.col))) == ybus.nnz
        assert not any(a.flags.writeable for a in (ybus.data, ybus.indices, ybus.indptr))
        assert net.ybus.tobytes() == ref.tobytes()
        assert not net.ybus.flags.writeable

    def test_bundled_networks_load(self, simple5, eulv117):
        assert len(simple5.buses) == 6
        assert len(eulv117.buses) == 117
        assert simple5.substation_bus == "sub"
        assert sum(g.is_substation for g in eulv117.gens) == 1
