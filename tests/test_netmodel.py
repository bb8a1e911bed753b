"""Network model tests: per-unit conversion, serialization, validation."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from vudlmp import bundled_network
from vudlmp.netmodel import (
    BusSpec,
    CsrLayout,
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
    phase_index,
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

    def test_generator_rebuilds_the_bundled_files(self, tmp_path, monkeypatch):
        # scripts/make_networks.py builds both documents in memory from its
        # pinned impedance scales, byte for byte as bundled, and writes nothing
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_networks.py"
        monkeypatch.setattr(sys, "path", list(sys.path))    # the script extends it
        spec = importlib.util.spec_from_file_location("make_networks", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "OUT", tmp_path / "data")
        docs = module.documents()
        assert sorted(docs) == ["eulv117", "simple5"]
        for name, text in docs.items():
            assert text.encode() == bundled_network(name).read_bytes(), name
        assert not module.OUT.exists()


class TestValidation:
    def test_bus_bounds_must_be_ordered(self):
        two_bus = make_two_bus()
        with pytest.raises(ValidationError, match="bus load: requires 0 < vmin < vmax"):
            dataclasses.replace(two_bus, buses=(two_bus.buses[0],
                                                BusSpec("load", vmin=1.1, vmax=0.9)))

    def test_bus_id_with_carriage_return_rejected(self):
        two_bus = make_two_bus()
        with pytest.raises(ValidationError, match="carriage return"):
            dataclasses.replace(two_bus, buses=two_bus.buses + (BusSpec("r\rs"),))

    @staticmethod
    def with_line(z, s_rating=1.0, base=None):
        """The two-bus feeder with its one line's impedance and rating replaced."""
        return dataclasses.replace(base or make_two_bus(),
                                   lines=(LineSpec("sub", "load", z, s_rating),))

    def test_line_impedance_shape_and_symmetry(self):
        with pytest.raises(ParseError):
            LineSpec("a", "b", np.eye(2, dtype=complex), 1.0)
        z = np.eye(3, dtype=complex) * (0.1 + 0.1j)
        z[0, 1] = 0.05
        with pytest.raises(ValidationError, match="line sub-load: .* not symmetric"):
            self.with_line(z)

    def test_line_needs_positive_resistance_and_rating(self):
        with pytest.raises(ValidationError, match="line sub-load: diagonal resistance"):
            self.with_line(np.eye(3, dtype=complex) * 1j)
        with pytest.raises(ValidationError, match="line sub-load: s_rating .* got 0.0"):
            self.with_line(np.eye(3, dtype=complex) * (0.1 + 0.1j), 0.0)

    @pytest.mark.filterwarnings("error")
    def test_line_checks_agree_with_numpy(self):
        # the network's stacked checks accept and reject exactly as the numpy
        # predicates on the one line do, with the same message
        def numpy_verdict(z):
            if not np.all(np.isfinite(z)):
                return "non-finite impedance"
            if not np.allclose(z, z.T, rtol=1e-9, atol=1e-12):
                return "impedance matrix not symmetric"
            if np.any(np.real(np.diag(z)) <= 0):
                return "diagonal resistance must be positive"
            return None

        base = make_two_bus()
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
                self.with_line(z, base=base)
                got = None
            except ValidationError as exc:
                got = str(exc)
            assert got == (want and f"line sub-load: {want}"), (z, got, want)
        assert len(set(verdicts)) == 4

    @pytest.mark.parametrize("faults, named", [
        ({1: "asymmetric-and-resistance", 3: "non-finite"}, 1),
        ({0: "rating", 2: "non-finite", 4: "singular"}, 0),
        ({2: "singular", 4: "asymmetric-and-resistance"}, 4),
    ], ids=["two-faults-on-the-first", "rating-before-non-finite", "singular-named-last"])
    def test_first_faulty_line_is_named_with_its_first_fault(self, simple5, faults, named):
        z0 = simple5.lines[0].z
        bad = {"non-finite": (z0 + np.diag([0, np.nan, 0]), 1.0),
               "asymmetric-and-resistance": (z0 + np.triu(z0, 1) - 2 * np.diag(z0.real), 1.0),
               "rating": (z0, float("inf")),
               "singular": (np.full((3, 3), 0.2 + 0.1j), 1.0)}
        first = {"non-finite": "non-finite impedance",
                 "asymmetric-and-resistance": "impedance matrix not symmetric",
                 "rating": "s_rating must be finite and positive, got inf",
                 "singular": "impedance matrix is singular"}
        lines = list(simple5.lines)
        for k, kind in faults.items():
            lines[k] = dataclasses.replace(lines[k], z=bad[kind][0], s_rating=bad[kind][1])
        ln = lines[named]
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(simple5, lines=lines)
        assert str(info.value) == f"line {ln.from_bus}-{ln.to_bus}: {first[faults[named]]}"

    def test_lone_singular_line_is_named(self, eulv117):
        lines = list(eulv117.lines)
        k = len(lines) // 3
        lines[k] = dataclasses.replace(lines[k], z=np.full((3, 3), 0.2 + 0.1j))
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(eulv117, lines=lines)
        ln = lines[k]
        assert str(info.value) == f"line {ln.from_bus}-{ln.to_bus}: impedance matrix is singular"

    def test_singular_impedance_rejected_at_load(self):
        doc = network_to_dict(make_two_bus())
        doc["lines"][0]["z_real"] = np.full((3, 3), 0.2).tolist()
        doc["lines"][0]["z_imag"] = np.full((3, 3), 0.1).tolist()
        with pytest.raises(ValidationError, match="singular"):
            network_from_dict(doc)

    def test_gen_empty_box_rejected(self):
        two_bus = make_two_bus()
        with pytest.raises(ValidationError, match="generator at sub: empty output box"):
            dataclasses.replace(two_bus, gens=(      # its pmax is 4
                dataclasses.replace(two_bus.gens[0], pmin=np.full(3, 5.0)),))

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

    @pytest.mark.parametrize("fields, named", [
        (dict(mode="soft", penalty_weight="2"), "penalty_weight must be a finite number, got '2'"),
        (dict(mode="soft", penalty_weight=True), "penalty_weight must be a finite number, got True"),
        (dict(mode="hard", vuf_limit_pct=None), "vuf_limit_pct must be a finite number, got None"),
        (dict(mode="hard", vuf_limit_pct=float("nan")), "vuf_limit_pct must be a finite number"),
        (dict(buses="b4"), "buses must be a list of bus ids, got 'b4'"),
        (dict(buses=("b4", 5)), r"buses must be a list of bus ids, got \('b4', 5\)"),
    ])
    def test_unbalance_config_checks_types(self, fields, named):
        # as ScenarioConfig and SolverSettings do: a bool is not a weight and
        # a string is not a list of buses
        with pytest.raises(ValidationError, match=named):
            UnbalanceConfig(**fields)

    def test_unbalance_config_takes_numbers_and_bus_lists(self):
        cfg = UnbalanceConfig("soft", np.float64(0.5), 2, ["b4", "b5"])
        assert (cfg.penalty_weight, cfg.buses) == (2, ("b4", "b5"))

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


def change(kind, k, **changes):
    """An edit of the k-th record of ``kind``; a callable value takes the record."""
    def edit(f):
        r = f[kind][k]
        f[kind][k] = dataclasses.replace(
            r, **{name: v(r) if callable(v) else v for name, v in changes.items()})
    return edit


def setting(**changes):
    """An edit of network fields."""
    return lambda f: f.update(changes)


def add_bus(bus_id, joined_to="b5", **fields):
    """An edit adding a bus, joined to ``joined_to`` by a copy of line 0 if given."""
    def edit(f):
        f["buses"].append(BusSpec(bus_id, **fields))
        if joined_to:
            f["lines"].append(dataclasses.replace(f["lines"][0], from_bus=joined_to,
                                                  to_bus=bus_id))
    return edit


def build(net, *edits):
    """The network of ``net``'s records after ``edits``, checked once."""
    f = {fl.name: getattr(net, fl.name) for fl in dataclasses.fields(net)}
    for kind in ("buses", "lines", "loads", "gens"):
        f[kind] = list(f[kind])
    for edit in edits:
        edit(f)
    return NetworkSpec(**f)


NAN, INF = float("nan"), float("inf")

# one fault on simple5 (buses sub, b1..b5; lines sub-b1, b1-b2, b2-b3, b3-b4,
# b2-b5; loads at b2..b5; generators at sub (the substation), b3, b4, b2)
# and the exception message it raises
SINGLE_FAULTS = {
    "base-kva": (setting(base_kva=0.0),
                 "base_kva must be finite and positive, got 0.0"),
    "base-volt": (setting(base_volt_ln=NAN),
                  "base_volt_ln must be finite and positive, got nan"),
    "bus-cr": (add_bus("b\r6"),
               "bus 'b\\r6': an id may not hold a carriage return"),
    "bus-vmin-inf": (change("buses", 2, vmin=INF),
                     "bus b2: vmin must be finite, got inf"),
    "bus-vmin-nan": (change("buses", 2, vmin=NAN),
                     "bus b2: vmin must be finite, got nan"),
    "bus-vmax-inf": (change("buses", 4, vmax=-INF),
                     "bus b4: vmax must be finite, got -inf"),
    "bus-unordered": (change("buses", 2, vmin=1.2),
                      "bus b2: requires 0 < vmin < vmax, got vmin=1.2, vmax=1.1"),
    "bus-vmin-zero": (change("buses", 3, vmin=0.0),
                      "bus b3: requires 0 < vmin < vmax, got vmin=0.0, vmax=1.1"),
    "bus-duplicate": (add_bus("b3", joined_to=None),
                      "duplicate bus id 'b3'"),
    "substation-not-a-bus": (setting(substation_bus="ghost"),
                             "substation bus 'ghost' is not a bus"),
    "line-from-unknown": (change("lines", 2, from_bus="ghost"),
                          "line ghost-b3 references unknown bus 'ghost'"),
    "line-to-unknown": (change("lines", 3, to_bus="ghost"),
                        "line b3-ghost references unknown bus 'ghost'"),
    "line-self-loop": (change("lines", 4, to_bus="b2"),
                       "line b2-b2 is a self-loop"),
    "line-non-finite": (change("lines", 1, z=lambda r: r.z * INF),
                        "line b1-b2: non-finite impedance"),
    "line-rating": (change("lines", 1, s_rating=-1.0),
                    "line b1-b2: s_rating must be finite and positive, got -1.0"),
    "line-singular": (change("lines", 3, z=np.full((3, 3), 0.2 + 0.1j)),
                      "line b3-b4: impedance matrix is singular"),
    "load-unknown": (change("loads", 1, bus="ghost"),
                     "load references unknown bus 'ghost'"),
    "load-p-nan": (change("loads", 1, p=[0.1, NAN, 0.1]),
                   "load at b3: non-finite demand"),
    "load-q-inf": (change("loads", 3, q=[0.1, 0.1, -INF]),
                   "load at b5: non-finite demand"),
    "no-substation-gen": (change("gens", 0, is_substation=False),
                          "expected exactly one substation generator, found 0"),
    "two-substation-gens": (change("gens", 2, is_substation=True),
                            "expected exactly one substation generator, found 2"),
    "substation-gen-elsewhere": (change("gens", 0, bus="b1"),
                                 "substation generator sits at 'b1', expected 'sub'"),
    "substation-gen-unknown": (change("gens", 0, bus="ghost"),
                               "substation generator sits at 'ghost', expected 'sub'"),
    "gen-unknown": (change("gens", 1, bus="ghost"),
                    "generator references unknown bus 'ghost'"),
    "gen-pmin-nan": (change("gens", 1, pmin=[0.0, NAN, 0.0]),
                     "generator at b3: non-finite pmin"),
    "gen-pmax-inf": (change("gens", 1, pmax=[INF, 1.0, 1.0]),
                     "generator at b3: non-finite pmax"),
    "gen-qmin-inf": (change("gens", 2, qmin=[-1.0, -1.0, -INF]),
                     "generator at b4: non-finite qmin"),
    "gen-qmax-nan": (change("gens", 3, qmax=[NAN, 1.0, 1.0]),
                     "generator at b2: non-finite qmax"),
    "gen-empty-p-box": (change("gens", 1, pmin=lambda r: r.pmax + 1.0),
                        "generator at b3: empty output box (min > max)"),
    "gen-empty-q-box": (change("gens", 3, qmax=lambda r: r.qmin - 1e-3),
                        "generator at b2: empty output box (min > max)"),
    "gen-cost-nan": (change("gens", 1, marginal_cost=NAN),
                     "generator at b3: non-finite marginal cost"),
    "gen-cost-negative": (change("gens", 3, marginal_cost=-0.5),
                          "generator at b2: negative marginal cost"),
    "gen-unknown-phase": (change("gens", 2, phases=("a", "d")),
                          "generator at b4: unknown phase d"),
    "unbalance-unknown": (setting(unbalance=UnbalanceConfig("soft", 0.0, 1.0, ("b1", "ghost"))),
                          "unbalance subset references unknown bus 'ghost'"),
    "disconnected": (add_bus("island", joined_to=None),
                     "bus 'island' is not connected to the substation"),
}

# several faults on one simple5 network, in the order they are named: the
# first of the records of a kind at fault, with its first fault; kinds in
# the order buses, lines, loads, substation unit, generators, then the
# unbalance subset and connectivity
ORDERED_FAULTS = (
    (add_bus("b3", joined_to=None), "duplicate bus id 'b3'"),
    (add_bus("b7", vmin=1.2),
     "bus b7: requires 0 < vmin < vmax, got vmin=1.2, vmax=1.1"),
    (change("lines", 1, to_bus="ghost"),
     "line b1-ghost references unknown bus 'ghost'"),
    (change("lines", 2, z=lambda r: r.z * NAN, to_bus="b2"),
     "line b2-b2 is a self-loop"),
    (change("lines", 3, s_rating=0.0),
     "line b3-b4: s_rating must be finite and positive, got 0.0"),
    (change("lines", 0, z=np.full((3, 3), 0.2 + 0.1j)),
     "line sub-b1: impedance matrix is singular"),
    (change("loads", 2, bus="ghost", p=[NAN] * 3),
     "load references unknown bus 'ghost'"),
    (change("loads", 3, q=[INF] * 3), "load at b5: non-finite demand"),
    (change("gens", 0, is_substation=False),
     "expected exactly one substation generator, found 0"),
    (change("gens", 1, bus="ghost", marginal_cost=NAN),
     "generator references unknown bus 'ghost'"),
    (change("gens", 2, pmax=[1.0, NAN, 1.0], marginal_cost=-1.0),
     "generator at b4: non-finite pmax"),
    (change("gens", 3, marginal_cost=-1.0), "generator at b2: negative marginal cost"),
    (setting(unbalance=UnbalanceConfig(buses=("ghost",))),
     "unbalance subset references unknown bus 'ghost'"),
    (add_bus("island", joined_to=None),
     "bus 'island' is not connected to the substation"),
)


class TestOnePass:
    @pytest.mark.parametrize("fault", list(SINGLE_FAULTS))
    def test_one_fault_is_named(self, simple5, fault):
        edit, message = SINGLE_FAULTS[fault]
        with pytest.raises(ValidationError) as info:
            build(simple5, edit)
        assert type(info.value) is ValidationError and str(info.value) == message

    def test_faults_are_named_in_stack_order(self, simple5):
        # each fault is named while it and all later ones are present
        for k, (_, message) in enumerate(ORDERED_FAULTS):
            with pytest.raises(ValidationError) as info:
                build(simple5, *(edit for edit, _ in ORDERED_FAULTS[k:]))
            assert str(info.value) == message, k

    def test_compiled_arrays(self):
        two_bus = make_two_bus()
        solo = GenSpec("load", ("b",), pmin=[-1.0, 0.1, -2.0], pmax=[1.0, 0.5, 3.0],
                       qmin=[-0.5, -0.2, -0.5], qmax=[0.5, 0.2, 0.5], marginal_cost=0.7)
        extra = LoadSpec("load", p=[0.01, 0.02, -0.03], q=[0.004, 0.0, 0.006])
        net = dataclasses.replace(two_bus, loads=two_bus.loads + (extra,),
                                  gens=two_bus.gens + (solo,))
        names = ("bus_vmin", "bus_vmax", "line_from", "line_to", "line_y", "line_rating",
                 "demand", "gen_bus", "gen_box", "gen_cost")
        assert not any(getattr(net, name).flags.writeable for name in names)
        # the per-load loop the demand replaces, bit for bit
        loop = np.zeros((2, 3), dtype=complex)
        for ld in net.loads:
            loop[net.bus_index(ld.bus)] += ld.p + 1j * ld.q
        assert net.demand.tobytes() == loop.tobytes()
        assert net.demand_pu().tobytes() == loop.tobytes() and net.demand_pu().flags.writeable
        assert net.bus_ids == ("sub", "load")
        assert net.bus_vmin.tolist() == [0.9, 0.85] and net.bus_vmax.tolist() == [1.1, 1.1]
        assert (net.line_from.tolist(), net.line_to.tolist()) == ([0], [1])
        assert net.line_rating.tolist() == [2.0]
        assert net.gen_bus.tolist() == [0, 1] and net.gen_cost.tolist() == [1.0, 0.7]
        assert net.substation_gen == 0
        # pmin, pmax, qmin, qmax as given on owned phases, exactly 0 elsewhere
        assert net.gen_box.shape == (4, 2, 3)
        for b, name in enumerate(("pmin", "pmax", "qmin", "qmax")):
            assert net.gen_box[b, 0].tolist() == getattr(two_bus.gens[0], name).tolist()
            assert net.gen_box[b, 1].tolist() == [0.0, getattr(solo, name)[1], 0.0]


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

    @pytest.mark.parametrize("phase, index", [("a", 0), ("c", 2), (1, 1), (np.int64(2), 2)])
    def test_phase_index(self, phase, index):
        assert phase_index(phase) == index

    @pytest.mark.parametrize("phase", ["d", "A", -1, 3, True, 1.0, None])
    def test_unknown_phase_is_named(self, two_bus, phase):
        with pytest.raises(ValueError, match=f"unknown phase {phase!r}"):
            phase_index(phase)
        with pytest.raises(ValueError, match=f"unknown phase {phase!r}"):
            two_bus.with_extra_load("load", phase, dp=0.1)

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
        # the one stacked inverse equals each line's own, bit for bit
        assert len(net.line_y) == len(net.lines)
        for yl, ln in zip(net.line_y, net.lines):
            assert yl.tobytes() == np.linalg.inv(ln.z).tobytes()
        assert not net.line_y.flags.writeable

    def test_bundled_networks_load(self, simple5, eulv117):
        assert len(simple5.buses) == 6
        assert len(eulv117.buses) == 117
        assert simple5.substation_bus == "sub"
        assert sum(g.is_substation for g in eulv117.gens) == 1


class TestCsrLayout:
    """The one triplet-to-compressed step, against scipy's COO conversion."""

    @staticmethod
    def stream(seed, shape=(40, 30), n=600):
        """A seeded (row, col) stream of ``n`` pairs, many of them repeated."""
        rng = np.random.default_rng(seed)
        return rng.integers(0, shape[0], n), rng.integers(0, shape[1], n), shape

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pattern_equals_scipy_and_slots_map_every_pair(self, seed):
        rows, cols, shape = self.stream(seed)
        layout = CsrLayout(rows, cols, shape)
        ref = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=shape).tocsr()
        assert layout.nnz == ref.nnz < len(rows)
        for ours, theirs in ((layout.indices, ref.indices), (layout.indptr, ref.indptr)):
            assert ours.dtype == np.int32
            assert np.array_equal(ours, theirs)
        assert np.array_equal(layout.rows, np.repeat(np.arange(shape[0]), np.diff(ref.indptr)))
        # every pair lands on its own entry, and summing onto the slots
        # gives scipy's sum of the duplicates
        assert np.array_equal(layout.rows[layout.slots], rows)
        assert np.array_equal(layout.indices[layout.slots], cols)
        values = np.random.default_rng(seed).standard_normal(len(rows))
        summed = np.zeros(layout.nnz)
        np.add.at(summed, layout.slots, values)
        ref = sp.coo_matrix((values, (rows, cols)), shape=shape).tocsr()
        assert np.allclose(summed, ref.data, rtol=1e-14, atol=1e-14)

    def test_csc_pattern_is_the_layout_of_the_transpose(self):
        rows, cols, shape = self.stream(3)
        layout = CsrLayout(cols, rows, shape[::-1])
        ref = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=shape).tocsc()
        assert np.array_equal(layout.indices, ref.indices)
        assert np.array_equal(layout.indptr, ref.indptr)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_matrix_keeps_the_entries_selected(self, seed):
        rows, cols, shape = self.stream(seed)
        layout = CsrLayout(rows, cols, shape)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(layout.nnz)
        keep = rng.random(layout.nnz) < 0.6
        full = layout.matrix(values)
        assert full.format == "csr" and full.shape == shape
        dense = np.zeros(shape)
        dense[layout.rows, layout.indices] = values
        assert full.toarray().tobytes() == dense.tobytes()
        kept = layout.matrix(values, keep)
        assert kept.nnz == np.count_nonzero(keep)
        assert kept.has_sorted_indices
        dense_kept = np.zeros(shape)
        dense_kept[layout.rows[keep], layout.indices[keep]] = values[keep]
        assert kept.toarray().tobytes() == dense_kept.tobytes()
        # each matrix owns its arrays: writing to one leaves the layout as it is
        before = layout.indices.copy()
        for m in (full, kept):
            m.indices[:] = 0
            m.data[:] = 0.0
        assert np.array_equal(layout.indices, before)
