"""Three-phase network data model, per-unit normalization and JSON ingestion.

All electrical quantities are stored in per-unit internally.  The JSON
network files carry SI units (kW, kvar, kVA, ohm, volt); conversion happens
once at load time.  Bases are per-phase: ``base_kva`` is the per-phase
apparent-power base and ``base_volt_ln`` the line-to-neutral voltage base.

The records (:class:`BusSpec`, :class:`LineSpec`, :class:`LoadSpec`,
:class:`GenSpec`) coerce their fields and check their shapes only.  A
:class:`NetworkSpec` checks every record in one pass, over one stack per
record kind, and compiles the read-only arrays the power flow and the OPF
read; the line impedances are inverted as one stack.  On first use it
sums their 3x3 blocks into the CSR nodal admittance matrix
(:attr:`NetworkSpec.ybus_csr`) on a :class:`CsrLayout`, the one class that
lays out every fixed sparse pattern from (row, column) pairs, as Davis's
``cs_compress`` does (*Direct Methods for Sparse Linear Systems*, 2006).
Its dense form (:attr:`NetworkSpec.ybus`) is made from the CSR matrix only
when asked for; the power flow asks for it on small networks only.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

PHASES = ("a", "b", "c")
NPHASE = 3
_GEN_BOX = ("pmin", "pmax", "qmin", "qmax")

DEFAULT_VMIN = 0.9
DEFAULT_VMAX = 1.1


class NetworkError(Exception):
    """Base class for network ingestion problems."""


class ParseError(NetworkError):
    """Malformed network file (bad JSON, missing keys, wrong shapes)."""


class ValidationError(NetworkError):
    """Structurally parseable file that violates a model invariant."""


def is_number(value, integral=False):
    """Whether a value from an untyped JSON document (``"1e-6"``, ``1.5``,
    ``true``) is a real number, or with ``integral`` an integer; a bool is
    neither."""
    kind = numbers.Integral if integral else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def phase_index(phase):
    """Index of a phase given by name (``"a"``, ``"b"``, ``"c"``) or by index
    (0, 1, 2); ValueError naming the input otherwise."""
    if isinstance(phase, str) and phase in PHASES:
        return PHASES.index(phase)
    if is_number(phase, integral=True) and 0 <= phase < NPHASE:
        return int(phase)
    raise ValueError(f"unknown phase {phase!r}: expected one of {PHASES} or 0, 1, 2")


def impedance_base(base_kva, base_volt_ln):
    """Ohm base for a per-phase kVA base and line-to-neutral voltage base."""
    if base_kva <= 0 or base_volt_ln <= 0:
        raise ValueError("nonpositive base")
    return base_volt_ln**2 / (base_kva * 1e3)


def _readonly(a):
    a = np.asarray(a)
    a.flags.writeable = False
    return a


class CsrLayout:
    """A fixed CSR pattern of a ``shape`` matrix; a matrix on it is one value
    per entry, in canonical order (rows ascending, columns ascending).  A CSC
    pattern is the layout of the transpose: the columns given as ``rows`` and
    the rows as ``cols``, so that ``indices`` and ``indptr`` are CSC's."""

    def __init__(self, rows, cols, shape):
        """The pattern of the (row, col) pairs given; ``slots`` holds each
        pair's entry."""
        key = rows.astype(np.int64) * shape[1] + cols
        order = np.argsort(key)
        key = key[order]
        first = np.diff(key, prepend=-1) != 0
        self.slots = np.empty(len(key), dtype=np.int64)
        self.slots[order] = np.cumsum(first) - 1
        key = key[first]
        self.shape = shape
        self.rows = key // shape[1]
        self.indices = (key % shape[1]).astype(np.int32)
        self.indptr = np.searchsorted(self.rows, np.arange(shape[0] + 1)).astype(np.int32)

    @property
    def nnz(self):
        return len(self.indices)

    def matrix(self, values, keep=None):
        """``csr_matrix`` of ``values``, only of the entries ``keep`` selects
        if given; it owns its arrays."""
        if keep is None:
            return sp.csr_matrix((values.copy(), self.indices.copy(), self.indptr.copy()),
                                 shape=self.shape)
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.rows[keep], minlength=self.shape[0]), out=indptr[1:])
        return sp.csr_matrix((values[keep], self.indices[keep], indptr), shape=self.shape)


@dataclass(frozen=True)
class BusSpec:
    """One bus; its network checks the id and the voltage bounds."""
    id: str
    vmin: float = DEFAULT_VMIN
    vmax: float = DEFAULT_VMAX


@dataclass(frozen=True)
class LineSpec:
    """One three-phase series line; its network checks and inverts ``z``."""
    from_bus: str
    to_bus: str
    z: np.ndarray          # 3x3 complex series impedance, per-unit
    s_rating: float        # per-phase apparent-power limit, per-unit

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.shape != (NPHASE, NPHASE):
            raise ParseError(f"line {self.from_bus}-{self.to_bus}: impedance must be 3x3")
        object.__setattr__(self, "z", _readonly(z))

    @property
    def y(self):
        """3x3 series admittance (inverse of the phase impedance matrix)."""
        return np.linalg.inv(self.z)


@dataclass(frozen=True)
class LoadSpec:
    """One three-phase load; its network checks the bus and the demand."""
    bus: str
    p: np.ndarray          # per-phase active demand, per-unit
    q: np.ndarray          # per-phase reactive demand, per-unit

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if p.shape != (NPHASE,) or q.shape != (NPHASE,):
            raise ParseError(f"load at {self.bus}: p and q must have 3 entries")
        object.__setattr__(self, "p", _readonly(p))
        object.__setattr__(self, "q", _readonly(q))


@dataclass(frozen=True)
class GenSpec:
    """One generator; its network checks the bus, the box and the cost, and
    pins the box to 0 on the phases the unit does not own
    (:attr:`NetworkSpec.gen_box`)."""
    bus: str
    phases: tuple          # subset of PHASES the unit can inject on
    pmin: np.ndarray       # per-phase bounds, per-unit, as given on all three phases
    pmax: np.ndarray
    qmin: np.ndarray
    qmax: np.ndarray
    marginal_cost: float   # EUR per kWh
    is_substation: bool = False

    def __post_init__(self):
        for name in _GEN_BOX:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (NPHASE,):
                raise ParseError(f"generator at {self.bus}: {name} must have 3 entries")
            object.__setattr__(self, name, _readonly(arr))
        bad = [p for p in self.phases if p not in PHASES]
        if bad:
            raise ValidationError(f"generator at {self.bus}: unknown phase {bad[0]}")
        object.__setattr__(self, "phases", tuple(self.phases))


UNBALANCE_MODES = ("none", "hard", "soft")


@dataclass(frozen=True)
class UnbalanceConfig:
    mode: str = "none"               # none | hard | soft
    vuf_limit_pct: float = 0.0       # hard mode: VUF bound in percent
    penalty_weight: float = 0.0      # soft mode: EUR/h per squared-percent of VUF
    buses: tuple = ()                # bus subset the term applies to; () = all non-slack

    def __post_init__(self):
        if self.mode not in UNBALANCE_MODES:
            raise ValidationError(f"unknown unbalance mode {self.mode!r}")
        for name in ("vuf_limit_pct", "penalty_weight"):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value)):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if not (isinstance(self.buses, (list, tuple))
                and all(isinstance(bus, str) for bus in self.buses)):
            raise ValidationError(f"buses must be a list of bus ids, got {self.buses!r}")
        if self.mode == "hard" and not self.vuf_limit_pct > 0:
            raise ValidationError("hard mode requires vuf_limit_pct > 0")
        if self.mode == "soft" and self.penalty_weight < 0:
            raise ValidationError("soft mode requires penalty_weight >= 0")
        if len(set(self.buses)) != len(self.buses):
            raise ValidationError(f"unbalance subset lists a bus twice: {self.buses}")
        object.__setattr__(self, "buses", tuple(self.buses))


@dataclass(frozen=True)
class NetworkSpec:
    """Validated network and its compiled, read-only array view.

    One pass checks the records, buses, then lines, loads and generators,
    one stack per kind, and compiles ``bus_ids``, ``bus_vmin``,
    ``bus_vmax``; ``line_from``/``line_to`` (bus indices), ``line_y`` (the
    (nline, 3, 3) series admittances from one stacked inverse),
    ``line_rating``; ``demand`` ((nbus, 3) P + jQ, summed in load order);
    ``gen_bus``, ``gen_box`` ((4, ngen, 3) pmin, pmax, qmin, qmax, 0 on the
    phases a unit does not own), ``gen_cost`` and ``substation_gen`` (the
    substation unit's index).  ``ybus_csr`` is the nodal admittance matrix,
    assembled on first use, and ``ybus`` its dense form.
    """
    base_kva: float
    base_volt_ln: float
    buses: tuple
    lines: tuple
    loads: tuple
    gens: tuple
    substation_bus: str
    unbalance: UnbalanceConfig = field(default_factory=UnbalanceConfig)

    def __post_init__(self):
        for name in ("buses", "lines", "loads", "gens"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        buses, lines, loads, gens = self.buses, self.lines, self.loads, self.gens
        _check_bases(self.base_kva, self.base_volt_ln)
        ids = tuple(b.id for b in buses)
        pos = {i: k for k, i in reversed(list(enumerate(ids)))}     # an id's first bus

        def index(names):       # bus index of each name, -1 if it names no bus
            return _readonly(np.array([pos.get(name, -1) for name in names], dtype=int))

        def stack(records, name, *shape, dtype=float):
            return _readonly(np.array([getattr(r, name) for r in records],
                                      dtype=dtype).reshape(-1, *shape))

        vmin, vmax = stack(buses, "vmin"), stack(buses, "vmax")
        _raise_first_fault(
            buses,
            # csv leaves a carriage return unquoted, so it would split a row
            (["\r" in i for i in ids], "bus {r.id!r}: an id may not hold a carriage return"),
            (~np.isfinite(vmin), "bus {r.id}: vmin must be finite, got {r.vmin}"),
            (~np.isfinite(vmax), "bus {r.id}: vmax must be finite, got {r.vmax}"),
            (~((0.0 < vmin) & (vmin < vmax)),
             "bus {r.id}: requires 0 < vmin < vmax, got vmin={r.vmin}, vmax={r.vmax}"),
            (index(ids) != np.arange(len(ids)), "duplicate bus id {r.id!r}"))
        if self.substation_bus not in pos:
            raise ValidationError(f"substation bus {self.substation_bus!r} is not a bus")

        line_from, line_to = index(ln.from_bus for ln in lines), index(ln.to_bus for ln in lines)
        z, rating = stack(lines, "z", NPHASE, NPHASE, dtype=complex), stack(lines, "s_rating")
        line = "line {r.from_bus}-{r.to_bus}"
        _raise_first_fault(
            lines,
            (line_from < 0, line + " references unknown bus {r.from_bus!r}"),
            (line_to < 0, line + " references unknown bus {r.to_bus!r}"),
            (line_from == line_to, line + " is a self-loop"),
            (~np.isfinite(z).all(axis=(1, 2)), line + ": non-finite impedance"),
            (~np.isclose(z, z.transpose(0, 2, 1), rtol=1e-9, atol=1e-12).all(axis=(1, 2)),
             line + ": impedance matrix not symmetric"),
            (~(np.diagonal(z, axis1=1, axis2=2).real > 0).all(axis=1),
             line + ": diagonal resistance must be positive"),
            (~(np.isfinite(rating) & (rating > 0)),
             line + ": s_rating must be finite and positive, got {r.s_rating}"))
        # only if no line has another fault: a zero pivot in np.linalg.inv's LU
        _raise_first_fault(lines, (np.linalg.slogdet(z)[0] == 0,
                                   line + ": impedance matrix is singular"))

        load_bus = index(ld.bus for ld in loads)
        p, q = stack(loads, "p", NPHASE), stack(loads, "q", NPHASE)
        _raise_first_fault(
            loads,
            (load_bus < 0, "load references unknown bus {r.bus!r}"),
            (~(np.isfinite(p).all(axis=1) & np.isfinite(q).all(axis=1)),
             "load at {r.bus}: non-finite demand"))
        demand = np.zeros((len(buses), NPHASE), dtype=complex)
        np.add.at(demand, load_bus, p + 1j * q)

        subs = [k for k, g in enumerate(gens) if g.is_substation]
        if len(subs) != 1:
            raise ValidationError(f"expected exactly one substation generator, found {len(subs)}")
        if gens[subs[0]].bus != self.substation_bus:
            raise ValidationError(f"substation generator sits at {gens[subs[0]].bus!r}, "
                                  f"expected {self.substation_bus!r}")
        gen_bus, cost = index(g.bus for g in gens), stack(gens, "marginal_cost")
        box = np.array([stack(gens, name, NPHASE) for name in _GEN_BOX])
        gen = "generator at {r.bus}: "
        _raise_first_fault(
            gens,
            (gen_bus < 0, "generator references unknown bus {r.bus!r}"),
            *((~np.isfinite(b).all(axis=1), gen + "non-finite " + name)
              for b, name in zip(box, _GEN_BOX)),
            (((box[0] > box[1]) | (box[2] > box[3])).any(axis=1),
             gen + "empty output box (min > max)"),
            (~np.isfinite(cost), gen + "non-finite marginal cost"),
            (cost < 0, gen + "negative marginal cost"))

        _raise_first_fault(self.unbalance.buses, (index(self.unbalance.buses) < 0,
                                                  "unbalance subset references unknown bus {r!r}"))
        # connectivity: a traversal of the line graph from the substation
        adj = [set() for _ in ids]
        for i, j in zip(line_from.tolist(), line_to.tolist()):
            adj[i].add(j)
            adj[j].add(i)
        seen = stack = {pos[self.substation_bus]}
        while stack:
            stack = set().union(*(adj[k] for k in stack)) - seen
            seen = seen | stack
        if len(seen) != len(ids):
            missing = min(i for k, i in enumerate(ids) if k not in seen)
            raise ValidationError(f"bus {missing!r} is not connected to the substation")

        for name, value in dict(
                bus_ids=ids, _bus_pos=pos, bus_vmin=vmin, bus_vmax=vmax, line_from=line_from,
                line_to=line_to, line_y=_readonly(np.linalg.inv(z)), line_rating=rating,
                demand=_readonly(demand), gen_bus=gen_bus, gen_cost=cost,
                gen_box=_readonly(np.where([[ph in g.phases for ph in PHASES] for g in gens],
                                           box, 0.0)), substation_gen=subs[0]).items():
            object.__setattr__(self, name, value)

    @cached_property
    def ybus_csr(self):
        """(3n, 3n) complex nodal admittance matrix in CSR form, series
        elements only, with no stored zeros; its arrays are read-only."""
        n = len(self.buses)
        i, j = self.line_from, self.line_to
        # a line adds its y to blocks (i, i) and (j, j) and -y to (i, j) and
        # (j, i); each entry sums its terms in line order, parallel lines in
        # one slot
        ph = np.arange(NPHASE)
        rows, cols = np.broadcast_arrays(
            NPHASE * np.stack((i, j, i, j), axis=1)[:, :, None, None] + ph[:, None],
            NPHASE * np.stack((i, j, j, i), axis=1)[:, :, None, None] + ph)
        layout = CsrLayout(rows.ravel(), cols.ravel(), (n * NPHASE, n * NPHASE))
        y = self.line_y
        data = np.zeros(layout.nnz, dtype=complex)
        np.add.at(data, layout.slots, np.stack((y, y, -y, -y), axis=1).ravel())
        ybus = layout.matrix(data, data != 0)
        for a in (ybus.data, ybus.indices, ybus.indptr):
            a.flags.writeable = False
        return ybus

    @cached_property
    def ybus(self):
        """Dense (3n, 3n) form of :attr:`ybus_csr`, read-only."""
        return _readonly(self.ybus_csr.toarray())

    # -- convenience lookups -------------------------------------------------

    def bus_index(self, bus_id):
        try:
            return self._bus_pos[bus_id]
        except KeyError:
            raise KeyError(f"unknown bus {bus_id!r}") from None

    @property
    def vuf_bus_subset(self):
        """Buses the unbalance term applies to; defaults to all non-slack buses."""
        if self.unbalance.buses:
            return list(self.unbalance.buses)
        return [i for i in self.bus_ids if i != self.substation_bus]

    @property
    def base_kw(self):
        return self.base_kva

    def demand_pu(self):
        """(nbus, 3) complex array of total load P + jQ per bus and phase."""
        return self.demand.copy()

    def with_extra_load(self, bus, phase, dp=0.0, dq=0.0) -> "NetworkSpec":
        """Copy with one additional point load (per-unit) at (bus, phase)."""
        i = phase_index(phase)
        p, q = np.zeros(NPHASE), np.zeros(NPHASE)
        p[i], q[i] = dp, dq
        return replace(self, loads=self.loads + (LoadSpec(bus=bus, p=p, q=q),))


def _check_bases(base_kva, base_volt_ln):
    for name, value in (("base_kva", base_kva), ("base_volt_ln", base_volt_ln)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and positive, got {value}")


def _raise_first_fault(records, *faults):
    """Raise the ValidationError of the first of ``records`` at fault, for its
    first fault.  Each fault is a mask over the records and a message
    template that ``str.format`` fills with the record as ``r``."""
    at_fault = np.array([mask for mask, _ in faults], dtype=bool)
    if at_fault.any():
        k, kind = np.argwhere(at_fault.T)[0]
        raise ValidationError(faults[kind][1].format(r=records[k]))


def _numbers(value, shape, *name):
    """``value`` as a float if ``shape`` is ``()``, else as a float array of
    ``shape``; a ParseError naming ``name`` (its parts joined by ": ") unless
    it is (nested lists of) JSON numbers (:func:`is_number`) of that shape."""
    if type(value) is float and not shape:      # most fields: no numpy, no ABC check
        return value
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):      # ragged, not numeric, too large
        a = None
    if a is not None and a.shape == shape:
        leaves = [value] if not shape else [v for row in value for v in row] \
            if len(shape) == 2 else value
        # np.array takes strings, bools and None too; float and int, JSON's
        # numbers, pass without the slower is_number
        if set(map(type, leaves)) <= {float, int} or all(map(is_number, leaves)):
            return a if shape else float(value)
    kind = "x".join(map(str, shape)) + " numbers" if shape else "a number"
    raise ParseError(f"{': '.join(name)} must be {kind}, got {value!r}")


# -- JSON ingestion ---------------------------------------------------------
#
# Schema (SI units; every number a JSON number):
#   base_kva, base_volt_ln,
#   buses:  [{id, vmin, vmax}]
#   lines:  [{from, to, z_real[3][3], z_imag[3][3], s_rating}]   (ohm, kVA)
#   loads:  [{bus, p[3], q[3]}]                                  (kW, kvar)
#   gens:   [{bus, phases, pmin[3], pmax[3], qmin[3], qmax[3], cost,
#             is_substation}]                                    (kW, kvar, EUR/kWh)
#   unbalance: {mode, limit_pct, penalty, buses[]}               (optional)


def load_network(path) -> NetworkSpec:
    """Load and validate a network description file, converting to per-unit."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return network_from_dict(doc)


def network_from_dict(doc: dict) -> NetworkSpec:
    """Build a :class:`NetworkSpec` from a parsed schema document (SI units).

    An entry or field of the wrong type or shape raises ParseError naming
    the entry, e.g. ``line entry 0: ...``; a number must be a JSON number and
    ``is_substation`` a JSON bool.
    """
    try:
        base_kva = _numbers(doc["base_kva"], (), "base_kva")
        base_volt = _numbers(doc["base_volt_ln"], (), "base_volt_ln")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed base fields: {exc}") from exc
    _check_bases(base_kva, base_volt)
    zbase = impedance_base(base_kva, base_volt)

    def _req(entry, key, where):
        try:
            return entry[key]
        except KeyError:
            raise ParseError(f"{where}: missing field {key!r}") from None

    def _num(where, entry, key, shape=(), default=None):
        """The entry's ``key`` read by :func:`_numbers`; required unless it
        has a default."""
        value = _req(entry, key, where) if default is None else entry.get(key, default)
        return _numbers(value, shape, where, key)

    def _list(value, what):
        if not isinstance(value, (list, tuple)):
            raise ParseError(f"{what} must be a list, got {value!r}")
        return value

    def _entries(key, kind):
        """(where, entry) for each object in the document's ``key`` list."""
        for k, e in enumerate(_list(doc.get(key, []), key)):
            if not isinstance(e, dict):
                raise ParseError(f"{kind} entry {k}: must be an object, got {e!r}")
            yield f"{kind} entry {k}", e

    buses = [BusSpec(id=str(_req(e, "id", w)), vmin=_num(w, e, "vmin", default=DEFAULT_VMIN),
                     vmax=_num(w, e, "vmax", default=DEFAULT_VMAX))
             for w, e in _entries("buses", "bus")]
    lines = []
    with np.errstate(invalid="ignore"):     # the network names a non-finite z
        for w, e in _entries("lines", "line"):
            z = (_num(w, e, "z_real", (NPHASE, NPHASE))
                 + 1j * _num(w, e, "z_imag", (NPHASE, NPHASE))) / zbase
            lines.append(LineSpec(from_bus=str(_req(e, "from", w)), to_bus=str(_req(e, "to", w)),
                                  z=z, s_rating=_num(w, e, "s_rating") / base_kva))
    loads = [LoadSpec(bus=str(_req(e, "bus", w)), p=_num(w, e, "p", (NPHASE,)) / base_kva,
                      q=_num(w, e, "q", (NPHASE,)) / base_kva)
             for w, e in _entries("loads", "load")]
    gens = []
    for w, e in _entries("gens", "generator"):
        is_substation = e.get("is_substation", False)
        if not isinstance(is_substation, bool):
            raise ParseError(f"{w}: is_substation must be true or false, got {is_substation!r}")
        gens.append(GenSpec(
            bus=str(_req(e, "bus", w)),
            phases=tuple(_list(_req(e, "phases", w), f"{w}: phases")),
            **{name: _num(w, e, name, (NPHASE,)) / base_kva for name in _GEN_BOX},
            marginal_cost=_num(w, e, "cost"), is_substation=is_substation,
        ))
    ub = doc.get("unbalance", {})
    if not isinstance(ub, dict):
        raise ParseError(f"unbalance must be an object, got {ub!r}")
    cfg = UnbalanceConfig(
        mode=ub.get("mode", "none"),
        vuf_limit_pct=_num("unbalance", ub, "limit_pct", default=0.0),
        penalty_weight=_num("unbalance", ub, "penalty", default=0.0),
        buses=tuple(str(b) for b in _list(ub.get("buses", []), "unbalance: buses")),
    )
    sub = doc.get("substation_bus")
    if sub is None:
        subs = [g.bus for g in gens if g.is_substation]
        sub = subs[0] if subs else None
    if sub is None:
        raise ParseError("no substation bus declared and no substation generator present")
    return NetworkSpec(
        base_kva=base_kva, base_volt_ln=base_volt,
        buses=tuple(buses), lines=tuple(lines), loads=tuple(loads),
        gens=tuple(gens), substation_bus=str(sub), unbalance=cfg,
    )


def network_to_dict(net: NetworkSpec) -> dict:
    """Serialize back to the schema document (SI units); inverse of ingestion."""
    zbase = impedance_base(net.base_kva, net.base_volt_ln)
    return {
        "base_kva": net.base_kva,
        "base_volt_ln": net.base_volt_ln,
        "substation_bus": net.substation_bus,
        "buses": [{"id": b.id, "vmin": b.vmin, "vmax": b.vmax} for b in net.buses],
        "lines": [
            {
                "from": ln.from_bus,
                "to": ln.to_bus,
                "z_real": (np.real(ln.z) * zbase).tolist(),
                "z_imag": (np.imag(ln.z) * zbase).tolist(),
                "s_rating": ln.s_rating * net.base_kva,
            }
            for ln in net.lines
        ],
        "loads": [
            {
                "bus": ld.bus,
                "p": (ld.p * net.base_kva).tolist(),
                "q": (ld.q * net.base_kva).tolist(),
            }
            for ld in net.loads
        ],
        "gens": [
            {
                "bus": g.bus,
                "phases": list(g.phases),
                "pmin": (g.pmin * net.base_kva).tolist(),
                "pmax": (g.pmax * net.base_kva).tolist(),
                "qmin": (g.qmin * net.base_kva).tolist(),
                "qmax": (g.qmax * net.base_kva).tolist(),
                "cost": g.marginal_cost,
                "is_substation": g.is_substation,
            }
            for g in net.gens
        ],
        "unbalance": {
            "mode": net.unbalance.mode,
            "limit_pct": net.unbalance.vuf_limit_pct,
            "penalty": net.unbalance.penalty_weight,
            "buses": list(net.unbalance.buses),
        },
    }


def save_network(net: NetworkSpec, path):
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")
