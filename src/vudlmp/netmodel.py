"""Three-phase network data model, per-unit normalization and JSON ingestion.

All electrical quantities are stored in per-unit internally.  The JSON
network files carry SI units (kW, kvar, kVA, ohm, volt); conversion happens
once at load time.  Bases are per-phase: ``base_kva`` is the per-phase
apparent-power base and ``base_volt_ln`` the line-to-neutral voltage base.

A :class:`NetworkSpec` checks and inverts its line impedances as one stack,
and on first use assembles the nodal admittance matrix from their 3x3
blocks in CSR form (:attr:`NetworkSpec.ybus_csr`).  Its dense form
(:attr:`NetworkSpec.ybus`) is made from the CSR matrix only when asked for;
the power flow asks for it on small networks only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

PHASES = ("a", "b", "c")
NPHASE = 3

DEFAULT_VMIN = 0.9
DEFAULT_VMAX = 1.1


class NetworkError(Exception):
    """Base class for network ingestion problems."""


class ParseError(NetworkError):
    """Malformed network file (bad JSON, missing keys, wrong shapes)."""


class ValidationError(NetworkError):
    """Structurally parseable file that violates a model invariant."""


def impedance_base(base_kva, base_volt_ln):
    """Ohm base for a per-phase kVA base and line-to-neutral voltage base."""
    if base_kva <= 0 or base_volt_ln <= 0:
        raise ValueError("nonpositive base")
    return base_volt_ln**2 / (base_kva * 1e3)


def _readonly(a):
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BusSpec:
    id: str
    vmin: float = DEFAULT_VMIN
    vmax: float = DEFAULT_VMAX

    def __post_init__(self):
        if "\r" in self.id:    # csv leaves it unquoted, so it would split a row
            raise ValidationError(f"bus {self.id!r}: an id may not hold a carriage return")
        for name in ("vmin", "vmax"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(
                    f"bus {self.id}: {name} must be finite, got {getattr(self, name)}")
        if not (0.0 < self.vmin < self.vmax):
            raise ValidationError(
                f"bus {self.id}: requires 0 < vmin < vmax, got "
                f"vmin={self.vmin}, vmax={self.vmax}"
            )


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
    bus: str
    p: np.ndarray          # per-phase active demand, per-unit
    q: np.ndarray          # per-phase reactive demand, per-unit

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if p.shape != (NPHASE,) or q.shape != (NPHASE,):
            raise ParseError(f"load at {self.bus}: p and q must have 3 entries")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValidationError(f"load at {self.bus}: non-finite demand")
        object.__setattr__(self, "p", _readonly(p))
        object.__setattr__(self, "q", _readonly(q))


@dataclass(frozen=True)
class GenSpec:
    bus: str
    phases: tuple          # subset of PHASES the unit can inject on
    pmin: np.ndarray       # per-phase bounds, per-unit; absent phases pinned to 0
    pmax: np.ndarray
    qmin: np.ndarray
    qmax: np.ndarray
    marginal_cost: float   # EUR per kWh
    is_substation: bool = False

    def __post_init__(self):
        for name in ("pmin", "pmax", "qmin", "qmax"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (NPHASE,):
                raise ParseError(f"generator at {self.bus}: {name} must have 3 entries")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"generator at {self.bus}: non-finite {name}")
            object.__setattr__(self, name, _readonly(arr))
        bad = [p for p in self.phases if p not in PHASES]
        if bad:
            raise ValidationError(f"generator at {self.bus}: unknown phase {bad[0]}")
        object.__setattr__(self, "phases", tuple(self.phases))
        if np.any(self.pmin > self.pmax) or np.any(self.qmin > self.qmax):
            raise ValidationError(f"generator at {self.bus}: empty output box (min > max)")
        if not math.isfinite(self.marginal_cost):
            raise ValidationError(f"generator at {self.bus}: non-finite marginal cost")
        if self.marginal_cost < 0:
            raise ValidationError(f"generator at {self.bus}: negative marginal cost")


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
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mode == "hard" and not self.vuf_limit_pct > 0:
            raise ValidationError("hard mode requires vuf_limit_pct > 0")
        if self.mode == "soft" and self.penalty_weight < 0:
            raise ValidationError("soft mode requires penalty_weight >= 0")
        if len(set(self.buses)) != len(self.buses):
            raise ValidationError(f"unbalance subset lists a bus twice: {self.buses}")
        object.__setattr__(self, "buses", tuple(self.buses))


@dataclass(frozen=True)
class NetworkSpec:
    """Validated network; also holds a compiled array view of its lines.

    ``line_from``/``line_to`` are the bus indices of each line's ends and
    ``line_y`` the (nline, 3, 3) series admittances from one stacked inverse;
    ``ybus_csr`` is the nodal admittance matrix, assembled on first use, and
    ``ybus`` its dense form.  All are read-only.
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
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "loads", tuple(self.loads))
        object.__setattr__(self, "gens", tuple(self.gens))
        object.__setattr__(self, "line_y", _line_admittances(self.lines))
        _validate(self)
        pos = {b.id: i for i, b in enumerate(self.buses)}
        object.__setattr__(self, "_bus_pos", pos)
        object.__setattr__(self, "line_from", _readonly(
            np.array([pos[ln.from_bus] for ln in self.lines], dtype=int)))
        object.__setattr__(self, "line_to", _readonly(
            np.array([pos[ln.to_bus] for ln in self.lines], dtype=int)))

    @cached_property
    def ybus_csr(self):
        """(3n, 3n) complex nodal admittance matrix in CSR form, series
        elements only, with no stored zeros; its arrays are read-only."""
        n = len(self.buses)
        i, j = self.line_from, self.line_to
        # a line adds its y to blocks (i, i) and (j, j) and -y to (i, j) and
        # (j, i); each block sums its terms in line order, parallel lines in
        # one slot
        blocks, which = np.unique(np.stack((i * n + i, j * n + j, i * n + j, j * n + i),
                                           axis=1).ravel(), return_inverse=True)
        y = self.line_y
        data = np.zeros((len(blocks), NPHASE, NPHASE), dtype=complex)
        np.add.at(data, which, np.stack((y, y, -y, -y), axis=1).reshape(-1, NPHASE, NPHASE))
        indptr = np.searchsorted(blocks // n, np.arange(n + 1))
        ybus = sp.bsr_matrix((data, blocks % n, indptr),
                             shape=(n * NPHASE, n * NPHASE)).tocsr()
        ybus.eliminate_zeros()
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
        return [b.id for b in self.buses if b.id != self.substation_bus]

    @property
    def base_kw(self):
        return self.base_kva

    def demand_pu(self):
        """(nbus, 3) complex array of total load P + jQ per bus and phase."""
        s = np.zeros((len(self.buses), NPHASE), dtype=complex)
        for ld in self.loads:
            s[self.bus_index(ld.bus)] += ld.p + 1j * ld.q
        return s

    def with_extra_load(self, bus, phase, dp=0.0, dq=0.0) -> "NetworkSpec":
        """Copy with one additional point load (per-unit) at (bus, phase)."""
        i = PHASES.index(phase) if isinstance(phase, str) else int(phase)
        p = np.zeros(NPHASE)
        q = np.zeros(NPHASE)
        p[i] = dp
        q[i] = dq
        extra = LoadSpec(bus=bus, p=p, q=q)
        return NetworkSpec(
            base_kva=self.base_kva, base_volt_ln=self.base_volt_ln,
            buses=self.buses, lines=self.lines, loads=self.loads + (extra,),
            gens=self.gens, substation_bus=self.substation_bus,
            unbalance=self.unbalance,
        )


def _check_bases(base_kva, base_volt_ln):
    for name, value in (("base_kva", base_kva), ("base_volt_ln", base_volt_ln)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and positive, got {value}")


def _line_admittances(lines):
    """Check the lines' impedances and ratings over their (nline, 3, 3) stack
    and return its read-only inverse.  A ValidationError names the first line
    at fault with its first fault, and a singular line only if none has one."""
    z = np.array([ln.z for ln in lines], dtype=complex).reshape(-1, NPHASE, NPHASE)
    rating = np.array([ln.s_rating for ln in lines], dtype=float)
    faults = np.stack((
        ~np.isfinite(z).all(axis=(1, 2)),
        ~np.isclose(z, z.transpose(0, 2, 1), rtol=1e-9, atol=1e-12).all(axis=(1, 2)),
        ~(np.diagonal(z, axis1=1, axis2=2).real > 0).all(axis=1),
        ~(np.isfinite(rating) & (rating > 0)),
    ), axis=1)
    if faults.any():
        k, fault = np.argwhere(faults)[0]
        ln = lines[k]
        reason = ("non-finite impedance", "impedance matrix not symmetric",
                  "diagonal resistance must be positive",
                  f"s_rating must be finite and positive, got {ln.s_rating}")[fault]
        raise ValidationError(f"line {ln.from_bus}-{ln.to_bus}: {reason}")
    try:
        return _readonly(np.linalg.inv(z))
    except np.linalg.LinAlgError:
        for ln in lines:            # only to name the singular line
            try:
                np.linalg.inv(ln.z)
            except np.linalg.LinAlgError:
                raise ValidationError(f"line {ln.from_bus}-{ln.to_bus}: "
                                      "impedance matrix is singular") from None
        raise


def _validate(net: NetworkSpec):
    _check_bases(net.base_kva, net.base_volt_ln)
    ids = [b.id for b in net.buses]
    dup = {i for i in ids if ids.count(i) > 1}
    if dup:
        raise ValidationError(f"duplicate bus id {sorted(dup)[0]!r}")
    known = set(ids)
    if net.substation_bus not in known:
        raise ValidationError(f"substation bus {net.substation_bus!r} is not a bus")
    for ln in net.lines:
        for end in (ln.from_bus, ln.to_bus):
            if end not in known:
                raise ValidationError(
                    f"line {ln.from_bus}-{ln.to_bus} references unknown bus {end!r}"
                )
        if ln.from_bus == ln.to_bus:
            raise ValidationError(f"line {ln.from_bus}-{ln.to_bus} is a self-loop")
    for ld in net.loads:
        if ld.bus not in known:
            raise ValidationError(f"load references unknown bus {ld.bus!r}")
    subs = [g for g in net.gens if g.is_substation]
    if len(subs) != 1:
        raise ValidationError(f"expected exactly one substation generator, found {len(subs)}")
    if subs[0].bus != net.substation_bus:
        raise ValidationError(
            f"substation generator sits at {subs[0].bus!r}, expected {net.substation_bus!r}"
        )
    for g in net.gens:
        if g.bus not in known:
            raise ValidationError(f"generator references unknown bus {g.bus!r}")
    for b in net.unbalance.buses:
        if b not in known:
            raise ValidationError(f"unbalance subset references unknown bus {b!r}")
    # connectivity over the line graph
    adj = {i: set() for i in known}
    for ln in net.lines:
        adj[ln.from_bus].add(ln.to_bus)
        adj[ln.to_bus].add(ln.from_bus)
    seen = {net.substation_bus}
    stack = [net.substation_bus]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if seen != known:
        missing = sorted(known - seen)
        raise ValidationError(f"bus {missing[0]!r} is not connected to the substation")


# -- JSON ingestion ---------------------------------------------------------
#
# Schema (SI units):
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
    the entry, e.g. ``line entry 0: ...``.
    """
    try:
        base_kva = float(doc["base_kva"])
        base_volt = float(doc["base_volt_ln"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed base fields: {exc}") from exc
    _check_bases(base_kva, base_volt)
    zbase = impedance_base(base_kva, base_volt)

    def _req(entry, key, where):
        try:
            return entry[key]
        except KeyError:
            raise ParseError(f"{where}: missing field {key!r}") from None

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

    # a value float() or np.asarray() cannot take raises TypeError or
    # ValueError, which is reported against the entry being read
    where = "network"
    try:
        buses = []
        for where, e in _entries("buses", "bus"):
            buses.append(BusSpec(
                id=str(_req(e, "id", where)),
                vmin=float(e.get("vmin", DEFAULT_VMIN)),
                vmax=float(e.get("vmax", DEFAULT_VMAX)),
            ))
        lines = []
        with np.errstate(invalid="ignore"):     # the network names a non-finite z
            for where, e in _entries("lines", "line"):
                z = (np.asarray(_req(e, "z_real", where), dtype=float)
                     + 1j * np.asarray(_req(e, "z_imag", where), dtype=float)) / zbase
                lines.append(LineSpec(
                    from_bus=str(_req(e, "from", where)),
                    to_bus=str(_req(e, "to", where)),
                    z=z,
                    s_rating=float(_req(e, "s_rating", where)) / base_kva,
                ))
        loads = []
        for where, e in _entries("loads", "load"):
            loads.append(LoadSpec(
                bus=str(_req(e, "bus", where)),
                p=np.asarray(_req(e, "p", where), dtype=float) / base_kva,
                q=np.asarray(_req(e, "q", where), dtype=float) / base_kva,
            ))
        gens = []
        for where, e in _entries("gens", "generator"):
            gens.append(GenSpec(
                bus=str(_req(e, "bus", where)),
                phases=tuple(_list(_req(e, "phases", where), f"{where}: phases")),
                pmin=np.asarray(_req(e, "pmin", where), dtype=float) / base_kva,
                pmax=np.asarray(_req(e, "pmax", where), dtype=float) / base_kva,
                qmin=np.asarray(_req(e, "qmin", where), dtype=float) / base_kva,
                qmax=np.asarray(_req(e, "qmax", where), dtype=float) / base_kva,
                marginal_cost=float(_req(e, "cost", where)),
                is_substation=bool(e.get("is_substation", False)),
            ))
        where = "unbalance"
        ub = doc.get("unbalance", {})
        if not isinstance(ub, dict):
            raise ParseError(f"unbalance must be an object, got {ub!r}")
        cfg = UnbalanceConfig(
            mode=ub.get("mode", "none"),
            vuf_limit_pct=float(ub.get("limit_pct", 0.0)),
            penalty_weight=float(ub.get("penalty", 0.0)),
            buses=tuple(str(b) for b in _list(ub.get("buses", []), "unbalance: buses")),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from None
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
