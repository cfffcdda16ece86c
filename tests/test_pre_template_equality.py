"""Compiling from section templates and lowering from cached fold plans
against copies of the per-gate code they replaced.

The copies below are the compiler's ``compile_zz_block``, ``_emit_block``
and ``compile_trotter_step``, the circuits module's ``gate_unitary`` and
``entangler_blocks``, and the simulator's ``_block_channel``, as they
were before section templates, constant gate unitaries, fold plans and
batched channel blocks.  Circuits must agree gate for gate, pure block
unitaries bit for bit, and channel blocks to 1e-15 with the Pauli
transfer matrices of the old row-major channel blocks.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermisim.circuits import (
    GATE_KINDS,
    TWO_QUBIT,
    Circuit,
    Gate,
    block_layout,
    entangler_blocks,
)
from fermisim.compiler import (
    _ALIGNMENT,
    _SPLIT_SHIFT,
    PHASE_RANGE,
    TrotterPlan,
    _classify,
    _ordered_sections,
    _shape_key,
    canonical_phase,
    compile_trotter_step,
    conjugate_basis,
)
from fermisim.fermions import (
    four_mode_ahm,
    spin_hamiltonian,
    three_mode_model,
    two_mode_model,
)
from fermisim.pauli import PAULI_MATRICES, pauli_basis
from fermisim.simulator import (
    NoiseModel,
    lower_circuit,
)
from fermisim.tomography import hopping_exchange_circuit, tomography_rotation
from helpers import input_circuit

SETTINGS = settings(max_examples=80, deadline=None, database=None)


# -- the pre-template compiler ----------------------------------------------

def old_compile_zz_block(phi, qubits, echo_axis="X"):
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
    return Circuit(max(qubits) + 1, tuple(gates))


def old_emit_block(section, n, dt, detune_exception):
    phi = 2.0 * section.coeff * dt
    pair = tuple(sorted(section.qubits))
    spectators = [q for q in range(n) if q not in pair]
    echo_axis = "Y" if section.kind == "xx" else "X"
    block = old_compile_zz_block(phi, pair, echo_axis=echo_axis)
    if section.kind == "xx":
        block = conjugate_basis(block, "XX")
    elif section.kind == "yy":
        block = conjugate_basis(block, "YY")
    pi_kind = "PI_Y" if echo_axis == "Y" else "PI_X"
    gates = []
    for g in block.gates:
        gates.append(g)
        if g.kind == "CZPHI":
            for s in spectators:
                kind = "IDLE" if s in detune_exception else "DETUNE"
                gates.append(Gate(kind, (s,)))
        elif g.kind in ("PI_X", "PI_Y") and g.targets[0] == pair[1]:
            for s in spectators:
                gates.append(Gate(pi_kind, (s,)))
    for q in pair:
        gates.append(Gate("IDLE", (q,)))
    return gates


def old_compile_trotter_step(plan, step_index=0):
    n = plan.hamiltonian.qubit_count
    dt = plan.dt
    sections = _classify(plan.hamiltonian)
    parity = step_index % 2
    ordered = _ordered_sections(sections, plan.ordering, parity)
    shape = _shape_key(sections, n)
    alignment = _ALIGNMENT.get(shape, {})
    gates = []
    for section in ordered:
        if section.kind == "vz":
            q = section.qubits[0]
            gates.append(Gate("VIRTUAL_Z", (q,), 2.0 * section.coeff * dt))
            continue
        exception = set()
        if alignment.get("detune_to_idle") and section.kind == "zz":
            exception = {n - 1}
        gates.extend(old_emit_block(section, n, dt, exception))
    if alignment.get("refocus"):
        spect = [q for q in range(n)
                 if all(q not in s.qubits for s in ordered
                        if s.kind == "zz")]
        target = spect[-1] if spect else n - 1
        gates.append(Gate("RX", (target,), 2 * math.pi))
    for k in range(alignment.get("idle", 0)):
        gates.append(Gate("IDLE", (k % n,)))
    return Circuit(n, tuple(gates))


# -- the pre-plan lowering --------------------------------------------------

def old_gate_unitary(g):
    th = g.param
    if g.kind == "RX":
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if g.kind == "RY":
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if g.kind == "RZ":
        return np.diag([np.exp(-1j * th / 2), np.exp(1j * th / 2)])
    if g.kind == "PI_X":
        return -1j * PAULI_MATRICES["X"]
    if g.kind == "PI_Y":
        return -1j * PAULI_MATRICES["Y"]
    if g.kind == "VIRTUAL_Z":
        return np.diag([1.0, np.exp(1j * th)])
    if g.kind in ("IDLE", "DETUNE"):
        return np.eye(2, dtype=complex)
    if g.kind == "CZPHI":
        return np.diag([1.0, 1.0, 1.0, np.exp(1j * th)])
    raise ValueError(g.kind)


_EYE2 = np.eye(2, dtype=complex)


def old_entangler_blocks(c):
    pending = {}
    for g in c.gates:
        if len(g.targets) == 1:
            run = pending.setdefault(g.targets[0], [None, 0])
            run[1] += g.duration_class != "virtual"
            if g.kind not in ("IDLE", "DETUNE"):
                u = old_gate_unitary(g)
                run[0] = u if run[0] is None else u @ run[0]
            continue
        a, b = g.targets
        ua, ka = pending.pop(a, (None, 0))
        ub, kb = pending.pop(b, (None, 0))
        m = old_gate_unitary(g)
        if ua is not None or ub is not None:
            ua, ub = (_EYE2 if x is None else x for x in (ua, ub))
            m = m @ (ua[:, None, :, None] * ub[None, :, None, :]).reshape(4, 4)
        yield m, g.targets, (ka, kb)
    for q, (u, k) in pending.items():
        yield (_EYE2 if u is None else u), (q,), (k,)


_TRACE2, _TRACE4 = (np.outer(np.eye(d).ravel(), np.eye(d).ravel()) / d
                    for d in (2, 4))
_EYE4 = np.eye(4)


def old_block_channel(u, counts, noise):
    d = len(u)
    s = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, -1)
    if noise is None:
        return s
    w1 = [(1.0 - noise.channel_probability(1)) ** k for k in counts]
    if d == 2:
        return w1[0] * s + (1.0 - w1[0]) * _TRACE2
    da, db = (w * _EYE4 + (1.0 - w) * _TRACE2 for w in w1)
    s = s @ (da.reshape((2, 1) * 4) * db.reshape((1, 2) * 4)).reshape(16, 16)
    w2 = 1.0 - noise.channel_probability(2)
    return w2 * s + (1.0 - w2) * _TRACE4


def old_block_ptm(u, counts, noise):
    """R = B* S B^T / d of the old block channel S on the row-major vec
    of the block's density, B stacking the flattened Pauli strings."""
    s = old_block_channel(u, counts, noise)
    b = pauli_basis(len(counts)).reshape(len(s), -1)
    return (b.conj() @ s @ b.T).real / len(u)


def assert_lowering_matches(circuit, noise):
    """Pure blocks bit for bit, channel blocks to 1e-15, same layouts."""
    old = list(old_entangler_blocks(circuit))
    new = list(entangler_blocks(circuit))
    assert len(new) == len(old)
    for (u, targets, counts), (u0, targets0, counts0) in zip(new, old):
        assert (targets, counts) == (targets0, counts0)
        assert np.array_equal(u, u0)
    n = circuit.qubit_count
    lowered = lower_circuit(circuit, noise)
    assert len(lowered.channel_blocks) == len(old)
    for (m, perm, inverse), (u0, targets, counts) in zip(
            lowered.channel_blocks, old):
        assert np.max(np.abs(m - old_block_ptm(u0, counts, noise)),
                      initial=0.0) <= 1e-15
        assert (perm, inverse) == block_layout(targets, n)


# -- strategies -------------------------------------------------------------

MODELS = {
    2: lambda c: two_mode_model(c[0], c[1]),
    3: lambda c: three_mode_model(c[0], c[1]),
    4: lambda c: four_mode_ahm(c[0], c[1], c[2], c[3]),
}
couplings = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)
# dt on both sides of the split branch: |2 coeff dt| below and above 0.5
dts = st.one_of(st.floats(0.01, 0.24), st.floats(0.26, 3.0))
orderings = st.sampled_from(["canonical_s5", "odd_even_s6"])
noises = st.one_of(st.none(), st.floats(0.0, 2.0).map(NoiseModel().scaled))


class TestCompileMatchesPerSectionCode:
    @SETTINGS
    @given(st.sampled_from([2, 3, 4]), couplings, dts, orderings,
           st.integers(0, 1))
    @example(3, [1.0, 1.0, 0, 0], 0.1, "canonical_s5", 0)   # split
    @example(3, [1.0, 1.0, 0, 0], 1.0, "odd_even_s6", 1)    # no split
    @example(4, [1.0, 1.0, 0.0, 1.0], 0.1, "odd_even_s6", 0)
    @example(4, [1.0, 1.0, 0.0, 1.0], 1.0, "canonical_s5", 1)
    @example(2, [1.0, 1.0, 0, 0], 0.1, "odd_even_s6", 1)
    def test_gate_for_gate(self, modes, c, dt, ordering, parity):
        plan = TrotterPlan(spin_hamiltonian(MODELS[modes](c)), dt, 1,
                           ordering)
        new = compile_trotter_step(plan, parity)
        assert new.qubit_count == modes
        assert new.gates == old_compile_trotter_step(plan, parity).gates


class TestLoweringMatchesPerGateCode:
    @SETTINGS
    @given(st.sampled_from([2, 3, 4]), couplings, dts, orderings,
           st.integers(0, 1), noises)
    @example(3, [1.0, 1.0, 0, 0], 0.1, "odd_even_s6", 1, NoiseModel())
    @example(4, [1.0, 1.0, 0.0, 1.0], 1.0, "odd_even_s6", 0, NoiseModel())
    def test_step_blocks(self, modes, c, dt, ordering, parity, noise):
        plan = TrotterPlan(spin_hamiltonian(MODELS[modes](c)), dt, 1,
                           ordering)
        assert_lowering_matches(compile_trotter_step(plan, parity), noise)

    def test_fixed_circuits(self):
        circuits = [tomography_rotation(i) for i in range(16)]
        circuits += [hopping_exchange_circuit(s) for s in (1.0, -1.0)]
        circuits += [input_circuit(k)
                     for k in ("two_mode", "three_mode", "four_mode")]
        for circuit in circuits:
            for noise in (None, NoiseModel()):
                assert_lowering_matches(circuit, noise)

    @SETTINGS
    @given(st.data(), noises)
    def test_random_circuits(self, data, noise):
        # any gate, fixed angles mixed with arbitrary ones
        n = data.draw(st.integers(1, 4))
        kinds = [k for k in GATE_KINDS if n >= 2 or k not in TWO_QUBIT]
        params = st.one_of(
            st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi,
                             2 * math.pi, -_SPLIT_SHIFT]),
            st.floats(-2 * math.pi, 2 * math.pi))
        gates = []
        for _ in range(data.draw(st.integers(0, 14))):
            kind = data.draw(st.sampled_from(kinds))
            width = 2 if kind in TWO_QUBIT else 1
            targets = tuple(data.draw(st.permutations(range(n)))[:width])
            gates.append(Gate(kind, targets, data.draw(params)))
        assert_lowering_matches(Circuit(n, tuple(gates)), noise)
