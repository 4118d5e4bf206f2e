"""Schoolbook-multiplier netlists and their CNF encodings.

A factoring instance asserts ``a * b = s`` for a known semiprime ``s`` by
fixing the product bits of a gate-level multiplier with unit clauses.  Two
clause encodings are supported for 2-input gates, each a table of
``(sign_a, sign_b, sign_c)`` rows per gate kind that ``gate_clauses`` maps
to literals:

* ``ROW_ENCODING`` (the paper's option 1): one clause per invalid
  truth-table row (four 3-wide clauses), built at import from ``GATE_FN``;
* ``IMPLICATION_FORM`` (option 2; three clauses, one 3-wide), which exists
  only for AND/OR/NAND/NOR; XOR/XNOR gates keep their row encoding.

``encode_netlist`` writes every gate in its row encoding.  The implication
form is ladder level 1 (``preprocess.reencode_option2``), which finds the
gate groups of any formula and rewrites them through ``gate_clauses``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cnf import Clause, Cnf

AND = "AND"
OR = "OR"
XOR = "XOR"
XNOR = "XNOR"
NAND = "NAND"
NOR = "NOR"

GATE_FN = {
    AND: lambda a, b: a and b,
    OR: lambda a, b: a or b,
    XOR: lambda a, b: a != b,
    XNOR: lambda a, b: a == b,
    NAND: lambda a, b: not (a and b),
    NOR: lambda a, b: not (a or b),
}

# Clause templates: (sign_a, sign_b, sign_c) rows, with a zero meaning
# "literal absent".  Signs multiply the variable index.
# The row encoding has one row per invalid truth-table row, in (a, b, c)
# order with False first: each literal is false exactly on that row.
ROW_ENCODING = {
    kind: tuple((-1 if va else 1, -1 if vb else 1, -1 if vc else 1)
                for va in (False, True) for vb in (False, True)
                for vc in (False, True) if vc != fn(va, vb))
    for kind, fn in GATE_FN.items()
}

IMPLICATION_FORM = {
    AND: ((-1, -1, +1), (+1, 0, -1), (0, +1, -1)),
    OR: ((+1, +1, -1), (-1, 0, +1), (0, -1, +1)),
    NAND: ((-1, -1, -1), (+1, 0, +1), (0, +1, +1)),
    NOR: ((+1, +1, +1), (-1, 0, -1), (0, -1, -1)),
}


@dataclass(frozen=True)
class Gate:
    kind: str
    inputs: tuple[int, ...]
    output: int


@dataclass(frozen=True)
class GateNetlist:
    """A combinational multiplier circuit over 1-indexed wire variables."""

    bits_a: int
    bits_b: int
    input_bits_a: tuple[int, ...]  # LSB first
    input_bits_b: tuple[int, ...]
    const_zero: int
    output_bits: tuple[int, ...]  # LSB first, length bits_a + bits_b
    gates: tuple[Gate, ...]
    num_vars: int


def build_multiplier(bits_a: int, bits_b: int) -> GateNetlist:
    """Build a row-ripple schoolbook multiplier.

    Partial products are AND gates; each accumulation row ripples full
    adders whose carry-in starts at a shared constant-zero wire (fixed
    later by a unit clause), the uniform-cell array layout.  Full adders
    compute the sum via two chained XORs and the carry as the OR-majority of
    the three pairwise ANDs; chain-extending cells past the addend width are
    half adders (XOR + AND).
    """
    if bits_a < 1 or bits_b < 1:
        raise ValueError("factor widths must be at least 1")

    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter

    a = tuple(fresh() for _ in range(bits_a))
    b = tuple(fresh() for _ in range(bits_b))
    zero = fresh()
    gates: list[Gate] = []

    def gate(kind: str, *ins: int) -> int:
        out = fresh()
        gates.append(Gate(kind, tuple(ins), out))
        return out

    def full_adder(x: int, y: int, cin: int) -> tuple[int, int]:
        s1 = gate(XOR, x, y)
        s = gate(XOR, s1, cin)
        c1 = gate(AND, x, y)
        c2 = gate(AND, x, cin)
        c3 = gate(AND, y, cin)
        o1 = gate(OR, c1, c2)
        cout = gate(OR, o1, c3)
        return s, cout

    def half_adder(x: int, y: int) -> tuple[int, int]:
        return gate(XOR, x, y), gate(AND, x, y)

    pp = [[gate(AND, a[i], b[j]) for j in range(bits_b)] for i in range(bits_a)]

    outputs: list[int] = [pp[0][0]]
    working: list[int] = list(pp[0][1:])  # bits 1..bits_b-1 of the running sum
    for i in range(1, bits_a):
        sums: list[int] = []
        carry = zero
        for j in range(bits_b):
            if j < len(working):
                s, carry = full_adder(working[j], pp[i][j], carry)
            else:
                s, carry = half_adder(pp[i][j], carry)
            sums.append(s)
        outputs.append(sums[0])
        working = sums[1:] + [carry]
    outputs.extend(working)
    while len(outputs) < bits_a + bits_b:  # degenerate 1-bit factor rows
        outputs.append(zero)

    return GateNetlist(
        bits_a=bits_a,
        bits_b=bits_b,
        input_bits_a=a,
        input_bits_b=b,
        const_zero=zero,
        output_bits=tuple(outputs),
        gates=tuple(gates),
        num_vars=counter,
    )


def simulate(netlist: GateNetlist, a_value: int, b_value: int) -> tuple[dict[int, bool], int]:
    """Evaluate every wire for concrete factor values; returns (wires, product)."""
    if a_value < 0 or a_value >= (1 << netlist.bits_a):
        raise ValueError(f"a_value {a_value} does not fit in {netlist.bits_a} bits")
    if b_value < 0 or b_value >= (1 << netlist.bits_b):
        raise ValueError(f"b_value {b_value} does not fit in {netlist.bits_b} bits")
    wires: dict[int, bool] = {netlist.const_zero: False}
    for k, var in enumerate(netlist.input_bits_a):
        wires[var] = bool((a_value >> k) & 1)
    for k, var in enumerate(netlist.input_bits_b):
        wires[var] = bool((b_value >> k) & 1)
    for g in netlist.gates:
        fn = GATE_FN[g.kind]
        wires[g.output] = bool(fn(*(wires[v] for v in g.inputs)))
    product = 0
    for k, var in enumerate(netlist.output_bits):
        if wires[var]:
            product |= 1 << k
    return wires, product


def gate_clauses(rows: tuple[tuple[int, int, int], ...], a: int, b: int,
                 c: int) -> list[Clause]:
    """The clauses of a gate over inputs ``a``, ``b`` and output ``c``, one
    per row of a table such as ``ROW_ENCODING[kind]`` or
    ``IMPLICATION_FORM[kind]``."""
    return [tuple(sign * var for sign, var in zip(row, (a, b, c)) if sign)
            for row in rows]


def encode_netlist(netlist: GateNetlist, product: int) -> Cnf:
    """CNF for ``a * b = product`` over the netlist.

    Adds: each gate's row encoding; a negative unit for the constant-zero
    wire; positive units forcing both factor MSBs (factors are full-width);
    and one unit per product bit in LSB-first order.
    """
    width = len(netlist.output_bits)
    if product < 0 or product.bit_length() > width:
        raise ValueError(f"product {product} does not fit in {width} output bits")
    clauses: list[Clause] = []
    for g in netlist.gates:
        clauses.extend(gate_clauses(ROW_ENCODING[g.kind], g.inputs[0], g.inputs[1],
                                    g.output))
    clauses.append((-netlist.const_zero,))
    clauses.append((netlist.input_bits_a[-1],))
    clauses.append((netlist.input_bits_b[-1],))
    for k, var in enumerate(netlist.output_bits):
        bit = (product >> k) & 1
        clauses.append((var,) if bit else (-var,))
    return Cnf(netlist.num_vars, tuple(clauses))


def factor_widths(bit_width: int) -> tuple[int, int]:
    """Factor bit widths for a product of the given width: as equal as possible."""
    hi = (bit_width + 1) // 2
    return hi, bit_width - hi


def _primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit if limit > 0 else bytearray()
    primes = []
    for i in range(2, limit):
        if sieve[i]:
            primes.append(i)
            for j in range(i * i, limit, i):
                sieve[j] = 0
    return primes


def semiprime_catalog(bit_width: int) -> list[int]:
    """All semiprimes of exactly ``bit_width`` bits, ascending, whose prime
    factors are full-width for the canonical factor split (both MSBs set)."""
    if not 4 <= bit_width <= 16:
        raise ValueError("bit_width must be between 4 and 16")
    wa, wb = factor_widths(bit_width)
    primes = _primes_below(1 << max(wa, wb))
    ps = [p for p in primes if p.bit_length() == wa]
    qs = [q for q in primes if q.bit_length() == wb]
    products = {p * q for p in ps for q in qs}
    return sorted(s for s in products if s.bit_length() == bit_width)


def generate_instance(bit_width: int, semiprime: int) -> tuple[Cnf, GateNetlist]:
    """Build the CNF for one semiprime of the family."""
    if semiprime not in semiprime_catalog(bit_width):
        raise ValueError(f"{semiprime} is not in the {bit_width}-bit catalog "
                         "of semiprimes with full-width factors")
    wa, wb = factor_widths(bit_width)
    # orient the narrow factor along the rows: fewer, wider ripple chains
    netlist = build_multiplier(wb, wa)
    return encode_netlist(netlist, semiprime), netlist
