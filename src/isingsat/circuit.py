"""Schoolbook-multiplier netlists and their CNF encodings.

A factoring instance asserts ``a * b = s`` for a known semiprime ``s`` by
fixing the product bits of a gate-level multiplier with unit clauses.  Two
clause encodings are supported for 2-input gates, each a table of
``(sign_a, sign_b, sign_c)`` rows that ``gate_clauses`` maps to literals:

* OPTION1 - ``ROW_ENCODING``: one clause per invalid truth-table row (four
  3-wide clauses), built at import from ``GATE_FN``;
* OPTION2 - ``IMPLICATION_FORM`` (three clauses, one 3-wide), which exists
  only for AND/OR/NAND/NOR.  XOR/XNOR gates keep their row encoding;
  ``encode_netlist`` warns once when a netlist has any.
"""
from __future__ import annotations

import enum
import warnings
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


class EncodingOption(enum.Enum):
    OPTION1 = "opt1"
    OPTION2 = "opt2"


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


def gate_clauses(kind: str, a: int, b: int, c: int, option: EncodingOption) -> list[Clause]:
    """Clauses asserting c = kind(a, b): the kind's ``ROW_ENCODING`` under
    OPTION1, and its ``IMPLICATION_FORM`` under OPTION2 when it has one
    (else its row encoding)."""
    if kind not in ROW_ENCODING:
        raise ValueError(f"unknown gate kind {kind!r}")
    rows = (IMPLICATION_FORM.get(kind, ROW_ENCODING[kind])
            if option is EncodingOption.OPTION2 else ROW_ENCODING[kind])
    return [tuple(sign * var for sign, var in zip(row, (a, b, c)) if sign)
            for row in rows]


def encode_netlist(
    netlist: GateNetlist,
    product: int,
    option: EncodingOption,
) -> Cnf:
    """CNF for ``a * b = product`` over the netlist.

    Adds: gate clauses; a negative unit for the constant-zero wire; positive
    units forcing both factor MSBs (factors are full-width); and one unit per
    product bit in LSB-first order.
    """
    width = len(netlist.output_bits)
    if product < 0 or product.bit_length() > width:
        raise ValueError(f"product {product} does not fit in {width} output bits")
    clauses: list[Clause] = []
    if option is EncodingOption.OPTION2:
        kept = sorted({g.kind for g in netlist.gates if g.kind not in IMPLICATION_FORM})
        if kept:
            warnings.warn(
                f"no implication-form encoding for {', '.join(kept)}; "
                "those gates keep the full row encoding",
                stacklevel=2,
            )
    for g in netlist.gates:
        clauses.extend(gate_clauses(g.kind, g.inputs[0], g.inputs[1], g.output, option))
    clauses.append((-netlist.const_zero,))
    clauses.append((netlist.input_bits_a[-1],))
    clauses.append((netlist.input_bits_b[-1],))
    for k, var in enumerate(netlist.output_bits):
        bit = (product >> k) & 1
        clauses.append((var,) if bit else (-var,))
    return Cnf(netlist.num_vars, tuple(clauses))


@dataclass(frozen=True)
class SemiprimeInstance:
    semiprime: int
    p: int
    q: int
    bit_width: int


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


def semiprime_catalog(bit_width: int) -> list[SemiprimeInstance]:
    """All semiprimes of exactly ``bit_width`` bits whose prime factors are
    full-width for the canonical factor split (both MSBs set)."""
    if not 4 <= bit_width <= 16:
        raise ValueError("bit_width must be between 4 and 16")
    wa, wb = factor_widths(bit_width)
    primes = _primes_below(1 << max(wa, wb))

    def full_width(p: int, w: int) -> bool:
        return p.bit_length() == w

    ps = [p for p in primes if full_width(p, wa)]
    qs = [q for q in primes if full_width(q, wb)]
    seen: set[int] = set()
    out: list[SemiprimeInstance] = []
    for p in ps:
        for q in qs:
            s = p * q
            if s.bit_length() != bit_width or s in seen:
                continue
            seen.add(s)
            out.append(SemiprimeInstance(s, max(p, q), min(p, q), bit_width))
    out.sort(key=lambda inst: inst.semiprime)
    return out


def generate_instance(
    bit_width: int,
    semiprime: int | None,
    option: EncodingOption = EncodingOption.OPTION1,
) -> tuple[Cnf, GateNetlist, SemiprimeInstance]:
    """Build the CNF for one semiprime of the family (``None``: the
    smallest)."""
    catalog = semiprime_catalog(bit_width)
    if not catalog:
        raise ValueError(f"no semiprimes for bit width {bit_width}")
    if semiprime is None:
        inst = catalog[0]
    else:
        matches = [c for c in catalog if c.semiprime == semiprime]
        if not matches:
            raise ValueError(f"{semiprime} is not in the {bit_width}-bit catalog "
                             "of semiprimes with full-width factors")
        inst = matches[0]
    wa, wb = factor_widths(bit_width)
    # orient the narrow factor along the rows: fewer, wider ripple chains
    netlist = build_multiplier(wb, wa)
    cnf = encode_netlist(netlist, inst.semiprime, option)
    return cnf, netlist, inst
