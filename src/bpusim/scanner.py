r"""Static gadget scanner over normalized disassembly text.

Input format, one instruction per line::

    ADDR: MNEMONIC OPERANDS

Hex address (with or without a lower-case 0x), a colon, then
whitespace-separated mnemonic and comma-separated operands. Addresses must
be strictly increasing. `#` starts a comment. Operands are registers,
immediates and `[base+index*scale+disp]` memory references. Every operand
number is decimal or 0x-prefixed hex with an optional leading minus
(`program.parse_int`): a number without `0x` (a jump target included) is
read as decimal, and `+7`, `--5`, `1_000` or `- 5` are rejected. A memory
reference holds at most two registers, of which at most one is an index (a
scaled register, or the second unscaled one), and a scale is 1, 2, 4 or 8;
anything else is rejected rather than read with a register dropped. This
normalized format is the only input accepted: raw `objdump` output is
rejected at its section headers, `<sym>` labels and `rip`-relative
operands, and its bare-hex jump targets (`je 2012`) are misread as decimal.

`parse_disasm` takes a string or a text file and reads it one line at a
time, so a listing is held only as its records. A line ends at `\n`,
`\r\n` or `\r`; no other character (`\f`, `\v`, `\x85`, `\u2028`, ...)
ends one. The `scan` command opens a listing as UTF-8 with
`errors="surrogateescape"`, and a line that is not ASCII is decoded again
strictly, so a byte that is not UTF-8 is a parse error of its line. The
first faulty line is reported, whether it fails to decode or to parse.

Records, operands and memory references are named tuples. Parsing splits
each line at its first colon and at whitespace, with no regular
expression: the address is checked against the format's characters
before `int(head, 16)` reads it. It reads each distinct operand text once
per listing (records with the same text share one operand tuple). The
records hold no reference cycle, so the `scan` command pauses the cyclic
garbage collector while it runs; this module leaves the collector alone.
Scan time is linear in the number of records: each search for the Jcc
that reads a TEST's or CMP's flags is a forward walk that ends at the next
flag writer, and jump targets and sites are found by bisecting the
strictly increasing addresses.

Scanning rules (documented approximations):

* Taint is intra-straight-line and copy-only: the tracked registers are
  tainted at the start of every straight-line run (any control-flow
  instruction ends a run), MOV/MOVZX/MOVSX/MOVSXD/LEA propagate taint from a
  tainted register or a memory operand addressed through a tainted
  register, and any other write to a register clears its taint. XCHG of two
  registers swaps their taint; XCHG with a memory operand gives the
  register what a MOV load from that operand would. Taint is tracked at
  full-register granularity.
* A TEST of a tainted operand followed by a conditional jump forms a v2
  site; any flag-writing (or unknown) instruction between them
  invalidates the pair. TEST with a one-or-more-bit immediate leaks those
  bit positions (shifted by the sub-register offset, e.g. DH -> +8);
  TEST reg,reg is a whole-operand zero-test and stays out of the
  bit-offset histogram.
* The port-contention subset uses a small mnemonic -> port-set table
  modeled on public Skylake scheduling tables (an acknowledged
  approximation). A v2 site qualifies when the first B instructions of
  the taken and fall-through paths (B = `PATH_LENGTH` = 8) are both
  complete (terminated by control flow or reaching B) and their dominant
  (argmax-count) port sets are non-empty and disjoint. Control-flow
  instructions do not count toward ports; unknown mnemonics count as
  no-port and are reported as diagnostics.
* The v1 scan is a heuristic: a CMP-shaped bounds check, then within a
  window on the taken or fall-through path a load indexed by the
  compared register, then a conditional branch whose flags derive from
  the loaded register.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from bisect import bisect_left
from operator import itemgetter
from typing import NamedTuple

from .program import parse_int


class DisasmParseError(ValueError):
    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


# canonical 64-bit name -> aliases with sub-register bit offsets
def _build_registers() -> dict[str, tuple[str, int]]:
    table: dict[str, tuple[str, int]] = {}
    legacy = {
        "rax": ("eax", "ax", "al", "ah"),
        "rbx": ("ebx", "bx", "bl", "bh"),
        "rcx": ("ecx", "cx", "cl", "ch"),
        "rdx": ("edx", "dx", "dl", "dh"),
        "rsi": ("esi", "si", "sil", None),
        "rdi": ("edi", "di", "dil", None),
        "rbp": ("ebp", "bp", "bpl", None),
        "rsp": ("esp", "sp", "spl", None),
    }
    for canon, (e, w, lo, hi) in legacy.items():
        table[canon] = (canon.upper(), 0)
        table[e] = (canon.upper(), 0)
        table[w] = (canon.upper(), 0)
        table[lo] = (canon.upper(), 0)
        if hi:
            table[hi] = (canon.upper(), 8)
    for i in range(8, 16):
        canon = f"r{i}"
        for alias in (canon, f"r{i}d", f"r{i}w", f"r{i}b"):
            table[alias] = (canon.upper(), 0)
    return table


REGISTERS = _build_registers()

JCC = {
    "ja", "jae", "jb", "jbe", "jc", "jnc", "je", "jne", "jg", "jge", "jl",
    "jle", "jo", "jno", "jp", "jnp", "js", "jns", "jz", "jnz", "jecxz", "jrcxz",
}
CONTROL_FLOW = JCC | {"jmp", "call", "ret"}
# every other mnemonic, an unknown one included, is taken to write the flags
NON_FLAG_WRITERS = {
    "mov", "movzx", "movsx", "movsxd", "lea", "nop", "push", "pop", "xchg",
}
# instructions whose first register operand is (over)written; only these
# can change taint
WRITES_DEST = {
    "mov", "movzx", "movsx", "movsxd", "lea", "add", "sub", "and", "or", "xor",
    "imul", "inc", "dec", "neg", "not", "shl", "shr", "sar", "rol", "ror",
    "pop", "adc", "sbb", "popcnt", "lzcnt", "tzcnt", "bsf", "bsr", "xchg",
}
COPY_MNEMONICS = {"mov", "movzx", "movsx", "movsxd"}

PORT_TABLE: dict[str, frozenset[int]] = {}
for _m in ("add", "sub", "and", "or", "xor", "test", "cmp", "mov", "lea",
           "nop", "inc", "dec", "neg", "not", "movzx", "movsx", "movsxd"):
    PORT_TABLE[_m] = frozenset({0, 1, 5, 6})
for _m in ("imul", "mul", "popcnt", "lzcnt", "tzcnt", "bsf", "bsr", "crc32"):
    PORT_TABLE[_m] = frozenset({1})
for _m in ("div", "idiv", "aesenc", "aesdec"):
    PORT_TABLE[_m] = frozenset({0})
for _m in ("shl", "shr", "sar", "rol", "ror", "shld", "shrd"):
    PORT_TABLE[_m] = frozenset({0, 6})
for _m in ("mulps", "mulpd", "mulss", "mulsd", "addps", "addpd", "addss", "addsd"):
    PORT_TABLE[_m] = frozenset({0, 1})
for _m in CONTROL_FLOW:
    PORT_TABLE[_m] = frozenset({6})

DEFAULT_TRACKED = ("RDI", "RSI", "RDX", "RCX")
# B, the number of instructions of each path the port-contention scan compares
PATH_LENGTH = 8


# Records are named tuples: cheap to build, and the scans read their fields
# by index (a named-tuple attribute read is slower than a tuple index).
class Memory(NamedTuple):
    base: str | None = None
    index: str | None = None
    scale: int = 1
    displacement: int = 0


class Operand(NamedTuple):
    register: str | None = None
    immediate: int | None = None
    memory: Memory | None = None


class DisasmRecord(NamedTuple):
    addr: int
    mnemonic: str
    operands: tuple[Operand, ...]


_SIZE_PREFIX = re.compile(r"^(byte|word|dword|qword)\s+ptr\s+", re.IGNORECASE)
_SLICE = r"(?s).{1,16384}[^\n]*\n?"  # 16,384 characters, on to a `\n`; compiled on first use
_NUMBER_START = frozenset("0123456789-")


def _number(tok: str, lineno: int) -> int:
    try:
        return parse_int(tok)
    except ValueError:
        raise DisasmParseError(lineno, f"bad numeric token {tok!r}") from None


def _parse_memory(text: str, lineno: int) -> Memory:
    inner = text.strip()[1:-1].strip()
    if not inner:
        raise DisasmParseError(lineno, "empty memory operand")
    base = index = None
    scale = 1
    disp = 0
    terms = inner.replace("-", "+-").split("+")
    if inner.startswith("-"):  # `[-8]`: the split leaves an empty first term
        del terms[0]
    for term in terms:
        term = term.strip()
        if not term:
            raise DisasmParseError(lineno, f"empty term in memory operand {text!r}")
        if "*" in term:
            reg, _, s = term.partition("*")
            reg = reg.strip().lower()
            if reg not in REGISTERS:
                raise DisasmParseError(lineno, f"unknown index register {reg!r}")
            if index is not None:
                raise DisasmParseError(
                    lineno, f"more than one index register in {text!r}")
            index = REGISTERS[reg][0]
            scale = _number(s.strip(), lineno)
            if scale not in (1, 2, 4, 8):
                raise DisasmParseError(
                    lineno, f"scale {scale} is not 1, 2, 4 or 8 in {text!r}")
        elif term.lower() in REGISTERS:
            canon = REGISTERS[term.lower()][0]
            if base is None:
                base = canon
            elif index is None:
                index = canon
            else:
                raise DisasmParseError(lineno, f"too many registers in {text!r}")
        elif term.startswith("-"):  # `rax - 8` reads like `rax + 8`
            disp += _number("-" + term[1:].lstrip(), lineno)
        else:
            disp += _number(term, lineno)
    return Memory(base, index, scale, disp)


def _parse_operand(text: str, lineno: int) -> Operand:
    text = text.strip()
    if text[:1] in _NUMBER_START:  # no register, size prefix or `[` starts so
        return Operand(immediate=_number(text, lineno))
    prefix = _SIZE_PREFIX.match(text)
    stripped = text[prefix.end():] if prefix else text
    if stripped.startswith("["):
        if not stripped.endswith("]"):
            raise DisasmParseError(lineno, f"unterminated memory operand {text!r}")
        return Operand(memory=_parse_memory(stripped, lineno))
    low = stripped.lower()
    if low in REGISTERS:
        return Operand(register=low)
    return Operand(immediate=_number(stripped, lineno))


def parse_disasm(stream) -> list[DisasmRecord]:
    r"""Parse normalized disassembly: a string, or a text file to iterate.

    The input is read one line at a time and never whole: a string through
    `io.StringIO(part, newline=None)` per `_SLICE` part, a file by iterating
    it. A line ends at `\n`, `\r\n` or `\r`; `\f`, `\v` and the other
    `str.splitlines` breaks do not end one. A line that is not ASCII is
    encoded back with `surrogateescape` and decoded strictly, so a byte that
    is not UTF-8, which a file opened with `errors="surrogateescape"` keeps
    as a lone surrogate, raises `DisasmParseError` with the codec's message
    and the byte's position within the line. The first faulty line is
    reported, whether it fails to decode or to parse.

    A line is read as `HEAD:BODY` at its first colon. HEAD is the address:
    `(?:0x)?[0-9a-fA-F]+` with optional trailing whitespace. BODY is the
    mnemonic, then whitespace and the operand text, if any.

    Each distinct operand text is parsed once per call, and records with the
    same text share one operand tuple; records with the same mnemonic share
    its lower-case string."""
    if isinstance(stream, str):  # part by part: StringIO copies at 4 bytes a character
        stream = (x for m in re.finditer(_SLICE, stream) for x in io.StringIO(m[0], newline=None))
    records: list[DisasmRecord] = []
    # tuple.__new__ builds a record without the named tuple's Python __new__
    append, new, intern = records.append, tuple.__new__, sys.intern
    # operand text -> its operands, shared by every record with that text
    parsed: dict[str, tuple[Operand, ...]] = {}
    last = -1
    for lineno, raw in enumerate(stream, start=1):
        if not raw.isascii():
            try:
                raw = raw.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeError as exc:
                raise DisasmParseError(lineno, str(exc)) from None
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        head, _, body = line.partition(":")
        head = head.rstrip()
        parts = body.split(None, 1)  # empty also when the line has no colon
        # int(head, 16) alone would also take a sign, `_`, a `0X` prefix and
        # non-ASCII digits; ASCII letters and digits leave only the format's
        # hex digits and `0x` prefix for int() to accept
        try:
            if not (parts and head.isascii() and head.isalnum()) or head.startswith("0X"):
                raise ValueError(head)
            addr = int(head, 16)
        except ValueError:
            raise DisasmParseError(lineno, f"unrecognized line {line!r}") from None
        ops = ()
        if len(parts) == 2:
            rest = parts[1]
            ops = parsed.get(rest)
            if ops is None:
                ops = parsed[rest] = tuple(
                    [_parse_operand(part, lineno) for part in rest.split(",")])
        if addr <= last:
            raise DisasmParseError(lineno, f"address {addr:#x} not increasing")
        last = addr
        append(new(DisasmRecord, (addr, intern(parts[0].lower()), ops)))
    return records


# ---------------------------------------------------------------------------
# sites and taint

class GadgetSite(NamedTuple):
    addr: int
    classification: str
    register: str | None
    bit_positions: tuple[int, ...]


def _canon(name: str) -> str:
    return REGISTERS[name][0]


def _writes_flags(rec: DisasmRecord) -> bool:
    return rec[1] not in NON_FLAG_WRITERS and rec[1] not in CONTROL_FLOW


def _mem_taint_origin(mem: Memory, taint: dict[str, str]) -> str | None:
    for reg in (mem[0], mem[1]):  # base, index
        if reg is not None and reg in taint:
            return taint[reg]
    return None


def _bits_of(imm: int, offset: int) -> tuple[int, ...]:
    """Set bit positions of the 64-bit two's-complement `imm`, plus `offset`."""
    imm &= 0xFFFF_FFFF_FFFF_FFFF
    bits = []
    while imm:
        low = imm & -imm
        bits.append(offset + low.bit_length() - 1)
        imm ^= low
    return tuple(bits)


def _flag_reader(records: list[DisasmRecord], i: int) -> int | None:
    """Index of the Jcc that reads the flags record i leaves: the first later
    Jcc with no control-flow or flag-writing record in between, else None.

    The walk stops at the first record that is not in NON_FLAG_WRITERS, and
    TEST and CMP are not, so the walks from a listing's TEST and CMP records
    never overlap and take linear time in total."""
    for k in range(i + 1, len(records)):
        mnemonic = records[k][1]
        if mnemonic in JCC:
            return k
        # flags pass through a record only if it neither writes them nor
        # transfers control: exactly NON_FLAG_WRITERS
        if mnemonic not in NON_FLAG_WRITERS:
            return None
    return None


_ADDR = itemgetter(0)


def _index_of(records: list[DisasmRecord], addr: int) -> int | None:
    """Index of the record at `addr`, else None; a bisection, since
    addresses strictly increase."""
    k = bisect_left(records, addr, key=_ADDR)
    return k if k < len(records) and records[k][0] == addr else None


def _target_index(records: list[DisasmRecord], jcc: DisasmRecord) -> int | None:
    """Index of the record a jump's immediate target names, else None."""
    ops = jcc[2]
    if ops and ops[0][1] is not None:
        return _index_of(records, ops[0][1])
    return None


def scan_v2(records: list[DisasmRecord],
            tracked=DEFAULT_TRACKED) -> list[GadgetSite]:
    """Tainted TEST -> Jcc transmitter sites."""
    fresh = {r: r for r in map(str.upper, tracked)}
    sites: list[GadgetSite] = []
    taint = fresh.copy()
    for i, rec in enumerate(records):
        mnemonic = rec[1]
        if mnemonic in CONTROL_FLOW:
            taint = fresh.copy()
        elif mnemonic == "test":
            if len(rec[2]) == 2:
                site = _classify_test(rec, taint)
                if site is not None and _flag_reader(records, i) is not None:
                    sites.append(site)
        elif mnemonic in WRITES_DEST:
            _propagate_taint(rec, taint)
    return sites


def _classify_test(rec: DisasmRecord, taint: dict[str, str]) -> GadgetSite | None:
    a, b = rec[2]
    reg, imm = a[0], b[1]
    if a[2] is not None and imm is not None:
        origin = _mem_taint_origin(a[2], taint)
        if origin is None:
            return None
        return GadgetSite(rec[0], "v2", origin, _bits_of(imm, 0))
    if reg is not None and imm is not None:
        origin = taint.get(_canon(reg))
        if origin is None:
            return None
        return GadgetSite(rec[0], "v2", origin, _bits_of(imm, REGISTERS[reg][1]))
    if reg is not None and b[0] is not None:
        origin = taint.get(_canon(reg)) or taint.get(_canon(b[0]))
        if origin is None:
            return None
        return GadgetSite(rec[0], "v2-zero-test", origin, ())
    return None


def _propagate_taint(rec: DisasmRecord, taint: dict[str, str]) -> None:
    """Apply the register write of a WRITES_DEST record to `taint`."""
    mnemonic, ops = rec[1], rec[2]
    if mnemonic == "xchg" and len(ops) == 2:
        a, b = ops
        if a[0] is not None and b[0] is not None:  # the registers swap taint
            ra, rb = _canon(a[0]), _canon(b[0])
            ta, tb = taint.pop(ra, None), taint.pop(rb, None)
            if tb is not None:
                taint[ra] = tb
            if ta is not None:
                taint[rb] = ta
            return
        # the register takes what a `mov` load from the other operand gives it
        mnemonic, ops = "mov", (ops if a[0] is not None else (b, a))
    if not ops or ops[0][0] is None:
        return
    dst = _canon(ops[0][0])
    origin = None
    if len(ops) == 2 and (mnemonic in COPY_MNEMONICS or mnemonic == "lea"):
        src = ops[1]
        if src[2] is not None:
            origin = _mem_taint_origin(src[2], taint)
        elif src[0] is not None and mnemonic != "lea":
            origin = taint.get(_canon(src[0]))
    if origin is not None:
        taint[dst] = origin
    else:
        taint.pop(dst, None)


# ---------------------------------------------------------------------------
# v1 heuristic

def scan_v1(records: list[DisasmRecord], window: int = 16) -> list[GadgetSite]:
    """Bounds-check branch followed by a dependent load + conditional branch."""
    sites: list[GadgetSite] = []
    for i, rec in enumerate(records):
        if rec[1] != "cmp":
            continue
        ops = rec[2]
        if len(ops) != 2 or ops[0][0] is None:
            continue
        j = _flag_reader(records, i)
        if j is None:
            continue
        compared = _canon(ops[0][0])
        paths = [j + 1]
        tgt = _target_index(records, records[j])
        if tgt is not None:
            paths.append(tgt)
        if any(_path_has_dependent_branch(records, start, compared, window)
               for start in paths):
            sites.append(GadgetSite(rec[0], "v1", compared, ()))
    return sites


def _path_has_dependent_branch(records, start: int, compared: str, window: int) -> bool:
    loaded: str | None = None
    armed = False
    for rec in records[start:start + window]:
        mnemonic, ops = rec[1], rec[2]
        if mnemonic in JCC:
            if armed:
                return True
            continue
        if mnemonic in CONTROL_FLOW:
            return False
        if (mnemonic in COPY_MNEMONICS and len(ops) == 2
                and ops[0][0] is not None and ops[1][2] is not None):
            mem = ops[1][2]
            if compared == mem[0] or compared == mem[1]:
                loaded = _canon(ops[0][0])
                armed = False
                continue
        if _writes_flags(rec):
            armed = loaded is not None and any(
                op[0] is not None and _canon(op[0]) == loaded for op in ops)
    return False


# ---------------------------------------------------------------------------
# port-contention subset

def scan_smotherspectre(
    records: list[DisasmRecord],
    tracked=DEFAULT_TRACKED,
    diagnostics: set | None = None,
) -> list[GadgetSite]:
    """v2 sites whose taken / fall-through paths show disjoint dominant ports."""
    out = []
    for site in scan_v2(records, tracked):
        j = _flag_reader(records, _index_of(records, site.addr))
        fall = _path_ports(records, j + 1, diagnostics)
        tgt = _target_index(records, records[j])
        taken = None if tgt is None else _path_ports(records, tgt, diagnostics)
        if fall and taken and not fall & taken:  # None: an incomplete path
            out.append(site)
    return out


def _path_ports(records, start: int, diagnostics) -> frozenset[int] | None:
    """Dominant port set of a path's first PATH_LENGTH instructions; None
    when the path runs off the end of the input (incomplete)."""
    counts: dict[int, int] = {}
    path = records[start:start + PATH_LENGTH]
    for rec in path:
        mnemonic = rec[1]
        if mnemonic in CONTROL_FLOW:
            break
        ports = PORT_TABLE.get(mnemonic)
        if ports is None:
            if diagnostics is not None:
                diagnostics.add(mnemonic)
            continue
        for p in ports:
            counts[p] = counts.get(p, 0) + 1
    else:
        if len(path) < PATH_LENGTH:
            return None
    if not counts:
        return frozenset()
    best = max(counts.values())
    return frozenset(p for p, c in counts.items() if c == best)


# ---------------------------------------------------------------------------
# report

class GadgetReport(NamedTuple):
    binary_name: str
    v2_count: int
    smotherspectre_count: int
    v1_count: int
    bit_offsets: dict[str, set[int]]
    gadget_sites: list[tuple[int, str, str | None, tuple[int, ...], bool]]
    unknown_mnemonics: set[str]

    def to_dict(self) -> dict:
        """The report as plain JSON-ready data."""
        return {
            "binary_name": self.binary_name,
            "v2_count": self.v2_count,
            "smotherspectre_count": self.smotherspectre_count,
            "v1_count": self.v1_count,
            "bit_offsets": {r: sorted(b) for r, b in self.bit_offsets.items()},
            "gadget_sites": [
                {
                    "addr": f"{addr:#x}",
                    "classification": cls,
                    "register": reg,
                    "bit_positions": list(bits),
                    "smotherspectre": ss,
                }
                for addr, cls, reg, bits, ss in self.gadget_sites
            ],
            "unknown_mnemonics": sorted(self.unknown_mnemonics),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["addr", "classification", "register", "bit_positions",
                    "smotherspectre"])
        for addr, cls, reg, bits, ss in self.gadget_sites:
            w.writerow([f"{addr:#x}", cls, reg or "",
                        ";".join(str(b) for b in bits), str(ss).lower()])
        return buf.getvalue()


def build_report(
    binary_name: str,
    records: list[DisasmRecord],
    tracked=DEFAULT_TRACKED,
    window: int = 16,
    mode: str = "all",
) -> GadgetReport:
    """Run the selected scans and aggregate counts + bit-offset histogram.

    `records` must have strictly increasing addresses, as `parse_disasm`
    returns them: jump targets are found by bisection."""
    if mode not in {"v1", "v2", "ss", "all"}:
        raise ValueError(f"unknown scan mode {mode!r}")
    diagnostics: set[str] = set()
    v2 = scan_v2(records, tracked) if mode in {"v2", "ss", "all"} else []
    ss = (scan_smotherspectre(records, tracked, diagnostics=diagnostics)
          if mode in {"ss", "all"} else [])
    v1 = scan_v1(records, window) if mode in {"v1", "all"} else []
    ss_addrs = {s.addr for s in ss}
    bit_offsets: dict[str, set[int]] = {}
    rows = []
    for site in v2 + v1:
        if site.classification == "v2" and site.register is not None:
            bit_offsets.setdefault(site.register, set()).update(site.bit_positions)
        rows.append((site.addr, site.classification, site.register,
                     site.bit_positions, site.addr in ss_addrs))
    rows.sort(key=lambda r: (r[0], r[1]))
    return GadgetReport(
        binary_name=binary_name,
        v2_count=len(v2),
        smotherspectre_count=len(ss),
        v1_count=len(v1),
        bit_offsets=bit_offsets,
        gadget_sites=rows,
        unknown_mnemonics=diagnostics,
    )
