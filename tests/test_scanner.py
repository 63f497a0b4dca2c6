from __future__ import annotations

import importlib.resources
import io
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from bpusim import scanner
from bpusim.scanner import (
    CONTROL_FLOW,
    DEFAULT_TRACKED,
    JCC,
    DisasmParseError,
    DisasmRecord,
    Memory,
    _bits_of,
    _flag_reader,
    _parse_operand,
    _writes_flags,
    build_report,
    parse_disasm,
    scan_smotherspectre,
    scan_v1,
    scan_v2,
)

CORPUS = importlib.resources.files("bpusim") / "data" / "corpus"


def _load(name):
    return parse_disasm((CORPUS / name).read_text())


def _manifest():
    return json.loads((CORPUS / "manifest.json").read_text())


# ---------------------------------------------------------------------------
# parsing

def test_parse_register_and_immediate_operands():
    recs = parse_disasm("401000: test dl, 0x2\n401002: jne 0x401020\n")
    assert recs[0].addr == 0x401000 and recs[0].mnemonic == "test"
    assert recs[0].operands[0].register == "dl"
    assert recs[0].operands[1].immediate == 2
    assert recs[1].operands[0].immediate == 0x401020


def test_parse_memory_operands():
    recs = parse_disasm("401000: mov rax, qword ptr [rbx+rcx*4+0x10]\n")
    mem = recs[0].operands[1].memory
    assert mem == Memory(base="RBX", index="RCX", scale=4, displacement=0x10)
    recs = parse_disasm("401000: mov al, byte ptr [rdx-0x8]\n")
    assert recs[0].operands[1].memory == Memory(base="RDX", displacement=-8)


def test_parse_skips_comments_and_blank_lines():
    assert parse_disasm("# header\n\n401000: nop\n")[0].mnemonic == "nop"
    assert parse_disasm("") == []


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DisasmParseError) as err:
        parse_disasm("401000: nop\ngarbage\n")
    assert err.value.lineno == 2
    with pytest.raises(DisasmParseError):
        parse_disasm("401000: nop\n401000: nop\n")  # not strictly increasing
    with pytest.raises(DisasmParseError):
        parse_disasm("401000: mov rax, [qqq]\n")


@pytest.mark.parametrize("operand, reason", [
    # a third register: RCX took the index slot, so RDX would replace it
    ("[rbx+rcx+rdx*2]", "more than one index register"),
    # two scaled terms: RDI would replace RSI
    ("[rsi*2+rdi*4]", "more than one index register"),
    ("[rbx*3]", "scale 3 is not 1, 2, 4 or 8"),
])
def test_parse_rejects_memory_operands_that_drop_a_register(operand, reason):
    with pytest.raises(DisasmParseError) as err:
        parse_disasm(f"401000: nop\n401001: mov rax, qword ptr {operand}\n")
    assert err.value.lineno == 2
    assert err.value.reason.startswith(reason)
    assert operand in err.value.reason


@pytest.mark.parametrize("operand, memory", [
    ("[-8]", Memory(displacement=-8)),
    ("[rax-8]", Memory(base="RAX", displacement=-8)),
    ("[rax - 8]", Memory(base="RAX", displacement=-8)),
    ("[rax+rbx*4-0x10]", Memory(base="RAX", index="RBX", scale=4, displacement=-0x10)),
])
def test_parse_memory_signed_terms(operand, memory):
    assert parse_disasm(f"401000: mov rax, {operand}\n")[0].operands[1].memory == memory


@pytest.mark.parametrize("operand", ["[rax++7]", "[rax+]", "[+rax]", "[rax+ +8]", "[rax+-8]"])
def test_parse_rejects_empty_memory_terms(operand):
    with pytest.raises(DisasmParseError) as err:
        parse_disasm(f"401000: nop\n401001: mov rax, qword ptr {operand}\n")
    assert err.value.lineno == 2
    assert err.value.reason == f"empty term in memory operand {operand!r}"


@pytest.mark.parametrize("instruction, value", [
    ("mov rax, -8", -8), ("mov rax, 0x10", 0x10), ("mov rax, 0X1F", 0x1F),
    ("mov rax, 42", 42), ("jne 0x401000", 0x401000),
    ("mov rax, --5", None), ("mov rax, +7", None), ("mov rax, 1_000", None),
    ("mov rax, 0x_ff", None), ("jne 0x40_1000", None), ("mov rax, - 5", None),
    ("mov rax, [rdx+0x_8]", None), ("mov rax, -", None), ("mov rax, 0x", None),
])
def test_parse_numbers_are_decimal_or_hex(instruction, value):
    text = f"401000: nop\n401001: {instruction}\n"
    if value is None:
        with pytest.raises(DisasmParseError) as err:
            parse_disasm(text)
        assert err.value.lineno == 2
        assert err.value.reason.startswith("bad numeric token")
    else:
        assert parse_disasm(text)[1].operands[-1].immediate == value


def test_parse_accepts_every_x86_scale():
    for scale in (1, 2, 4, 8):
        recs = parse_disasm(f"401000: lea rax, [rbx+rcx*{scale}+0x8]\n")
        assert recs[0].operands[1].memory == Memory("RBX", "RCX", scale, 8)


_LINE = re.compile(r"^\s*(?:0x)?([0-9a-fA-F]+)\s*:\s*(\S+)(?:\s+(.*))?$")


def _reference_parse_disasm(text):
    """The parser `parse_disasm` replaced: it matches every line against the
    `_LINE` regex and parses every operand text again on every line that
    holds it."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE.match(line)
        if m is None:
            raise DisasmParseError(lineno, f"unrecognized line {line!r}")
        addr = int(m.group(1), 16)
        mnemonic = m.group(2).lower()
        ops = []
        rest = m.group(3)
        if rest:
            for part in rest.split(","):
                ops.append(_parse_operand(part, lineno))
        if records and addr <= records[-1].addr:
            raise DisasmParseError(lineno, f"address {addr:#x} not increasing")
        records.append(DisasmRecord(addr, mnemonic, tuple(ops)))
    return records


# repeated operand texts and both sides of the memory and size-prefix rules
_OPERAND_TEXTS = [
    "", "rdi, 0x1", "dl, 0x4", "rax, rdi", "rax", "0x401000", "-0x8",
    "rax, qword ptr [rbx+rcx*4+0x10]", "BYTE PTR [rsi-0x4], 0x8",
    "eax, dword ptr [rdi]",
]
# an unknown register, a bad number, a lost register
_BAD_OPERAND_TEXTS = ["[qqq]", "rax, 0xzz", "rax, [rsi*2+rdi*4]"]


_FAULTS = ("operand", "line", "address", "operand address")
# lone surrogates stand for bytes that are not UTF-8, as a file opened with
# errors="surrogateescape" reads them: a stray lead byte, 0xff, and an
# encoded surrogate
_BAD_BYTES = ["\udcc3", "\udcff", "\udced\udca0\udc80"]


@st.composite
def _listing_lines(draw, faults=_FAULTS):
    """Up to 30 listing lines; up to two of them carry a fault drawn from
    `faults`: a bad operand text, an unrecognized line, an address that does
    not increase, both a bad operand text and such an address, or ("byte")
    a byte that is not UTF-8 in the operands or the comment."""
    n = draw(st.integers(0, 30))
    faults_at = {}
    if n:
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            faults_at[i] = draw(st.sampled_from(faults))
    lines = []
    addr = 0x1000
    for i in range(n):
        fault = faults_at.get(i, "")
        kind = draw(st.sampled_from(["ins"] * 6 + ["blank", "comment"]))
        if fault == "line":
            lines.append("garbage")
        elif kind == "blank" and not fault:
            lines.append(draw(st.sampled_from(["", "   "])))
        elif kind == "comment" and not fault:
            lines.append("# a comment")
        else:
            addr = max(0, addr + (draw(st.integers(-2, 0)) if "address" in fault
                                  else draw(st.integers(1, 8))))
            mnemonic = draw(st.sampled_from(["mov", "TEST", "jne", "nop"]))
            operands = draw(st.sampled_from(
                _BAD_OPERAND_TEXTS if "operand" in fault else _OPERAND_TEXTS))
            # "0X" and "+": int(head, 16) accepts both, the format neither
            prefix = draw(st.sampled_from(["", "0x", "  "] * 4 + ["0X", "+"]))
            note = draw(st.sampled_from(["", "  # note", "# x, y", "  # \u00e9 \u4e2d"]))
            if fault == "byte":
                bad = draw(st.sampled_from(_BAD_BYTES))
                if draw(st.booleans()):
                    operands += bad
                else:
                    note = "  # " + bad
            lines.append(f"{prefix}{addr:x}: {mnemonic} {operands}{note}")
    return lines


@st.composite
def _listing_texts(draw):
    r"""Listings whose lines end in `\n`, with the faults of `_listing_lines`
    other than a byte that is not UTF-8."""
    return "\n".join(draw(_listing_lines()))


@st.composite
def _listing_bytes(draw):
    r"""Listings as bytes, each line ended by `\n`, `\r\n` or `\r` (the
    last one maybe by nothing), with every fault of `_listing_lines`. Two
    in five listings end every line in `\n`, and one in five mixes all
    three endings."""
    lines = draw(_listing_lines(faults=(*_FAULTS, "byte")))
    endings = draw(st.sampled_from([("\n",), ("\n",), ("\r\n",), ("\r",),
                                    ("\n", "\r\n", "\r")]))
    ends = draw(st.lists(st.sampled_from(endings), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if ends and draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return text.encode("utf-8", "surrogateescape")


def _outcome(parse, text):
    try:
        return parse(text)
    except DisasmParseError as err:
        return (err.lineno, err.reason)


@settings(max_examples=400, deadline=None)
@given(_listing_texts())
def test_parse_disasm_matches_the_per_line_reference(text):
    assert _outcome(parse_disasm, text) == _outcome(_reference_parse_disasm, text)


def _as_scan_reads(data: bytes) -> io.TextIOWrapper:
    """`data` as a text file, opened as `bpusim scan` opens a listing."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def _reference_outcome(text):
    """`_reference_parse_disasm`'s outcome, except that the first line that
    does not decode as UTF-8 is reported unless an earlier line fails."""
    lines = text.splitlines(keepends=True)
    for lineno, line in enumerate(lines, start=1):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as err:
            before = _outcome(_reference_parse_disasm, "".join(lines[:lineno - 1]))
            return before if isinstance(before, tuple) else (lineno, str(err))
    return _outcome(_reference_parse_disasm, text)


@settings(max_examples=400, deadline=None)
@given(_listing_bytes())
def test_a_string_and_its_bytes_read_as_scan_reads_them_parse_alike(data):
    text = data.decode("utf-8", "surrogateescape")
    outcome = _outcome(parse_disasm, _as_scan_reads(data))
    assert _outcome(parse_disasm, text) == outcome
    if "\r" not in text:
        assert outcome == _reference_outcome(text)


@pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_only_newline_and_carriage_return_end_a_line(brk):
    text = f"10: nop{brk}20: nop\n"
    assert len(_reference_parse_disasm(text)) == 2  # str.splitlines breaks there
    assert _outcome(parse_disasm, text) == (1, "bad numeric token '20: nop'")


def test_a_line_ends_at_newline_carriage_return_or_both():
    assert parse_disasm("10: nop\r20: nop\r\n30: nop\n\r\n40: nop") == [
        DisasmRecord(addr, "nop", ()) for addr in (0x10, 0x20, 0x30, 0x40)]
    assert _outcome(parse_disasm, "10: nop\r\r\nbogus\n") == (3, "unrecognized line 'bogus'")


class _Unreadable(io.StringIO):
    """A text file that can be iterated but not read whole."""

    def read(self, *args):
        raise AssertionError("the whole file was read")

    readlines = read


def test_parse_disasm_iterates_a_file_without_reading_it_whole():
    text = "".join(f"{0x1000 + 4 * i:x}: test dl, 0x{i % 7 + 1:x}\n" for i in range(2000))
    records = parse_disasm(_Unreadable(text))
    assert len(records) == 2000 and records == parse_disasm(text)


def test_a_string_parses_in_about_the_memory_of_its_file(tmp_path):
    """Parsing a 20,000-line listing from a string peaks (`tracemalloc`)
    within 256 KiB of parsing it from a file opened as `bpusim scan` opens
    it: a string is read part by part, so only a part, not the whole text,
    is copied at StringIO's 4 bytes a character (about 3.9 MB here)."""
    regs = ["rax", "rbx", "rcx", "rdx", "rsi", "rdi"]
    text = "".join(f"{0x1000 + 4 * i:x}: mov {regs[i % 6]}, qword ptr [rbp - 0x{i % 9 + 1:x}8]"
                   f"  # load {i % 13}\n" for i in range(20_000))
    path = tmp_path / "listing.disasm"
    path.write_text(text)

    def peak(parse):
        tracemalloc.start()
        try:
            records = parse()
            return tracemalloc.get_traced_memory()[1], records
        finally:
            tracemalloc.stop()

    def from_file():
        with path.open(encoding="utf-8", errors="surrogateescape") as lines:
            return parse_disasm(lines)

    (from_str, records), (from_path, expected) = peak(lambda: parse_disasm(text)), peak(from_file)
    assert records == expected and len(records) == 20_000
    assert from_str <= from_path + (1 << 18)


@pytest.mark.parametrize("line", [
    # address heads that int(head, 16) reads, or that hold no hex digits
    *(f"{head} nop" for head in ("0X10:", "+10:", "-10:", "1_0:", "0x_10:",
                                 "\u0661\u0660:", "0x:", ":", "0x 10:")),
    "10:", "10 nop",  # no mnemonic, no colon
])
def test_parse_refuses_lines_outside_the_format(line):
    text = f"0x8: nop\n{line}\n"
    assert _outcome(parse_disasm, text) == _outcome(_reference_parse_disasm, text) \
        == (2, f"unrecognized line {line!r}")


@pytest.mark.parametrize("head, addr", [("0x10  :", 0x10), ("AbC:", 0xABC)])
def test_parse_accepts_address_heads_of_the_format(head, addr):
    text = f"{head} nop\n"
    assert _outcome(parse_disasm, text) == _outcome(_reference_parse_disasm, text)
    assert parse_disasm(text)[0].addr == addr


def test_parse_disasm_parses_each_distinct_operand_text_once(monkeypatch):
    parsed = []

    def counting(text, lineno):
        parsed.append(text)
        return _parse_operand(text, lineno)

    monkeypatch.setattr(scanner, "_parse_operand", counting)
    texts = ["rdi, 0x1", "rax, qword ptr [rsi+0x8]", "rdi, 0x1", "", "0x1000",
             "rax, qword ptr [rsi+0x8]", "rdi, 0x1", "0x1000"]
    recs = parse_disasm("".join(f"{0x1000 + 4 * i:x}: mov {t}\n"
                                for i, t in enumerate(texts)))
    assert len(recs) == len(texts)
    distinct = {t for t in texts if t}
    assert len(parsed) == sum(len(t.split(",")) for t in distinct) == 5
    assert recs[0].operands is recs[2].operands is recs[6].operands
    assert recs[1].operands is recs[5].operands
    assert recs[4].operands is recs[7].operands
    assert recs[3].operands == ()


# ---------------------------------------------------------------------------
# v2 taint rules

def test_v2_listing_style_bit_pairs():
    recs = parse_disasm(
        "401000: test dl, 0x2\n"
        "401002: jne 0x401020\n"
        "401004: nop\n"
        "401005: test dl, 0x20\n"
        "401007: je 0x401030\n"
    )
    sites = scan_v2(recs)
    assert [(s.addr, s.register, s.bit_positions) for s in sites] == [
        (0x401000, "RDX", (1,)),
        (0x401005, "RDX", (5,)),
    ]


def test_v2_high_byte_offset():
    sites = scan_v2(parse_disasm("401000: test dh, 0x2\n401002: jne 0x401020\n"))
    assert sites[0].bit_positions == (9,)  # bit 1 of DH = bit 9 of RDX


def test_v2_multi_bit_immediate_reports_all_positions():
    sites = scan_v2(parse_disasm("401000: test dil, 0x22\n401003: je 0x401020\n"))
    assert sites[0].bit_positions == (1, 5)


def test_v2_memory_dereference_through_tracked_register():
    sites = scan_v2(parse_disasm(
        "401000: test byte ptr [rsi+0x4], 0x8\n401003: jne 0x401020\n"))
    assert sites[0].register == "RSI" and sites[0].bit_positions == (3,)


def test_v2_copy_taint_and_kill():
    text = (
        "401000: mov rbx, rdi\n"
        "401003: test rbx, 0x1\n"
        "401006: jne 0x401020\n"
    )
    sites = scan_v2(parse_disasm(text))
    assert sites[0].register == "RDI"
    # arithmetic on the copy kills the taint
    text = (
        "401000: mov rbx, rdi\n"
        "401003: add rbx, 0x1\n"
        "401007: test rbx, 0x1\n"
        "40100a: jne 0x401020\n"
    )
    assert scan_v2(parse_disasm(text)) == []


def test_v2_taint_does_not_cross_control_flow():
    text = (
        "401000: mov rbx, rdi\n"
        "401003: jmp 0x401008\n"
        "401008: test rbx, 0x1\n"
        "40100b: jne 0x401020\n"
    )
    assert scan_v2(parse_disasm(text)) == []


def test_v2_untainted_zero_test_is_not_a_site():
    assert scan_v2(parse_disasm("401000: test rax, rax\n401003: jz 0x401020\n")) == []


def test_v2_tainted_zero_test_excluded_from_histogram():
    recs = parse_disasm("401000: test rdi, rdi\n401003: jz 0x401020\n")
    sites = scan_v2(recs)
    assert sites[0].classification == "v2-zero-test"
    assert sites[0].bit_positions == ()
    report = build_report("x", recs)
    assert report.bit_offsets == {}
    assert report.v2_count == 1


def test_v2_flag_writer_between_test_and_jcc_invalidates():
    text = "401000: test rdi, 0x1\n401004: add rax, 0x1\n401008: jne 0x401020\n"
    assert scan_v2(parse_disasm(text)) == []
    # non-flag-writing instructions are fine
    text = "401000: test rdi, 0x1\n401004: mov rax, rbx\n401007: jne 0x401020\n"
    assert len(scan_v2(parse_disasm(text))) == 1


def test_v2_taint_copies_through_movsxd():
    text = (
        "401000: movsxd rax, dword ptr [rdi]\n"
        "401003: test al, 0x1\n"
        "401005: jne 0x401020\n"
    )
    sites = scan_v2(parse_disasm(text))
    assert [(s.addr, s.register, s.bit_positions) for s in sites] == [
        (0x401003, "RDI", (0,))]


def test_movsxd_passes_flags_to_the_next_jcc():
    recs = parse_disasm(
        "401000: test rdi, 0x1\n"
        "401004: movsxd rax, dword ptr [rbx]\n"
        "401007: jne 0x401020\n"
    )
    assert _flag_reader(recs, 0) == 2
    assert [s.addr for s in scan_v2(recs)] == [0x401000]


def test_v2_xchg_swaps_register_taint():
    # RDI takes RAX's (absent) taint, so this TEST reads an untainted value
    text = "401000: xchg rdi, rax\n401003: test rdi, 0x4\n401007: jne 0x401020\n"
    assert scan_v2(parse_disasm(text)) == []
    # RBX takes the taint RAX copied from RDI
    text = (
        "401000: mov rax, rdi\n"
        "401003: xchg rax, rbx\n"
        "401006: test rbx, 0x4\n"
        "40100a: jne 0x401020\n"
    )
    sites = scan_v2(parse_disasm(text))
    assert [(s.addr, s.register, s.bit_positions) for s in sites] == [
        (0x401006, "RDI", (2,))]


@pytest.mark.parametrize("xchg, load, register", [
    ("xchg rax, qword ptr [rsi+0x8]", "mov rax, qword ptr [rsi+0x8]", "RSI"),
    ("xchg qword ptr [rsi+0x8], rax", "mov rax, qword ptr [rsi+0x8]", "RSI"),
    ("xchg rax, qword ptr [rbx]", "mov rax, qword ptr [rbx]", None),
    # the load overwrites RDI's own taint
    ("xchg qword ptr [rbx], rdi", "mov rdi, qword ptr [rbx]", None),
])
def test_v2_xchg_with_memory_acts_as_a_load(xchg, load, register):
    reg = load.split()[1].rstrip(",")

    def sites(first):
        return scan_v2(parse_disasm(
            f"401000: {first}\n401004: test {reg}, 0x1\n401008: jne 0x401020\n"))

    assert [s.register for s in sites(xchg)] == ([register] if register else [])
    assert sites(xchg) == sites(load)


def test_v2_respects_tracked_register_set():
    recs = parse_disasm("401000: test r8b, 0x4\n401004: jne 0x401020\n")
    assert scan_v2(recs) == []
    assert len(scan_v2(recs, tracked=("R8",))) == 1


# ---------------------------------------------------------------------------
# v1 heuristic

V1_STRAIGHT = (
    "501000: cmp r8, 0x40\n"
    "501004: jae 0x501040\n"
    "501006: mov r9b, byte ptr [r10+r8]\n"
    "50100b: test r9b, 0x1\n"
    "50100f: jne 0x501030\n"
)


def test_v1_straight_line_site():
    sites = scan_v1(parse_disasm(V1_STRAIGHT))
    assert [(s.addr, s.register) for s in sites] == [(0x501000, "R8")]


def test_v1_no_dependent_branch_no_site():
    text = (
        "503000: cmp r8, 0x10\n"
        "503004: ja 0x503030\n"
        "503006: mov r9, qword ptr [r10+r8]\n"
        "50300b: mov qword ptr [r11], r9\n"
        "50300f: ret\n"
    )
    assert scan_v1(parse_disasm(text)) == []


def test_v1_window_limits_search():
    filler = "".join(f"{0x501006 + i:x}: mov rax, rbx\n" for i in range(20))
    text = (
        "501000: cmp r8, 0x40\n"
        "501004: jae 0x501100\n"
        + filler
        + "50101a: mov r9b, byte ptr [r10+r8]\n"
        "50101f: test r9b, 0x1\n"
        "501023: jne 0x501100\n"
    )
    assert scan_v1(parse_disasm(text), window=4) == []
    assert len(scan_v1(parse_disasm(text), window=32)) == 1


# ---------------------------------------------------------------------------
# port-contention subset

def test_ss_disjoint_dominant_ports_qualifies():
    text = (
        "401000: test dl, 0x2\n"
        "401003: jne 0x401020\n"
        "401005: shl rax, 0x2\n"
        "401008: shl rax, 0x2\n"
        "40100b: jmp 0x401030\n"
        "401020: imul rax, rax\n"
        "401024: imul rax, rax\n"
        "401028: jmp 0x401030\n"
        "401030: ret\n"
    )
    recs = parse_disasm(text)
    assert [s.addr for s in scan_smotherspectre(recs)] == [0x401000]


def test_ss_identical_paths_do_not_qualify():
    text = (
        "401000: test dl, 0x2\n"
        "401003: jne 0x401020\n"
        "401005: add rax, 0x1\n"
        "401009: jmp 0x401030\n"
        "401020: add rbx, 0x1\n"
        "401024: jmp 0x401030\n"
        "401030: ret\n"
    )
    assert scan_smotherspectre(parse_disasm(text)) == []


def test_ss_unknown_mnemonics_counted_in_diagnostics():
    text = (
        "401000: test dl, 0x2\n"
        "401003: jne 0x401020\n"
        "401005: frobnicate rax\n"
        "401008: jmp 0x401030\n"
        "401020: imul rax, rax\n"
        "401024: jmp 0x401030\n"
        "401030: ret\n"
    )
    diag: set[str] = set()
    scan_smotherspectre(parse_disasm(text), diagnostics=diag)
    assert diag == {"frobnicate"}


# ---------------------------------------------------------------------------
# randomized properties

_MNEMONICS = [
    ("test", 2), ("cmp", 2), ("mov", 2), ("add", 2), ("lea", 2),
    ("imul", 2), ("shl", 2), ("nop", 0), ("inc", 1), ("div", 1),
    ("jne", 1), ("je", 1), ("jge", 1), ("jmp", 1), ("ret", 0),
]
_REGS = ["rax", "rbx", "rcx", "rdx", "rdi", "rsi", "r8", "r9", "dl", "al", "dil"]


def _random_program(rng: random.Random, n: int = 60) -> str:
    lines = []
    addr = 0x400000
    addrs = [addr + i * rng.randint(1, 6) * 2 for i in range(n)]
    addrs = sorted(set(addrs))
    for a in addrs:
        mnem, arity = rng.choice(_MNEMONICS)
        ops = []
        for slot in range(arity):
            kind = rng.random()
            if mnem.startswith("j"):
                ops.append(hex(rng.choice(addrs)))
                break
            if kind < 0.5:
                ops.append(rng.choice(_REGS))
            elif kind < 0.8:
                ops.append(hex(rng.randrange(256)))
            else:
                ops.append(f"[{rng.choice(_REGS[:8])}+{hex(rng.randrange(64))}]")
        lines.append(f"{a:x}: {mnem} {', '.join(ops)}".rstrip())
    return "\n".join(lines) + "\n"


def test_ss_subset_of_v2_on_randomized_inputs():
    rng = random.Random(1234)
    for _ in range(1000):
        recs = parse_disasm(_random_program(rng))
        v2 = {s.addr for s in scan_v2(recs)}
        ss = {s.addr for s in scan_smotherspectre(recs)}
        assert ss <= v2


def test_appending_records_never_removes_sites():
    rng = random.Random(77)
    for _ in range(100):
        recs = parse_disasm(_random_program(rng))
        cut = rng.randrange(1, len(recs))
        prefix = recs[:cut]
        for scan in (scan_v2, scan_v1, scan_smotherspectre):
            before = {(s.addr, s.classification) for s in scan(prefix)}
            after = {(s.addr, s.classification) for s in scan(recs)}
            assert before <= after


def _forward_jcc_walk(records, i, flags_end_walk=True):
    """Reference for `_flag_reader`, written with `_writes_flags`. Without
    `flags_end_walk` it stops only at control flow, as the port-contention
    scan's Jcc search once did."""
    for j in range(i + 1, len(records)):
        rec = records[j]
        if rec.mnemonic in JCC:
            return j
        if rec.mnemonic in CONTROL_FLOW or (flags_end_walk and _writes_flags(rec)):
            return None
    return None


_ALPHABET = [
    "test rdi, 0x1", "test dl, 0x4", "test rsi, rsi", "test rax, 0x2",
    "cmp rdi, 0x10", "cmp rax, rbx", "mov rax, rdi", "lea rbx, [rsi+0x8]",
    "add rdi, 0x1", "nop", "frobnicate rax",
    "jne {target}", "je {target}", "jmp {target}", "ret",
]


@st.composite
def _listings(draw):
    body = draw(st.lists(st.sampled_from(_ALPHABET), min_size=1, max_size=40))
    targets = draw(st.lists(st.integers(0, len(body) - 1),
                            min_size=len(body), max_size=len(body)))
    return parse_disasm("".join(
        f"{0x1000 + 4 * i:x}: " + ins.format(target=hex(0x1000 + 4 * t)) + "\n"
        for i, (ins, t) in enumerate(zip(body, targets))))


@settings(max_examples=300, deadline=None)
@given(_listings())
def test_jcc_index_matches_forward_walks(records):
    found = [_flag_reader(records, i) for i in range(len(records))]
    assert found == [_forward_jcc_walk(records, i) for i in range(len(records))]
    index = {r.addr: i for i, r in enumerate(records)}
    for site in scan_v2(records):
        i = index[site.addr]
        assert found[i] is not None
        assert found[i] == _forward_jcc_walk(records, i, flags_end_walk=False)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-2**63, -1), st.integers(0, 2**64 - 1),
                 st.integers(2**64, 2**80), st.sampled_from([-1, 2**63, 2**64])),
       st.sampled_from([0, 8]))
def test_bits_of_matches_the_64_position_reference(imm, offset):
    """Negative immediates read as 64-bit two's complement; bits above 63
    are ignored."""
    assert _bits_of(imm, offset) == tuple(
        offset + i for i in range(64) if (imm >> i) & 1)


# ---------------------------------------------------------------------------
# work counting

class _CountingList(list):
    """A list that counts the elements it hands out, by index, slice or
    iteration."""

    handed_out = 0

    def __getitem__(self, key):
        item = super().__getitem__(key)
        self.handed_out += len(item) if isinstance(key, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            self.handed_out += 1
            yield item

    def __reversed__(self):
        for item in super().__reversed__():
            self.handed_out += 1
            yield item


def _tainted_test_blocks(n_records: int) -> _CountingList:
    """10-record blocks: a tainted TEST, 8 MOV/NOP and a JNE to the next block."""
    lines = []
    for b in range(n_records // 10):
        base = 0x400000 + 0x100 * b
        lines.append(f"{base:x}: test rdi, 0x1")
        lines += [f"{base + 4 * k:x}: {'mov rax, rbx' if k % 2 else 'nop'}"
                  for k in range(1, 9)]
        lines.append(f"{base + 0x24:x}: jne {base + 0x100:#x}")
    return _CountingList(parse_disasm("\n".join(lines)))


def _long_flag_runs(n_records: int) -> _CountingList:
    """200-record runs, each a CMP or a tainted TEST and then MOV/NOP; the
    listing's last record is a JNE, which only the last TEST reaches."""
    body = []
    for b in range(n_records // 200):
        body.append("test rdi, 0x1" if b % 2 else "cmp rdi, 0x10")
        body += ["mov rax, rbx" if k % 2 else "nop" for k in range(1, 200)]
    body[-1] = "jne 0x400000"
    return _CountingList(parse_disasm("\n".join(
        f"{0x400000 + 4 * i:x}: {ins}" for i, ins in enumerate(body))))


def test_build_report_work_is_linear_in_listing_length():
    # in the long runs, each Jcc search must end at the next flag writer
    # rather than walk on to the far JNE
    for listing, v2_count in ((_tainted_test_blocks, lambda n: n // 10),
                              (_long_flag_runs, lambda n: 1)):
        counts = {}
        for n in (2000, 4000):
            records = listing(n)
            assert len(records) == n
            report = build_report("x", records)
            assert report.v2_count == v2_count(n)
            counts[n] = records.handed_out
        assert counts[2000] < 20 * 2000
        assert counts[4000] < 20 * 4000
        assert counts[4000] <= 2.2 * counts[2000]


# ---------------------------------------------------------------------------
# bundled corpus and report

def test_corpus_recall_and_precision():
    manifest = _manifest()
    for name, expect in manifest.items():
        if not name.endswith(".disasm"):
            continue
        report = build_report(name, _load(name))
        got = {(s["addr"], s["classification"], s["register"],
                tuple(s["bit_positions"]), s["smotherspectre"])
               for s in json.loads(report.to_json())["gadget_sites"]}
        want = {(s["addr"], s["classification"], s["register"],
                 tuple(s["bit_positions"]), s["smotherspectre"])
                for s in expect["sites"]}
        assert got == want, name
        assert report.v2_count == expect["v2_count"]
        assert report.smotherspectre_count == expect["smotherspectre_count"]
        assert report.v1_count == expect["v1_count"]
        assert {r: sorted(b) for r, b in report.bit_offsets.items()} == \
            expect["bit_offsets"]


def test_report_deterministic_bytes():
    recs = _load("corpus_v2.disasm")
    a = build_report("x", recs)
    b = build_report("x", recs)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_report_empty_input():
    report = build_report("empty", [])
    assert (report.v2_count, report.smotherspectre_count, report.v1_count) == (0, 0, 0)
    assert json.loads(report.to_json())["gadget_sites"] == []


def test_report_mode_selection():
    recs = _load("corpus_v1.disasm")
    assert build_report("x", recs, mode="v2").v1_count == 0
    assert build_report("x", recs, mode="v1").v1_count == 2
    with pytest.raises(ValueError):
        build_report("x", recs, mode="bogus")


def test_report_csv_rows_match_sites():
    report = build_report("x", _load("corpus_v2.disasm"))
    rows = report.to_csv().splitlines()
    assert rows[0] == "addr,classification,register,bit_positions,smotherspectre"
    assert len(rows) - 1 == len(report.gadget_sites)
