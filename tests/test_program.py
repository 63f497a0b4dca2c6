from __future__ import annotations

import pytest

from bpusim.program import (
    Instruction,
    Kind,
    Program,
    ProgramError,
    parse_program,
    parse_program_line,
)


def test_parse_line_full():
    i = parse_program_line("0 CondBranch 0x2002 0x2040 cond=oob delay=60")
    assert i.process_id == 0
    assert i.kind is Kind.COND_BRANCH
    assert i.addr == 0x2002 and i.static_target == 0x2040
    assert i.condition_source == "oob" and i.resolve_delay == 60


def test_parse_line_defaults_and_decimal():
    i = parse_program_line("1 Alu 4096")
    assert i.addr == 4096 and i.resolve_delay == 1
    assert i.static_target is None and i.condition_source is None


@pytest.mark.parametrize("line", [
    "0 CondBranch 0x100",                   # missing cond and target
    "0 CondBranch 0x100 0x200",             # missing cond
    "0 CondBranch 0x100 cond=c",            # missing target
    "0 IndirectBranch 0x100",               # missing target
    "0 Bogus 0x100",                        # unknown kind
    "0 Alu",                                # too short
    "0 Alu 0x100 0x200 0x300",              # extra token
    "0 Alu 0x100 0x200",                    # target on a non-branch
    "0 IndirectBranch 0x100 0x200 cond=c",  # cond= on a non-CondBranch
    "0 Halt 0x100 delay=9",                 # delay on a Halt
])
def test_parse_line_errors(line):
    with pytest.raises(ProgramError, match="^line 6: "):
        parse_program_line(line, 6)


@pytest.mark.parametrize("line, message", [
    ("0 CondBranch 0x100 0x200 cond=", "empty cond="),
    ("0 CondBranch 0x100 0x200 cond=a cond=b", "repeated cond="),
    ("0 Alu 0x100 delay=2 delay=9", "repeated delay="),
], ids=["empty-cond", "repeated-cond", "repeated-delay"])
def test_parse_line_rejects_an_ambiguous_token(line, message):
    with pytest.raises(ProgramError, match=f"^line 4: {message}$"):
        parse_program_line(line, 4)


@pytest.mark.parametrize("tok, value", [
    ("-8", -8), ("0x10", 0x10), ("0X1F", 0x1F), ("42", 42),
    ("0x1_00", None), ("+256", None), ("+3", None), ("1_000", None), ("0x_ff", None),
    ("--5", None),
])
def test_every_number_is_decimal_or_hex(tok, value):
    lines = {  # each number of the format
        "process_id": f"{tok} Alu 0x100",
        "addr": f"0 Alu {tok}",
        "static_target": f"0 IndirectBranch 0x100 {tok}",
        "resolve_delay": f"0 Alu 0x100 delay={tok}",
    }
    for field, line in lines.items():
        if value is None:
            with pytest.raises(ProgramError, match="^line 7: "):
                parse_program_line(line, 7)
        elif value < 0:  # read as a number, then out of range
            with pytest.raises(ProgramError, match=f"^line 7: {field} must be >= "):
                parse_program_line(line, 7)
        else:
            assert getattr(parse_program_line(line, 7), field) == value


@pytest.mark.parametrize("field, value, line", [
    ("resolve_delay", 0, "0 Alu 0x100 delay=0"),
    ("resolve_delay", -3, "0 CondBranch 0x100 0x200 cond=c delay=-3"),
    ("process_id", -1, "-1 Alu 0x100"),
    ("addr", -0x100, "0 Halt -0x100"),
    ("static_target", -4, "0 IndirectBranch 0x100 -4"),
])
def test_instruction_rejects_out_of_range_fields(field, value, line):
    bound = 1 if field == "resolve_delay" else 0
    message = f"{field} must be >= {bound}, got {value}"
    with pytest.raises(ProgramError, match=f"^line 3: {message}$"):
        parse_program_line(line, 3)
    fields = dict(process_id=0, kind=Kind.INDIRECT_BRANCH, addr=0x100,
                  static_target=0x200, resolve_delay=1)
    with pytest.raises(ProgramError, match=f"^{message}$"):
        Instruction(**{**fields, field: value})


def test_parse_program_sorts_and_groups():
    text = """
    # two processes, out of address order
    1 Halt 0x210
    0 CondBranch 0x100 0x200 cond=c delay=2
    1 Alu 0x200
    0 Halt 0x110
    """
    program = parse_program(text)
    assert list(program.code) == [1, 0]  # the order of each process's first line
    assert program.entry == {0: 0x100, 1: 0x200}  # the lowest address, not the first line
    assert [(a, nxt) for a, (_, nxt) in program.code[1].items()] == [(0x200, 0x210),
                                                                     (0x210, None)]


def test_parse_program_duplicate_address():
    with pytest.raises(ProgramError):
        parse_program("0 Alu 0x100\n0 Alu 0x100\n")


@pytest.mark.parametrize("line", [
    "0 Load 0x100",
    "0 Store 0x100",
    "0 TimerRead 0x100",
    "0 0 Alu 0x100",  # the format with a seq column
], ids=["load", "store", "timer-read", "seq-column"])
def test_parse_program_refuses_removed_kinds_and_the_seq_column(line):
    # the message names the line, its layout and the kinds
    with pytest.raises(ProgramError) as refused:
        parse_program(f"0 Alu 0x10\n{line}\n0 Halt 0x200\n")
    assert str(refused.value) == (
        f"line 2: {line!r} is not 'pid kind addr [target] [cond=] [delay=]' "
        "with kind one of CondBranch, IndirectBranch, Alu, Halt")
