"""Instruction model and the line-oriented program text format.

One instruction per line::

    pid kind addr [target] [cond=<operand>] [delay=<ticks>]

Each of the optional tokens may appear at most once, and the operand is not
empty. Every number (pid, address, target, delay) is decimal or 0x-prefixed
hex, with an optional leading minus; `parse_int` reads it. The delay is at
least 1 and the other numbers at least 0. Kinds: CondBranch,
IndirectBranch, Alu, Halt. A branch needs a target, which an Alu or Halt
may not have; a CondBranch needs `cond=`, which no other kind takes; a
Halt takes no delay. A `#` starts a comment. A line ends at `\n`, `\r\n`
or `\r` (`text_lines`).

`parse_program` reads the text into a `Program`, the one program value the
engine runs and victim builders make. `Program` groups a flat list of
instructions by process and rejects two instructions of one process at one
address; every check raises `ProgramError`.
"""

from __future__ import annotations

import enum
import io
import re
from typing import NamedTuple


class Kind(enum.Enum):
    COND_BRANCH = "CondBranch"
    INDIRECT_BRANCH = "IndirectBranch"
    ALU = "Alu"
    HALT = "Halt"


COND_BRANCH, INDIRECT_BRANCH, ALU, HALT = Kind


class ProgramError(ValueError):
    pass


class _InstructionFields(NamedTuple):
    process_id: int
    kind: Kind
    addr: int
    static_target: int | None = None
    condition_source: str | None = None
    resolve_delay: int = 1


class Instruction(_InstructionFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for field in ("process_id", "addr", "static_target"):
            value = getattr(self, field)
            if value is not None and value < 0:
                raise ProgramError(f"{field} must be >= 0, got {value}")
        if self.resolve_delay < 1:
            raise ProgramError(f"resolve_delay must be >= 1, got {self.resolve_delay}")
        if self.kind is COND_BRANCH:
            if self.condition_source is None:
                raise ProgramError(f"CondBranch at {self.addr:#x} needs cond=")
            if self.static_target is None:
                raise ProgramError(f"CondBranch at {self.addr:#x} needs a target")
        if self.kind is INDIRECT_BRANCH and self.static_target is None:
            raise ProgramError(f"IndirectBranch at {self.addr:#x} needs a target")
        if self.static_target is not None and self.kind in (ALU, HALT):
            raise ProgramError(f"{self.kind.value} at {self.addr:#x} takes no target")
        if self.condition_source is not None and self.kind is not COND_BRANCH:
            raise ProgramError(f"{self.kind.value} at {self.addr:#x} takes no cond=")
        if self.resolve_delay != 1 and self.kind is HALT:
            raise ProgramError(f"Halt at {self.addr:#x} takes no delay")
        return self

    # `_replace` copies through `_make`, which would skip the checks above
    _make = classmethod(lambda cls, values: cls(*values))


_NUMBER = re.compile(r"-?(?:0[xX](?P<hex>[0-9a-fA-F]+)|[0-9]+)")


def parse_int(tok: str) -> int:
    """Read a decimal or 0x-prefixed hex number with an optional leading
    minus: the number syntax of program text, config files and disassembly.
    Anything else, such as a plus sign, `_` or a space, is a ValueError."""
    m = _NUMBER.fullmatch(tok)
    if m is None:
        raise ValueError(f"bad number {tok!r}")
    return int(tok, 16) if m["hex"] else int(tok)


def text_lines(text: str):
    r"""`text`'s lines, each read to `\n`: a line ends at `\n`, `\r\n` or `\r`,
    not at another `str.splitlines` break. StringIO copies at 4 bytes a
    character, so it takes parts of 16,384 characters and on to a line end."""
    parts = re.finditer(r"(?s).{1,16384}[^\n\r]*(?:\r\n?|\n)?", text)
    return (line for m in parts for line in io.StringIO(m[0], newline=None))


_KINDS = {k.value: k for k in Kind}


def parse_program_line(line: str, lineno: int = 0) -> Instruction:
    toks = line.split()
    kind = _KINDS.get(toks[1]) if len(toks) >= 3 else None
    if kind is None:  # a short line, an old line with a seq column or a removed kind
        raise ProgramError(f"line {lineno}: {line!r} is not 'pid kind addr [target] [cond=] "
                           f"[delay=]' with kind one of {', '.join(_KINDS)}")
    try:
        pid, addr = parse_int(toks[0]), parse_int(toks[2])
    except ValueError as exc:
        raise ProgramError(f"line {lineno}: {exc}") from exc
    target = cond = delay = None
    for tok in toks[3:]:
        if tok.startswith("cond="):
            if cond is not None:
                raise ProgramError(f"line {lineno}: repeated cond=")
            cond = tok[len("cond="):]
            if not cond:
                raise ProgramError(f"line {lineno}: empty cond=")
        elif tok.startswith("delay="):
            if delay is not None:
                raise ProgramError(f"line {lineno}: repeated delay=")
            try:
                delay = parse_int(tok[len("delay="):])
            except ValueError as exc:
                raise ProgramError(f"line {lineno}: bad delay {tok!r}") from exc
        elif target is None:
            try:
                target = parse_int(tok)
            except ValueError as exc:
                raise ProgramError(f"line {lineno}: bad target {tok!r}") from exc
        else:
            raise ProgramError(f"line {lineno}: unexpected token {tok!r}")
    try:
        return Instruction(pid, kind, addr, target, cond, 1 if delay is None else delay)
    except ProgramError as exc:
        raise ProgramError(f"line {lineno}: {exc}") from exc


class Program:
    """Every process's code, grouped by `process_id` from a flat list of
    instructions, checked and indexed once so that any number of engine
    runs can share it; a run only reads it. Processes keep the order of
    their first instruction. `code[pid]` maps each address to (instruction,
    the next address or None) and `entry[pid]` is the process's lowest
    address. `instructions` keeps the input, so programs compose:
    `Program(a.instructions + b.instructions)`."""

    def __init__(self, instructions):
        self.instructions = tuple(instructions)
        by_pid: dict[int, dict[int, Instruction]] = {}
        for i in self.instructions:
            by_addr = by_pid.setdefault(i.process_id, {})
            if i.addr in by_addr:
                raise ProgramError(f"process {i.process_id}: two instructions at {i.addr:#x}")
            by_addr[i.addr] = i
        self.code: dict[int, dict[int, tuple[Instruction, int | None]]] = {}
        self.entry: dict[int, int] = {}
        for pid, by_addr in by_pid.items():
            order = sorted(by_addr)
            self.code[pid] = {a: (by_addr[a], b) for a, b in zip(order, order[1:] + [None])}
            self.entry[pid] = order[0]


def parse_program(text: str) -> Program:
    """Parse program text, one instruction per line, into a Program."""
    instrs = []
    for lineno, raw in enumerate(text_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            instrs.append(parse_program_line(line, lineno))
    return Program(instrs)
