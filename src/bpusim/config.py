"""Config file loading: `key = value` lines mapped onto PredictorConfig.

Recognized keys are exactly the PredictorConfig field names, e.g.::

    one_level_bits = 2
    ghr_depth = 12
    monitored_branches = 0x4000, 0x4040

Each key may appear at most once. Values are decimal or 0x-prefixed hex
numbers (`program.parse_int`), and `monitored_branches` takes a
comma-separated list of them. Blank lines and `#` comments are ignored. The
file is read as UTF-8, and a line that does not decode is a ConfigFileError
naming the file, the line and the position within it.

PredictorConfig bounds the size fields, and a value past a bound is a
ConfigFileError:

- `one_level_bits`, `history_bits`: 2 to 9;
- `target_bits_per_entry`: 1 to 9;
- `ghr_depth`: 1 to 256;
- `pht_entries_one_level`, `pht_entries_history`: a power of two, 2 to 65536;
- `btb_entries`: a power of two, 1 to 65536;
- `transition_threshold`: at least 1.
"""

from __future__ import annotations

import pathlib

from .predictor import PredictorConfig
from .program import parse_int


class ConfigFileError(ValueError):
    pass


def parse_config(text: str) -> PredictorConfig:
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigFileError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key not in PredictorConfig._fields:
            raise ConfigFileError(f"line {lineno}: unknown key {key!r}")
        if key in kwargs:
            raise ConfigFileError(f"line {lineno}: repeated key {key!r}")
        try:
            if key == "monitored_branches":
                kwargs[key] = frozenset(parse_int(t.strip()) for t in value.split(","))
            else:
                kwargs[key] = parse_int(value)
        except ValueError as exc:
            raise ConfigFileError(f"line {lineno}: {exc}") from exc
    try:
        return PredictorConfig(**kwargs)
    except ValueError as exc:
        raise ConfigFileError(str(exc)) from exc


def load_config(path) -> PredictorConfig:
    """The config in the file at `path`. A line that is not UTF-8 is
    reported as `scan` reports a listing's, numbered as `parse_config`
    numbers lines."""
    text = pathlib.Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.isascii():
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeError as exc:
                raise ConfigFileError(f"{path}: line {lineno}: {exc}") from None
    return parse_config(text)
