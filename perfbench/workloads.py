"""The benchmark's workloads: inputs made from a seed, the `bpusim` command
lines that consume them, and the checks on the artifacts they write.

Checks test properties of the model, not RNG-specific bytes, so a change to
the random stream that keeps the model's behaviour does not count as a
failure.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "bpusim" / "data" / "corpus"

POLICIES = (
    "speculative-resolve-time",
    "commit-time",
    "restore-on-squash",
    "shadow-pht",
    "obfuscate-on-squash",
)
DEFAULT_POLICY = POLICIES[0]


class CheckFailed(Exception):
    """An artifact does not have the property its workload requires."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


class Workload:
    """One workload: `size` units per invocation of the CLI."""

    name: str
    unit: str
    artifacts: tuple[str, ...]
    # the reference kernel whose slowdowns under co-tenant load track this
    # workload's: "compute" for the simulator, "copy" for the scanner
    reference = "compute"

    def __init__(self, size: int):
        self.size = size

    def make_inputs(self, seed: int, workdir: pathlib.Path) -> dict:
        raise NotImplementedError

    def invocations(self, inputs: dict, out: pathlib.Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, argv: list[str], out: pathlib.Path, inputs: dict) -> tuple[int, dict]:
        """Units completed and exact statistics of one invocation; raises
        CheckFailed when an artifact is wrong."""
        raise NotImplementedError

    def _load(self, out: pathlib.Path, name: str):
        try:
            return json.loads((out / name).read_text())
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"{name}: {exc}") from None


class SideChannelPolicies(Workload):
    """One secret through `sidechannel-v1` under each of the five policies."""

    name = "sc-v1-policies"
    unit = "trial"
    artifacts = ("sidechannel_v1.json", "sidechannel_v1_trace.csv")

    def make_inputs(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        return {"seed": seed, "secret": _bits(rng, self.size)}

    def invocations(self, inputs, out):
        return [["--seed", str(inputs["seed"]), "--out", str(out), "--policy", policy,
                 "sidechannel-v1", "--mode", "one-level", "--secret", inputs["secret"]]
                for policy in POLICIES]

    def check(self, argv, out, inputs):
        doc = self._load(out, "sidechannel_v1.json")
        policy = argv[argv.index("--policy") + 1]
        secret = [int(c) for c in inputs["secret"]]
        _expect(doc["ground_truth"] == secret, f"{policy}: ground truth is not the secret")
        _expect(doc["trials"] == len(secret) == len(doc["recovered"]),
                f"{policy}: {doc['trials']} trials for {len(secret)} secret bits")
        if policy == DEFAULT_POLICY:
            _expect(doc["accuracy"] == 1.0 and doc["recovered"] == secret,
                    f"{policy}: accuracy {doc['accuracy']} under the leaking policy")
        else:
            _expect(len(set(doc["recovered"])) == 1,
                    f"{policy}: recovered bits vary under a mitigation")
        return doc["trials"], {"policy": policy, "accuracy": doc["accuracy"],
                               "recovered_ones": sum(doc["recovered"])}


class CovertHistory(Workload):
    """One message through the history-mode covert channel."""

    name = "covert-history"
    unit = "bit"
    artifacts = ("covert.json", "covert_trace.csv")

    def make_inputs(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        return {"seed": seed, "message": _bits(rng, self.size)}

    def invocations(self, inputs, out):
        return [["--seed", str(inputs["seed"]), "--out", str(out),
                 "covert", "--mode", "history", "--message", inputs["message"]]]

    def check(self, argv, out, inputs):
        doc = self._load(out, "covert.json")
        _expect(doc["message"] == inputs["message"], "message was not transmitted as given")
        _expect(doc["bits"] == len(inputs["message"]), f"{doc['bits']} bits sent")
        _expect(doc["errors"] == 0 and doc["decoded"] == inputs["message"],
                f"{doc['errors']} bit errors")
        return doc["bits"], {"errors": doc["errors"]}


# ---------------------------------------------------------------------------
# tiled scanner listing

TILE_FILES = ("corpus_v2.disasm", "corpus_v1.disasm")
TILE_STRIDE = 0x1000000  # address space per tile; wider than any corpus file
_JUMPS = {"jmp", "call", "ja", "jae", "jb", "jbe", "jc", "jnc", "je", "jne", "jg",
          "jge", "jl", "jle", "jo", "jno", "jp", "jnp", "js", "jns", "jz", "jnz"}


def _corpus_lines(name: str) -> list[tuple[int, str, str]]:
    """(addr, mnemonic, operand text) of each instruction line of a corpus file."""
    out = []
    for raw in (CORPUS / name).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        addr, _, rest = line.partition(":")
        mnemonic, _, operands = rest.strip().partition(" ")
        out.append((int(addr, 16), mnemonic, operands.strip()))
    return out


def tile_listing(k: int, seed: int) -> tuple[str, dict]:
    """Listing of k copies of each bundled corpus file in a seeded order,
    each copy relocated to its own address range (jump targets included),
    and the scan result it must produce: the manifest's sites, relocated."""
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    rng = random.Random(f"scan-tiled:{seed}")
    order = [name for name in TILE_FILES for _ in range(k)]
    rng.shuffle(order)
    base = rng.randrange(1, 16) * TILE_STRIDE
    lines = []
    sites = []
    for tile, name in enumerate(order):
        records = _corpus_lines(name)
        origin = records[0][0] & ~0xFFF
        delta = base + tile * TILE_STRIDE - origin
        for addr, mnemonic, operands in records:
            if mnemonic in _JUMPS and operands.startswith("0x"):
                operands = f"{int(operands, 16) + delta:#x}"
            lines.append(f"{addr + delta:x}: {mnemonic} {operands}".rstrip())
        for site in manifest[name]["sites"]:
            sites.append(dict(site, addr=f"{int(site['addr'], 16) + delta:#x}"))
    sites.sort(key=lambda s: (int(s["addr"], 16), s["classification"]))
    bit_offsets: dict[str, set[int]] = {}
    for name in TILE_FILES:
        for reg, bits in manifest[name]["bit_offsets"].items():
            bit_offsets.setdefault(reg, set()).update(bits)
    truth = {
        key: k * sum(manifest[name][key] for name in TILE_FILES)
        for key in ("v2_count", "smotherspectre_count", "v1_count")
    }
    truth["bit_offsets"] = {reg: sorted(bits) for reg, bits in bit_offsets.items()}
    truth["gadget_sites"] = sites
    return "\n".join(lines) + "\n", truth


class ScanTiled(Workload):
    """`scan` of the tiled corpus listing; size is the tile count k."""

    name = "scan-tiled"
    unit = "line"
    artifacts = ("report.json", "report.csv")
    reference = "copy"

    def make_inputs(self, seed, workdir):
        text, truth = tile_listing(self.size, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        listing = workdir / "listing.disasm"
        listing.write_text(text)
        return {"seed": seed, "listing": str(listing), "lines": text.count("\n"),
                "truth": truth}

    def invocations(self, inputs, out):
        return [["--seed", str(inputs["seed"]), "--out", str(out), "scan", inputs["listing"]]]

    def check(self, argv, out, inputs):
        reports = self._load(out, "report.json")
        _expect(len(reports) == 1, f"{len(reports)} reports for one listing")
        report, truth = reports[0], inputs["truth"]
        for key, want in truth.items():
            _expect(report[key] == want, f"{key} differs from manifest x k")
        rows = (out / "report.csv").read_text().count("\n") - 1
        _expect(rows == len(truth["gadget_sites"]), f"report.csv has {rows} rows")
        return inputs["lines"], {key: report[key] for key in
                                 ("v2_count", "smotherspectre_count", "v1_count")}


# Sizes keep each command under about a second and a half on a 2-CPU host.
WORKLOADS = {cls.name: (cls, size) for cls, size in (
    (SideChannelPolicies, 40),
    (CovertHistory, 256),
    (ScanTiled, 400),
)}


def make_workload(name: str, size: int | None = None) -> Workload:
    cls, default = WORKLOADS[name]
    return cls(default if size is None else size)


def digest(out: pathlib.Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
