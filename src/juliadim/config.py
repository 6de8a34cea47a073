"""Run configuration: defaults, key=value files, flag overrides.

Every report embeds the full configuration so outputs are reproducible
byte for byte from the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .numerics import ADD_GUARD, ANG_BITS, SIG_BITS, DomainError

# Fixed values every report's "config" block carries although nothing reads
# them and no key sets them; they stay only so the gated reports keep their
# bytes, and go when the references are regenerated.
REPORT_ONLY = {"delta": 0.25, "lambda": 0.05, "output_dir": "."}


@dataclass
class Config:
    N: int = 10
    kmax: int = 64
    P_sig: int = SIG_BITS
    P_ang: int = ANG_BITS
    guard: int = ADD_GUARD
    Cprime: float = 1.0
    p: float = 2.0 * math.sqrt(2.0)
    Lpp: float = 10.0
    Pp: float = 10.0
    tol: float = 2.0 ** -64
    seed: int = 1

    def to_dict(self) -> dict:
        return {**asdict(self), **REPORT_ONLY}

    @classmethod
    def from_file(cls, path: str) -> "Config":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise DomainError(f"cannot read config file {path!r}: {exc.strerror}") from None
        cfg = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # a line without '=' is an unknown key or a key with an empty value
            key, _, val = line.partition("=")
            cfg.set_key(key.strip(), val.strip())
        return cfg

    def set_key(self, key: str, val: str):
        if key not in {f.name for f in fields(self)}:
            raise DomainError(f"unknown config key {key!r}")
        kind = type(getattr(self, key))
        try:
            setattr(self, key, kind(val))
        except ValueError:
            raise DomainError(f"config key {key!r} needs {kind.__name__}, not {val!r}") from None

    def build_table(self):
        from .params import build_params
        return build_params(self.N, self.kmax, self.Cprime, self.p)

    def build_model(self):
        from .modelmap import ModelMap
        if self.P_sig < 64:
            raise DomainError(f"P_sig = {self.P_sig} is below 64 bits, which the error "
                              "bound of petal_membership assumes")
        if self.guard < self.P_sig:
            raise DomainError(f"guard = {self.guard} is below P_sig = {self.P_sig}: a term "
                              "dropped as negligible must lie below the working resolution")
        return ModelMap(table=self.build_table(), prec=self.P_sig, guard=self.guard,
                        ang_bits=self.P_ang)
