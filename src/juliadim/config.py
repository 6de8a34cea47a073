"""Run configuration: defaults, key=value files, flag overrides.

Every report embeds the full configuration so outputs are reproducible
byte for byte from the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .numerics import ADD_GUARD, ANG_BITS, SIG_BITS, DomainError


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
    lam: float = 0.05
    delta: float = 0.25
    tol: float = 2.0 ** -64
    seed: int = 1
    output_dir: str = "."

    FILE_KEYS = {"lambda": "lam"}
    # kept only because every report embeds to_dict(); nothing reads them
    UNCONSUMED = ("delta", "output_dir", "lam")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d

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
        name = self.FILE_KEYS.get(key, key)
        if name in self.UNCONSUMED:
            raise DomainError(f"config key {key!r} has no consumer")
        if name not in {f.name for f in fields(self)}:
            raise DomainError(f"unknown config key {key!r}")
        kind = type(getattr(self, name))
        try:
            setattr(self, name, kind(val))
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
