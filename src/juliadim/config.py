"""Run configuration: defaults, key=value files, flag overrides.

Every report embeds the full configuration so outputs are reproducible
byte for byte from the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .numerics import ADD_GUARD, ANG_BITS, SIG_BITS


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
    UNCONSUMED = ("delta", "output_dir")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d

    @classmethod
    def from_file(cls, path: str) -> "Config":
        cfg = cls()
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            cfg.set_key(key.strip(), val.strip())
        return cfg

    def set_key(self, key: str, val: str):
        key = self.FILE_KEYS.get(key, key)
        if key in self.UNCONSUMED:
            raise KeyError(f"config key {key!r} has no consumer")
        for f in fields(self):
            if f.name == key:
                cur = getattr(self, key)
                if isinstance(cur, int):
                    setattr(self, key, int(val))
                elif isinstance(cur, float):
                    setattr(self, key, float(val))
                else:
                    setattr(self, key, val)
                return
        raise KeyError(f"unknown config key {key!r}")

    def build_table(self):
        from .params import build_params
        return build_params(self.N, self.kmax, self.Cprime, self.p)

    def build_model(self):
        from .modelmap import ModelMap
        return ModelMap(table=self.build_table(), lam=self.lam, prec=self.P_sig,
                        guard=self.guard, ang_bits=self.P_ang)
