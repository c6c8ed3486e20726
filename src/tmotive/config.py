"""Run configuration: field choice, precision budget, neighborhood radii."""

from dataclasses import dataclass

from .errors import SchemaError
from .ffield import ambient_field


@dataclass(frozen=True)
class Config:
    """Shared knobs for the whole pipeline.

    prec and slack are in exponent units (integer powers of t); ram is the
    default ramification index, q^2 - 1 unless overridden.  v_min is the
    valuation floor for entries of the defining matrix: it stands in for
    the various qualitative 'small enough' neighborhoods.
    """

    p: int = 3
    s: int = 1
    D: int = 0          # 0 means the default 4*s
    n: int = 1
    prec: int = 200
    ram: int = 0        # 0 means q^2 - 1
    v_min: int = 1
    slack: int = 10
    seed: int = 0

    def __post_init__(self):
        q = self.p ** self.s
        if q % 2 == 0:
            raise SchemaError("q must be odd")
        D = self.D or 4 * self.s
        if D % (2 * self.s) != 0:
            raise SchemaError("D must be a multiple of 2s")
        if self.prec <= 4 * self.slack:
            raise SchemaError("prec must exceed 4*slack")
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "ram", self.ram or q * q - 1)

    @property
    def q(self):
        return self.p ** self.s

    @property
    def spec(self):
        return ambient_field(self.p, self.s, self.D)

    @property
    def prec_num(self):
        """Precision numerator at the default ramification."""
        return self.prec * self.ram

    @classmethod
    def from_q(cls, q, **kw):
        """Resolve a prime power q into (p, s)."""
        for p in range(2, q + 1):
            if q % p == 0:
                s = 0
                m = q
                while m % p == 0:
                    m //= p
                    s += 1
                if m != 1:
                    raise SchemaError(f"q = {q} is not a prime power")
                return cls(p=p, s=s, **kw)
        raise SchemaError(f"bad q = {q}")

    @classmethod
    def from_json(cls, obj):
        known = {f for f in cls.__dataclass_fields__}
        bad = set(obj) - known
        if bad:
            raise SchemaError(f"unknown config fields: {sorted(bad)}")
        try:
            return cls(**{k: int(v) for k, v in obj.items()})
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad config: {exc}") from None

    def to_json(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}
