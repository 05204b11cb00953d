"""Entirety of weighted chain-norm sequences.

`entirety` classifies growth descriptors of chain-norm sequences by the
root test applied to the weights c_n = (n!/floor(n/2)!) * ||f_n||, and
`parse_norm_pattern` reads the descriptors `cyclic entire` takes.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import InputError
from .exactnum import rational_to_str


class NormSequence:
    """Descriptor of a chain-norm sequence n -> ||f_n||.

    kind "finite": the values tuple lists the norms, zero beyond it.
    kind "closed-form": ||f_n|| = scale * base^n * (n!)^fact_exponent
    * (floor(n/2)!)^half_fact_exponent.
    kind "samples": a measured prefix with unknown tail; only the numeric
    trend heuristic applies.
    """

    def __init__(
        self,
        kind: str,
        values: tuple = (),
        fact_exponent: int = 0,
        half_fact_exponent: int = 0,
        scale: Fraction = Fraction(1),
        geometric_base: Fraction = Fraction(1),
    ):
        if kind not in ("finite", "closed-form", "samples"):
            raise InputError(f"unknown norm sequence kind {kind!r}")
        if any(v < 0 for v in values):
            raise InputError("norm values must be nonnegative")
        if scale < 0:
            raise InputError("scale must be nonnegative")
        if geometric_base <= 0:
            raise InputError("geometric base must be positive")
        self.kind, self.values, self.scale, self.geometric_base = kind, values, scale, geometric_base
        self.fact_exponent, self.half_fact_exponent = fact_exponent, half_fact_exponent

    def norm_at(self, n: int) -> Fraction:
        if self.kind in ("finite", "samples"):
            return Fraction(self.values[n]) if n < len(self.values) else Fraction(0)
        value = self.scale * self.geometric_base**n
        if self.fact_exponent:
            value *= Fraction(math.factorial(n)) ** self.fact_exponent
        if self.half_fact_exponent:
            value *= Fraction(math.factorial(n // 2)) ** self.half_fact_exponent
        return value


_GEOM_TOKEN = re.compile(r"^(\d+)\^n$")


def parse_norm_pattern(text: str) -> NormSequence:
    """Parse a norm-sequence pattern.

    >>> parse_norm_pattern("1/fact").fact_exponent
    -1
    >>> parse_norm_pattern("floor-half-fact/fact").half_fact_exponent
    1
    >>> parse_norm_pattern("finite:1,2,3").kind
    'finite'
    """
    text = text.strip()
    if text.startswith("finite:"):
        body = text[len("finite:") :]
        try:
            values = tuple(Fraction(part.strip()) for part in body.split(",") if part.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad finite pattern: {exc}") from None
        return NormSequence("finite", values=values)
    parts = text.split("/")
    if len(parts) > 2 or not parts[0]:
        raise InputError(f"bad pattern {text!r}: use numerator or numerator/denominator")
    fact = 0
    half = 0
    scale = Fraction(1)
    base = Fraction(1)
    for side, sign in zip(parts, (1, -1)):
        for token in side.split("*"):
            token = token.strip()
            if not token:
                raise InputError(f"empty factor in pattern {text!r}")
            if token == "fact":
                fact += sign
            elif token == "floor-half-fact":
                half += sign
            elif token.isdecimal():
                if sign < 0 and int(token) == 0:
                    raise InputError("zero factor in the denominator")
                scale = scale * Fraction(int(token)) ** sign
            elif _GEOM_TOKEN.match(token):
                k = int(_GEOM_TOKEN.match(token).group(1))
                if k == 0:
                    raise InputError("geometric base must be positive")
                base = base * Fraction(k) ** sign
            else:
                raise InputError(f"unknown pattern factor {token!r}")
    if scale == 0:
        return NormSequence("finite", values=())
    return NormSequence(
        "closed-form",
        fact_exponent=fact,
        half_fact_exponent=half,
        scale=scale,
        geometric_base=base,
    )


def entirety(s: NormSequence, horizon: int = 40) -> dict:
    """Root-test classification of the weighted series sum c_n z^n.

    The weights are c_n = (n!/floor(n/2)!) * ||f_n||.  Closed-form
    descriptors are decided symbolically: with combined exponents
    E_f = fact_exponent + 1 and E_h = half_fact_exponent - 1 the n-th root
    of c_n grows like n^(E_f + E_h/2), so the sign of that degree decides,
    and at degree zero the limit is base * 2^(-E_h/2).  Sampled sequences
    fall back to the numeric trend of c_n^(1/n) over the horizon and are
    inconclusive unless the tail trend is monotone.
    """
    if horizon < 8:
        raise InputError("horizon must be at least 8")
    if s.kind == "finite":
        return {
            "verdict": "entire",
            "method": "finite-support",
            "radius": "inf",
        }
    if s.kind == "closed-form":
        if s.scale == 0:
            return {"verdict": "entire", "method": "root-test", "radius": "inf"}
        e_f = s.fact_exponent + 1
        e_h = s.half_fact_exponent - 1
        degree = Fraction(e_f) + Fraction(e_h, 2)
        report = {
            "method": "root-test",
            "growth_degree": rational_to_str(degree),
        }
        if degree < 0:
            report.update({"verdict": "entire", "radius": "inf"})
        elif degree > 0:
            report.update({"verdict": "not-entire", "radius": "0"})
        else:
            # limit of c_n^(1/n): the scale washes out, 2^(-E_h/2) survives
            if e_h % 2 == 0:
                limit = s.geometric_base * Fraction(2) ** (-e_h // 2)
                radius = rational_to_str(1 / limit)
                radius_value = float(1 / limit)
            else:
                limit_value = float(s.geometric_base) * 2.0 ** (-e_h / 2)
                radius = f"2^({e_h}/2)/{rational_to_str(s.geometric_base)}"
                radius_value = 1.0 / limit_value
            report.update(
                {
                    "verdict": "not-entire",
                    "radius": radius,
                    "radius_value": radius_value,
                }
            )
        return report
    roots = []
    for n in range(1, min(horizon + 1, len(s.values))):
        c = Fraction(math.factorial(n), math.factorial(n // 2)) * s.norm_at(n)
        roots.append(float(c) ** (1.0 / n) if c > 0 else 0.0)
    if len(roots) < 4:
        return {"verdict": "inconclusive", "method": "numeric-horizon", "reason": "too few samples"}
    tail = roots[len(roots) // 2 :]
    increasing = all(a < b for a, b in zip(tail, tail[1:]))
    decreasing = all(a > b for a, b in zip(tail, tail[1:]))
    if increasing:
        verdict = "not-entire"
    elif decreasing:
        verdict = "entire"
    else:
        verdict = "inconclusive"
    return {
        "verdict": verdict,
        "method": "numeric-horizon",
        "heuristic": True,
        "tail": tail[-4:],
    }
