"""Power oracles, instance generation and JSON serialization.

An oracle answers f(x)^e for a hidden monic polynomial f.  Algorithms only
ever see the query interface; tests reach the hidden polynomial through the
InstanceSpec they generated, never through an oracle.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass

from .ff_core import DomainError, is_prime
from .poly_algebra import Poly, RationalFn, _draw_monic, perfect_power_decompose


class OracleError(DomainError):
    """Problem with an oracle query or transcript."""


class TranscriptIncompleteError(OracleError):
    """A replayed transcript lacks the requested query point."""


def _check_field(p: int, e: int) -> None:
    if not is_prime(p):
        raise DomainError("p must be prime")
    if e < 1 or (p - 1) % e != 0:
        raise DomainError("e must divide p - 1")


@dataclass(frozen=True)
class InstanceSpec:
    """A concrete problem instance; f and g may be absent when redacted."""

    p: int
    e: int
    d: int
    f: Poly | None
    g: Poly | None = None
    seed: int | None = None

    def __post_init__(self):
        _check_field(self.p, self.e)
        if self.d < 1:
            raise DomainError("d must be positive")
        for poly in (self.f, self.g):
            if poly is None:
                continue
            if poly.p != self.p:
                raise DomainError("instance polynomial has wrong modulus")
            if poly.degree != self.d or not poly.is_monic:
                raise DomainError("instance polynomial must be monic of degree d")


class PowerOracle:
    """Base query interface: answers f(x)^e and records a transcript.

    `query` checks x, asks the subclass's `_answer` and logs the pair; it is
    the one place every oracle answer passes through.
    """

    __slots__ = ("p", "e", "_log")

    def __init__(self, p: int, e: int):
        _check_field(p, e)
        self.p = p
        self.e = e
        self._log: list[tuple[int, int]] = []

    def _answer(self, x: int) -> int:
        raise NotImplementedError

    def query(self, x: int) -> int:
        if not isinstance(x, int) or not 0 <= x < self.p:
            raise OracleError("query point out of range [0, p)")
        a = self._answer(x)
        self._log.append((x, a))
        return a

    @property
    def query_count(self) -> int:
        return len(self._log)

    @property
    def transcript(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._log)


class LocalPowerOracle(PowerOracle):
    """Evaluates the hidden polynomial locally, by Horner's rule at each
    query."""

    __slots__ = ("_f",)

    def __init__(self, p: int, e: int, f: Poly):
        super().__init__(p, e)
        if f.p != p or f.is_zero:
            raise DomainError("hidden polynomial must be nonzero over F_p")
        self._f = f

    def _answer(self, x: int) -> int:
        return pow(self._f(x), self.e, self.p)


class ReplayOracle(PowerOracle):
    """Replays answers from a stored transcript."""

    __slots__ = ("_answers",)

    def __init__(self, p: int, e: int, answers: dict[int, int]):
        super().__init__(p, e)
        self._answers = dict(answers)

    def _answer(self, x: int) -> int:
        try:
            return self._answers[x]
        except KeyError:
            raise TranscriptIncompleteError("transcript incomplete: no answer for x = %d" % x) from None


class CachingOracle(PowerOracle):
    """Deduplicates queries so shared points are only charged once.

    The inner oracle has checked p and e and keeps the transcript, so the
    memo neither checks them again nor logs its own queries.
    """

    __slots__ = ("inner", "_cache")

    def __init__(self, inner: PowerOracle):
        self.p, self.e = inner.p, inner.e
        self.inner = inner
        self._cache: dict[int, int] = {}

    def query(self, x: int) -> int:
        if x not in self._cache:
            self._cache[x] = self.inner.query(x)
        return self._cache[x]

    @property
    def query_count(self) -> int:
        return len(self._cache)

    @property
    def transcript(self):
        return self.inner.transcript


def make_oracle(instance: InstanceSpec, which: str = "f") -> LocalPowerOracle:
    poly = instance.f if which == "f" else instance.g
    if poly is None:
        raise DomainError("instance lacks polynomial %r" % which)
    return LocalPowerOracle(instance.p, instance.e, poly)


# ---------- generation ----------

_MAX_DRAWS = 10000


def gen_instance(p: int, e: int, d: int, seed: int,
                 require_square_free: bool = False,
                 with_g: bool = False,
                 equal_g: bool = False,
                 require_non_perfect_power_ratio: bool = False) -> InstanceSpec:
    """Deterministic seeded instance; rejection sampling for the constraints."""
    _check_field(p, e)
    if d < 1:
        raise DomainError("d must be positive")
    if d >= p:
        raise DomainError("d must be below p")
    rng = random.Random(seed)
    f = _draw_monic(rng, p, d, _MAX_DRAWS, square_free=require_square_free)
    g = None
    if equal_g:
        g = f
    elif with_g:
        for _ in range(_MAX_DRAWS):
            g = _draw_monic(rng, p, d, _MAX_DRAWS, square_free=require_square_free)
            if require_non_perfect_power_ratio:
                ratio = RationalFn(f, g)
                if ratio.is_constant:
                    continue
                _, k = perfect_power_decompose(ratio)
                if k > 1:
                    continue
            break
        else:
            raise DomainError("constraints unsatisfiable after %d draws" % _MAX_DRAWS)
    return InstanceSpec(p=p, e=e, d=d, f=f, g=g, seed=seed)


# ---------- instance files ----------

def instance_to_json(instance: InstanceSpec, redact: bool = False) -> str:
    obj: dict = {"p": instance.p, "e": instance.e, "d": instance.d}
    if instance.f is not None and not redact:
        obj["f"] = [str(c) for c in instance.f.coeffs]
    if instance.g is not None and not redact:
        obj["g"] = [str(c) for c in instance.g.coeffs]
    if instance.seed is not None:
        obj["seed"] = instance.seed
    return json.dumps(obj, indent=2) + "\n"


def instance_from_json(text: str) -> InstanceSpec:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise DomainError("instance file must hold a JSON object")
    for key in ("p", "e", "d"):
        if key not in obj:
            raise DomainError("instance file missing field %r" % key)
    for key in ("f", "g"):
        if not isinstance(obj.get(key, []), list):
            raise DomainError("instance field %r must be a list" % key)
    try:
        p, e, d = int(obj["p"]), int(obj["e"]), int(obj["d"])
        f, g = (Poly(p, [int(c) for c in obj[k]]) if k in obj else None for k in ("f", "g"))
        seed = int(obj["seed"]) if "seed" in obj else None
    except TypeError:
        raise DomainError("instance numbers must be integers") from None
    return InstanceSpec(p=p, e=e, d=d, f=f, g=g, seed=seed)


def write_instance(instance: InstanceSpec, path, redact: bool = False) -> None:
    with open(path, "w") as fh:
        fh.write(instance_to_json(instance, redact=redact))


def read_instance(path) -> InstanceSpec:
    with open(path) as fh:
        return instance_from_json(fh.read())


# ---------- transcript files (JSON lines) ----------

def transcript_to_jsonl(p: int, e: int, entries) -> str:
    entries = list(entries)
    buf = io.StringIO()
    buf.write(json.dumps({"p": p, "e": e, "query_count": len(entries)}) + "\n")
    for x, answer in entries:
        buf.write(json.dumps({"x": x, "answer": answer}) + "\n")
    return buf.getvalue()


def write_transcript(oracle: PowerOracle, path) -> None:
    with open(path, "w") as fh:
        fh.write(transcript_to_jsonl(oracle.p, oracle.e, oracle.transcript))


def _int_fields(obj, keys, where: str) -> list[int]:
    # the integer fields of one transcript line, or a DomainError naming it
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise DomainError("%s missing %r" % (where, key))
    try:
        return [int(obj[key]) for key in keys]
    except (TypeError, ValueError):
        raise DomainError("%s: %s must be integers" % (where, ", ".join(keys))) from None


def transcript_from_jsonl(text: str) -> tuple[int, int, list[tuple[int, int]]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty transcript")
    p, e, count = _int_fields(json.loads(lines[0]), ("p", "e", "query_count"),
                              "transcript header")
    entries = []
    # a transcript logs every query, so x may repeat, but only with its answer
    seen: dict[int, int] = {}
    for i, ln in enumerate(lines[1:], 1):
        where = "transcript entry %d" % i
        x, answer = _int_fields(json.loads(ln), ("x", "answer"), where)
        if not (0 <= x < p and 0 <= answer < p):
            raise DomainError("%s: x = %d, answer = %d outside [0, %d)" % (where, x, answer, p))
        if seen.setdefault(x, answer) != answer:
            raise DomainError("%s: x = %d repeats with answer %d, not %d"
                              % (where, x, answer, seen[x]))
        entries.append((x, answer))
    if len(entries) != count:
        raise DomainError("transcript query_count does not match entry count")
    return p, e, entries


def read_transcript(path) -> tuple[int, int, list[tuple[int, int]]]:
    with open(path) as fh:
        return transcript_from_jsonl(fh.read())


def replay_oracle_from_file(path) -> ReplayOracle:
    p, e, entries = read_transcript(path)
    return ReplayOracle(p, e, dict(entries))
