"""Checks every op's answer with the independent checker and with properties
the method must have; never against a saved copy of earlier output.

An op fails when it raises or when its code does not certify.  Only the
heuristic's step 3 is known to emit codes that do not decode, so any other
failure is also a problem and makes the run incorrect.
"""

from __future__ import annotations

from checker import certify, is_binary
from execute import Outcome
from workloads import Op


class Verifier:
    def __init__(self) -> None:
        self.problems: set[str] = set()
        self.failures: set[str] = set()
        self._memo: dict[tuple, bool] = {}
        self._minrank: dict[int, tuple[Op, int]] = {}
        self._binary_rate: dict[int, tuple[Op, int]] = {}

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, op: Op, out: Outcome) -> bool:
        """Records any problem and returns whether the op failed."""
        if out.error is not None:
            self.failures.add(f"{op.label}: {out.error}")
            self._problem(op, f"raised {out.error}")
            return True
        key = (id(op.case), op.scheme, out.rate, out.rows, out.verdict)
        if key not in self._memo:
            self._memo[key] = self._check(op, out)
        return self._memo[key]

    def _problem(self, op: Op, text: str) -> None:
        self.problems.add(f"{op.label}: {text}")

    def _check(self, op: Op, out: Outcome) -> bool:
        case = op.case
        rate = out.rate
        if op.scheme == "minrank":
            if not case.acyclic <= rate <= case.inst.m:
                self._problem(op, f"minrank {rate} outside [{case.acyclic}, {case.inst.m}]")
            self._minrank[id(case)] = (op, rate)
            return False
        reason = certify(case.inst, rate, out.rows)
        if reason is not None:
            self.failures.add(f"{op.label}: {reason}")
            if out.verdict:
                self._problem(op, f"program certified a code that fails: {reason}")
            if not op.scheme.startswith("heuristic-"):
                self._problem(op, f"code does not certify: {reason}")
            return True
        if not out.verdict:
            self._problem(op, "program rejected a code the checker certifies")
            return True
        if rate < case.acyclic:
            self._problem(op, f"rate {rate} below the acyclic bound {case.acyclic}")
        want = case.expect.get(op.scheme)
        if want is not None and rate != want:
            self._problem(op, f"rate {rate}, closed form {want}")
        if case.ppm_opt is not None and case.upm_opt is not None and case.upm_opt > case.ppm_opt:
            self._problem(op, f"reference UPM optimum {case.upm_opt} above PPM optimum {case.ppm_opt}")
        if op.scheme == "ppm-exhaustive" and case.ppm_opt is not None and rate != case.ppm_opt:
            self._problem(op, f"rate {rate}, PPM optimum {case.ppm_opt}")
        if case.upm_opt is not None:
            if op.scheme == "upm-exhaustive" and rate != case.upm_opt:
                self._problem(op, f"rate {rate}, UPM optimum {case.upm_opt}")
            if op.scheme == "iupm-exhaustive" and rate > case.upm_opt:
                self._problem(op, f"rate {rate} above UPM optimum {case.upm_opt}")
            if op.scheme == "upm-group" and rate < case.upm_opt:
                self._problem(op, f"rate {rate} below UPM optimum {case.upm_opt}")
        if is_binary(out.rows):
            best = self._binary_rate.get(id(case))
            if best is None or rate < best[1]:
                self._binary_rate[id(case)] = (op, rate)
        return False

    def cross_check(self) -> None:
        """GF(2) minrank is at most the rate of any decodable GF(2) code on
        the same instance.  Codes over GF(256) are not compared."""
        for cid, (op, value) in self._minrank.items():
            best = self._binary_rate.get(cid)
            if best is not None and value > best[1]:
                self._problem(op, f"minrank {value} above the GF(2) rate {best[1]} of {best[0].scheme}")
