"""Spans around the library's public functions, installed from outside.

Nothing under ``src/`` knows about this module. ``instrument`` replaces each
listed function or method by a timing wrapper -- on the module or class that
defines it and on every ``pfisterinv`` module that imported the name
directly -- and ``Instrumentation.restore`` puts the originals back.

Spans are aggregated in memory per name (calls, inclusive time, self time,
exceptions raised through the span); a layer's self time is the sum of the
self times of its spans, so nested spans are never counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

# the spans installed, per layer; "Class.method" names a method, and
# "Class.__init__" is reported under the class name
SPANS: dict[str, tuple[str, ...]] = {
    "arith": (
        "factorize",
        "square_class",
        "square_classes",
        "hilbert_symbol",
        "brauer_class_of_symbol",
        "relevant_places",
    ),
    "linalg": (
        "lll_reduce",
        "saturated_constrained_lattice",
        "primitive_kernel_basis",
        "det",
        "rank",
        "row_space_basis",
        "nullspace",
        "solve",
        "inverse",
        "intersect_row_spaces",
        "charpoly",
        "poly_nth_root",
    ),
    "qform": (
        "QuadraticForm.__init__",
        "QuadraticForm.invariants",
        "QuadraticForm.restrict",
        "is_isotropic",
        "isotropic_witnesses",
        "witt_decompose",
        "witt_from_lagrangian",
        "in_I_n",
        "in_GP_r",
    ),
    "quat": ("is_split", "splitting_isomorphism", "norm_form"),
    "csa": (
        "StructureAlgebra.mul",
        "StructureAlgebra.trd",
        "StructureAlgebra.nrd",
        "StructureAlgebra.inverse",
        "StructureAlgebra.is_invertible",
        "from_quaternion",
        "tensor",
        "twist_involution",
        "split_isomorphism",
        "adjoint_form",
        "e0",
        "e1",
        "e2",
        "is_pfister_involution",
    ),
    "shapiro4": (
        "run_scenario",
        "build_D",
        "make_u",
        "q_u_form",
        "check_claim_1",
        "check_claim_2",
        "check_claim_3_and_assemble",
        "w_subspace",
        "build_V_q",
        "extend_to_lagrangian",
        "_definite_branch",
    ),
}

GENERATORS = {"qform.isotropic_witnesses"}
# set on an exception to the name of the innermost span it left
ORIGIN_ATTR = "_perfbench_span_origin"
# exceptions whose construction is counted as "<layer>.<Class>.count"
COUNTED_EXCEPTIONS = {"qform": ("WitnessSearchLimit",), "csa": ("UncomputableInvariant",)}


def _entry_bits(x: Any) -> int:
    x = Fraction(x)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failures: int = 0


@dataclass
class Tracer:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    stack: list[list] = field(default_factory=list)

    def enter(self, name: str) -> list:
        frame = [name, 0.0, time.perf_counter()]  # name, child time, start
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, exc: Optional[BaseException]) -> None:
        duration = time.perf_counter() - frame[2]
        self.stack.pop()
        stats = self.stats.get(frame[0])
        if stats is None:
            stats = self.stats[frame[0]] = SpanStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame[1]
        if exc is not None:
            stats.failures += 1
            if getattr(exc, ORIGIN_ATTR, None) is None:
                try:
                    setattr(exc, ORIGIN_ATTR, frame[0])
                except AttributeError:
                    pass
        if self.stack:
            self.stack[-1][1] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {layer: 0.0 for layer in SPANS}
        for name, stats in self.stats.items():
            out[name.split(".", 1)[0]] += stats.self_s
        return out


def origin_of(exc: BaseException) -> Optional[str]:
    """Name of the innermost span ``exc`` was raised through, if any."""
    return getattr(exc, ORIGIN_ATTR, None)


def _observe(tracer: Tracer, name: str, args: tuple) -> None:
    """Counters read from a call's arguments at the span boundary."""
    if name == "linalg.lll_reduce":
        rows = args[0]
        tracer.maximum("linalg.lll_reduce.max_dim", len(rows))
        bits = max((_entry_bits(x) for row in rows for x in row), default=0)
        tracer.maximum("linalg.lll_reduce.max_bits", bits)
    elif name == "arith.factorize":
        tracer.maximum("arith.factorize.max_bits", abs(int(args[0])).bit_length())
    elif name == "qform.witt_decompose" and tracer.inside("shapiro4.run_scenario"):
        tracer.count("shapiro4.fallbacks")


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _observe(tracer, name, args)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(frame, exc)
            raise
        tracer.exit(frame, None)
        return result

    return wrapper


def _generator_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Each draw from the generator is one span; draws are counted."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        tracer.count(name + ".generators")

        def draws():
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.exit(frame, None)
                    return
                except BaseException as exc:
                    tracer.exit(frame, exc)
                    raise
                tracer.exit(frame, None)
                tracer.count(name + ".drawn")
                yield item

        return draws()

    return wrapper


def _counting_init(tracer: Tracer, name: str, cls: type) -> Callable:
    base_init = cls.__init__

    def __init__(self, *args, **kwargs):
        tracer.count(name)
        base_init(self, *args, **kwargs)

    return __init__


@dataclass
class Instrumentation:
    """The attribute replacements made by ``instrument``."""

    _undo: list[tuple[Any, str, Any, bool]] = field(default_factory=list)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, old, had in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


def instrument(tracer: Tracer) -> Instrumentation:
    """Install spans on every name in SPANS; returns the handle to undo it."""
    inst = Instrumentation()
    package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "pfisterinv" and m]
    for layer, names in SPANS.items():
        module = sys.modules[f"pfisterinv.{layer}"]
        for dotted in names:
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            span = f"{layer}.{owner_name}" if attr == "__init__" else f"{layer}.{dotted}"
            make = _generator_wrapper if span in GENERATORS else _span_wrapper
            wrapped = make(tracer, span, original)
            inst.replace(owner, attr, wrapped)
            if owner is module:
                # names bound by "from .module import name" elsewhere
                for other in package:
                    if other is not module:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                inst.replace(other, key, wrapped)
        for cls_name in COUNTED_EXCEPTIONS.get(layer, ()):
            cls = getattr(module, cls_name)
            inst.replace(cls, "__init__", _counting_init(tracer, f"{layer}.{cls_name}.count", cls))
    return inst
