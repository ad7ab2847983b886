"""Core types for discrete-time coined walks on the line and circle.

The walker carries a two-valued internal "chirality" (left/right) that
directs its motion: each step first rotates the chirality by a 2x2
unitary coin, then shifts the walker one site left or right according
to the resulting chirality component.  Everything in this module is an
immutable value object; all operations are pure functions.

Chirality basis order is (L, R) throughout, so a per-site amplitude is
a length-2 complex vector ``(psi_L, psi_R)``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

NORM_TOL = 1e-12

#: Maximum number of steps accepted by the evolvers (memory guard).
MAX_STEPS = 2**20


class DomainError(ValueError):
    """A parameter violates an operation's stated precondition."""


def _as_index(value: int, name: str) -> int:
    """``value`` as ``operator.index`` reads it, or :class:`DomainError` if it cannot.

    Python and NumPy integers pass; a float such as 2.5 or a string does
    not, whatever its value.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _as_real(value: float, name: str) -> float:
    """``value`` as a float, or :class:`DomainError` if it is not a real number.

    The float counterpart of :func:`_as_index`: Python and NumPy reals
    pass; a string, None or a complex number does not, whatever its
    value.
    """
    if not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _require(value, kind, what: str) -> None:
    """Refuse with :class:`DomainError` a ``value`` that is not a ``kind``.

    The one type check of the package's arguments: ``kind`` is a class
    or a union of classes, and a function checks here each argument
    whose attributes it reads, so an array, a name or None in the place
    of a coin, a state, a distribution, a spec or a topology is refused,
    not met by an ``AttributeError``.  The error reads ``what``, "must
    be a", the classes' names and the value.
    """
    if not isinstance(value, kind):
        names = " or a ".join(k.__name__ for k in getattr(kind, "__args__", (kind,)))
        raise DomainError(f"{what} must be a {names}, got {value!r}")


def _choose(value, names: tuple[str, ...], what: str) -> None:
    """Refuse with :class:`DomainError` a ``value`` that is not one of the strings ``names``.

    The one check of the named choices: anything but a string, an array
    included, is refused without being compared to the names, since an
    array compares entry by entry and has no truth value.
    """
    if not (isinstance(value, str) and value in names):
        raise DomainError(f"{what} must be one of {', '.join(map(repr, names))}, got {value!r}")


def check_steps(steps: int) -> int:
    """``steps`` as the Python int :func:`_as_index` reads, if it lies in 0..:data:`MAX_STEPS`.

    A non-integer, a negative step count or one above the cap raises
    :class:`DomainError`.  Evolvers call this before they allocate
    anything sized by ``steps``, and step with the int it returns: a
    NumPy integer such as ``np.uint8(200)`` would wrap in ``2 * steps``.
    """
    if (steps := _as_index(steps, "steps")) < 0:
        raise DomainError("steps must be nonnegative")
    if steps > MAX_STEPS:
        raise DomainError(f"steps capped at {MAX_STEPS}")
    return steps


@dataclass(frozen=True)
class Line:
    """Unbounded line topology; ``offset`` is the integer site of the first entry.

    ``offset`` lies within +-2**62.  Every window a route reaches lies at
    most :data:`MAX_STEPS` sites past its input, so its sites stay
    int64; a walk whose result would start past that bound is refused
    when the result's line is built.
    """

    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "offset", _as_index(self.offset, "line offset"))
        if abs(self.offset) > 2**62:
            raise DomainError(f"line offset must lie within +-2**62, got {self.offset}")


@dataclass(frozen=True)
class Circle:
    """Cycle with ``size`` sites, labelled 0..size-1.

    ``size`` is an integer from 3 to ``2 * MAX_STEPS + 1``, the widest
    window a line walk from one site reaches, so no cycle outgrows the
    memory guard of the evolvers.
    """

    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", _as_index(self.size, "circle size"))
        if not 3 <= self.size <= 2 * MAX_STEPS + 1:
            raise DomainError(f"circle needs 3 to {2 * MAX_STEPS + 1} sites, got {self.size}")


Topology = Line | Circle


def _check_sites_and_time(record: WaveFunction | ProbabilityDistribution, count: int) -> None:
    """Refuse a topology that is not a line or circle, a wrong count, or a bad time.

    The rules of both records: ``record.topology`` is a :class:`Line` or
    a :class:`Circle` (:func:`_sites` would read any other object as a
    line at offset 0), ``count``, the number of sites the record holds,
    is a circle's size, and ``record.time`` is an integer of at least 0;
    anything else is :class:`DomainError`.  The record then holds that
    time as the Python int :func:`_as_index` reads, so a NumPy integer
    such as ``np.uint8(250)`` does not wrap in ``time + steps``.
    """
    _require(topology := record.topology, Topology, "topology")
    if isinstance(topology, Circle) and count != topology.size:
        raise DomainError(f"{count} sites given for a circle of {topology.size}")
    if (time := _as_index(record.time, "time")) < 0:
        raise DomainError("time must be nonnegative")
    object.__setattr__(record, "time", time)


def _sites(topology: Topology, count: int) -> NDArray[np.int64]:
    """The site of each of ``count`` rows on ``topology``.

    Row 0 is site ``offset`` on a line and site 0 on a circle; each row
    after it is the next site.
    """
    start = topology.offset if isinstance(topology, Line) else 0
    return np.arange(start, start + count)


def _numbers(a, dtype, what: str) -> np.ndarray:
    """A new C-contiguous ``dtype`` array of ``a``, or :class:`DomainError` if ``a`` is not numbers.

    Numbers are what numpy reads as a bool, integer, float or complex
    array, so a string is refused even where numpy would parse it ("1"
    as 1), and so is a dict, None, or a ragged or malformed list, for
    which numpy raises its own ValueError or TypeError.  The error reads
    ``what`` followed by "must be numbers".
    """
    try:
        if (a := np.asarray(a)).dtype.kind in "biufc":
            return np.array(a, dtype=dtype, order="C")
    except (ValueError, TypeError):
        pass
    raise DomainError(f"{what} must be numbers")


def _freeze(a, dtype, what: str) -> np.ndarray:
    """A read-only :func:`_numbers` copy of ``a`` as ``dtype``, with every -0.0 made +0.0.

    The copy is what the value objects hold: the caller's array stays
    writeable, and writing to it later does not change the object.
    Adding +0.0 in place turns each -0.0 (a real or an imaginary part)
    into +0.0 and keeps every other entry bit for bit, so no route
    needs a fix-up of its own for the zeros it leaves, and a printed
    value never reads ``-0``.
    """
    a = _numbers(a, dtype, what)
    a += 0.0  # in place: np.add would return a scalar for 0-d input
    a.flags.writeable = False
    return a


def _row_masses(rows: NDArray[np.complex128]) -> NDArray[np.float64]:
    """``|psi_L|^2 + |psi_R|^2`` per site of ``(..., 2, n)`` (L, R) amplitude rows.

    Every route squares amplitudes here, in one order, so they report
    the same bits: ``(L.re^2 + R.re^2) + (L.im^2 + R.im^2)`` over the
    float64 view of complex rows, and ``L^2 + R^2`` of float64 rows,
    the real walk the circle ring steps for a real coin (the summands of
    either half, as :func:`qwalk.evolve._circle_masses` adds them for a
    mirror start).  The last axis must be contiguous; the circle scans of
    :mod:`qwalk.stats` pass their ring blocks as they are.
    """
    w = rows.view(np.float64)  # (L, R) rows of interleaved re, im, or real parts
    s = w[..., 0, :] * w[..., 0, :]
    s += w[..., 1, :] * w[..., 1, :]
    return s[..., 0::2] + s[..., 1::2] if np.iscomplexobj(rows) else s


def _site_masses(amps: NDArray[np.complex128]) -> NDArray[np.float64]:
    """:func:`_row_masses` of ``(n, 2)`` amplitudes, one mass per row.

    The rows are transposed into a copy, which puts the sites along the
    contiguous last axis that :func:`_row_masses` reads.
    """
    return _row_masses(np.ascontiguousarray(amps.T))


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Two-component amplitude field over lattice sites at a fixed time.

    ``amplitudes`` has shape ``(n_sites, 2)`` with columns (L, R), held
    finite as :func:`_freeze` holds them; row ``j`` lives at site
    ``sites[j]``.  :func:`_check_sites_and_time` states the rules on
    ``topology`` and ``time``.  It compares and hashes by identity.
    """

    topology: Topology
    amplitudes: NDArray[np.complex128]
    time: int = 0

    def __post_init__(self):
        amps = _freeze(self.amplitudes, np.complex128, "amplitudes")
        if amps.ndim != 2 or amps.shape[1] != 2:
            raise DomainError(f"amplitudes must have shape (n, 2), got {amps.shape}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise DomainError("amplitudes must be finite")
        _check_sites_and_time(self, len(amps))
        object.__setattr__(self, "amplitudes", amps)

    @property
    def sites(self) -> NDArray[np.int64]:
        """Absolute site index for each row of ``amplitudes``."""
        return _sites(self.topology, len(self.amplitudes))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(_site_masses(self.amplitudes))))


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution:
    """Site masses observed at a fixed time.

    ``masses`` is a 1-D array of finite numbers, one per site, held as
    :func:`_freeze` holds them; ``topology`` and ``time`` follow
    :class:`WaveFunction`'s rules.  A walk's masses are nonnegative and
    sum to 1 up to rounding; neither is checked, since rounding leaves
    no exact sum to check against.  It compares and hashes by identity.
    """

    topology: Topology
    masses: NDArray[np.float64]
    time: int

    def __post_init__(self):
        masses = _freeze(self.masses, np.float64, "masses")
        if masses.ndim != 1 or not np.all(np.isfinite(masses)):
            raise DomainError("masses must be a 1-D array of finite numbers")
        _check_sites_and_time(self, len(masses))
        object.__setattr__(self, "masses", masses)

    @property
    def sites(self) -> NDArray[np.int64]:
        """Absolute site index for each entry of ``masses``."""
        return _sites(self.topology, len(self.masses))


def _unitarity_error(m: NDArray[np.complex128]) -> float:
    """Largest entry of ``|m^dag m - I|`` for a 2x2 ``m``, with no warning.

    A NaN entry gives NaN, and an entry too large to square gives inf
    or NaN: each fails a ``< tol`` check, and is refused there rather
    than warned about here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(np.abs(m.conj().T @ m - np.eye(2)))


@dataclass(frozen=True, eq=False)
class CoinOperator:
    """A 2x2 unitary acting on the chirality.

    Everything the package derives for a coin (the transfer matrix
    ``diag(e^{-ik}, e^{ik}) matrix``, the symmetrizer check, the cone
    edge ``|u00|``, the limiting density) is read off ``matrix``;
    :func:`hadamard_coin` and :func:`theta_coin` are two ways to build
    one.  A coin compares and hashes by identity.
    """

    matrix: NDArray[np.complex128]

    def __post_init__(self):
        m = _freeze(self.matrix, np.complex128, "coin matrix entries")
        if m.shape != (2, 2):
            raise DomainError("coin matrix must be 2x2")
        # written so that a NaN entry fails it too
        if not _unitarity_error(m) < 1e-14:
            raise DomainError("coin matrix must be unitary")
        object.__setattr__(self, "matrix", m)


def _check_walk(psi: WaveFunction, *coin: CoinOperator, on: type | None = None) -> None:
    """Refuse with :class:`DomainError` a walk that a route taking ``psi`` cannot step.

    The one check of the routes' arguments: ``psi`` is a
    :class:`WaveFunction`, on a ``on`` topology where ``on`` is given,
    and each of ``coin``, the route's coin if it takes one, is a
    :class:`CoinOperator`.  A matrix or a coin's name is not a coin.
    """
    _require(psi, WaveFunction, "the walk's state")
    if on is not None:
        _require(psi.topology, on, "the walk's topology")
    for c in coin:
        _require(c, CoinOperator, "coin")


def hadamard_coin() -> CoinOperator:
    """Return the Hadamard coin ``(1/sqrt2) [[1, 1], [1, -1]]``."""
    return CoinOperator(np.array([[1, 1], [1, -1]]) / math.sqrt(2))


def theta_coin(theta: float) -> CoinOperator:
    """Return the rotation coin of half-angle ``theta/2``.

    The matrix is the real rotation ``[[cos, sin], [-sin, cos]]`` of
    half-angle theta/2 (one fixed sign convention for the exponential
    of ``i (theta/2) sigma_y``; any global-phase variant induces the
    same distributions).  theta = pi/2 is distribution-equivalent to
    the Hadamard coin; theta = 0 and theta = pi are the singular walks.
    The cosine is taken as ``sin((pi - theta)/2)``, so theta = pi gives
    an exact zero diagonal, as theta = 0 gives the exact identity.

    Parameters
    ----------
    theta : float
        Family parameter in [0, pi].
    """
    if not 0.0 <= _as_real(theta, "theta") <= math.pi:
        raise DomainError(f"theta must lie in [0, pi], got {theta}")
    c, s = math.sin((math.pi - theta) / 2), math.sin(theta / 2)
    return CoinOperator(np.array([[c, s], [-s, c]]))


def chirality_pair(chirality: str | NDArray[np.complex128]) -> NDArray[np.complex128]:
    """The unit chirality pair ``(a, b)`` named or given by ``chirality``.

    Parameters
    ----------
    chirality : {"left", "right", "symmetric"} or array_like
        ``"symmetric"`` means (|L> + i|R>)/sqrt2, the symmetric start of
        every coin with ``arg u00 = arg u01`` (the Hadamard coin and
        every :func:`theta_coin`), bit for bit what
        :func:`qwalk.symmetry.symmetric_initial` returns for them; any
        other coin takes ``symmetric_initial(coin)``.  An explicit pair
        must be two numbers (:func:`_numbers`) of unit norm.
    """
    if isinstance(chirality, str):
        try:
            return {
                "left": np.array([1.0, 0.0j]),
                "right": np.array([0.0j, 1.0]),
                "symmetric": np.array([1.0, 1.0j]) / math.sqrt(2),
            }[chirality]
        except KeyError:
            raise DomainError(f"unknown chirality {chirality!r}") from None
    pair = _numbers(chirality, np.complex128, "custom chirality entries")
    if pair.shape != (2,):
        raise DomainError("custom chirality must be a length-2 pair")
    with np.errstate(over="ignore"):  # a huge entry gives inf, refused below
        norm = np.linalg.norm(pair)
    # written so that a NaN entry fails it too
    if not abs(norm - 1.0) <= NORM_TOL:
        raise DomainError("custom chirality must have unit norm")
    return pair


def initial_state(
    chirality: str | NDArray[np.complex128],
    topology: Topology = Line(),
) -> WaveFunction:
    """Unit-norm wavefunction at time 0, concentrated on row 0 of ``topology``.

    Row 0 is site ``topology.offset`` on a line, where it is the only
    row, and site 0 on a circle, whose other ``size - 1`` rows hold
    zeros.

    Parameters
    ----------
    chirality : {"left", "right", "symmetric"} or array_like
        Starting chirality, as :func:`chirality_pair` reads it.
    topology : Line or Circle
        Where the walk lives and starts.
    """
    pair = chirality_pair(chirality)
    amps = np.zeros((topology.size if isinstance(topology, Circle) else 1, 2), np.complex128)
    amps[0] = pair
    return WaveFunction(topology, amps)
