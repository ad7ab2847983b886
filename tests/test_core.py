"""Coin matrices, the transfer matrix at k = 0, topologies, initial states,
the package's surface as ``surface`` derives it (its defaulted parameters,
dataclass fields and public names, and the code-line count), and the
imports of the package's modules."""

import ast
import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
import surface
from test_spectral import transfer_matrix

import qwalk
from qwalk import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    MixingReport,
    ProbabilityDistribution,
    WalkSpec,
    WaveFunction,
    cesaro_average,
    classical_walk,
    density_moment,
    distribution,
    evolve_circle,
    evolve_line,
    evolve_spectral,
    hadamard_coin,
    initial_state,
    mixing_time,
    p_asymptotic,
    theta_coin,
    tv_distance,
    verify_symmetrizer,
)
from qwalk.core import _freeze, chirality_pair

SQRT2 = math.sqrt(2)


def test_hadamard_matrix_values():
    h = hadamard_coin().matrix
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / SQRT2)
    assert np.allclose(h @ h, np.eye(2))


def test_theta_coin_endpoints():
    assert np.allclose(theta_coin(0.0).matrix, np.eye(2))
    assert np.allclose(theta_coin(math.pi).matrix, [[0, 1], [-1, 0]])
    # the singular ends are exact: no 6e-17 diagonal entry at theta = pi
    assert np.array_equal(theta_coin(0.0).matrix, np.eye(2))
    assert np.array_equal(np.diag(theta_coin(math.pi).matrix), [0, 0])


def test_theta_coin_is_unitary_across_family():
    for theta in np.linspace(0, math.pi, 23):
        u = theta_coin(float(theta)).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-15


def test_theta_coin_rejects_out_of_range():
    with pytest.raises(DomainError):
        theta_coin(-0.1)
    with pytest.raises(DomainError):
        theta_coin(math.pi + 0.1)


def test_coin_operator_rejects_non_unitary():
    with pytest.raises(DomainError):
        CoinOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(DomainError, match="coin matrix must be 2x2"):
        CoinOperator(np.eye(3))
    # refused, not warned about: 1e200 overflows the unitarity check
    with pytest.raises(DomainError, match="coin matrix must be unitary"):
        CoinOperator(np.array([[1e200, 0], [0, 1]]))


@pytest.mark.parametrize("matrix", [[["1", "0"], ["0", "1"]], "h", None,
                                    [["h", "0"], ["0", "1"]], [[1, 0], [1]], {"a": 1}],
                         ids=["strings", "name", "none", "malformed", "ragged", "dict"])
def test_coin_operator_rejects_what_is_not_a_number(matrix):
    # numpy would parse the strings as the identity
    with pytest.raises(DomainError, match="coin matrix entries must be numbers"):
        CoinOperator(matrix)


#: each value object and check that converts a caller's array, with the
#: numeric strings numpy would parse into a valid input for it
NUMBER_TAKERS = {
    "wavefunction": (lambda a: WaveFunction(Line(), a), [["1", "0"]]),
    "distribution": (lambda a: ProbabilityDistribution(Line(), a, 0), ["1"]),
    "mixing-report": (lambda a: MixingReport(None, a), ["0.5"]),
    "chirality-pair": (chirality_pair, ["1", "0"]),
    "initial-state": (initial_state, ["1", "0"]),
    "walk-spec": (lambda a: WalkSpec(Circle(5), hadamard_coin(), a), ["1", "0"]),
    "density-moment": (lambda a: density_moment(hadamard_coin(), a, "mean"), ["1", "0"]),
    "symmetrizer": (lambda a: verify_symmetrizer(hadamard_coin(), a), [["0", "1"], ["1", "0"]]),
}


@pytest.mark.parametrize("taker", NUMBER_TAKERS)
@pytest.mark.parametrize("kind", ["strings", "malformed", "ragged", "dict"])
def test_every_array_taker_rejects_what_is_not_a_number(taker, kind):
    # numpy would parse the numeric strings, raise its own ValueError on
    # the malformed and ragged lists and TypeError on a dict
    call, strings = NUMBER_TAKERS[taker]
    given = {"strings": strings, "malformed": ["h", "0"], "ragged": [[1, 0], [1]],
             "dict": {"a": 1}}[kind]
    with pytest.raises(DomainError, match="must be numbers"):
        call(given)


@pytest.mark.parametrize("matrix", [
    [[True, False], [False, True]], [[0, 1], [1, 0]], np.eye(2, dtype=np.uint8),
    np.eye(2, dtype=np.float32), [[1, 0], [0, 1j]], np.eye(2, dtype=np.complex64)],
    ids=["bool", "int", "uint", "float32", "complex", "complex64"])
def test_coin_operator_takes_every_numeric_dtype(matrix):
    assert np.array_equal(CoinOperator(matrix).matrix, matrix)


def test_coin_operator_rejects_nan():
    with pytest.raises(DomainError, match="coin matrix must be unitary"):
        CoinOperator(np.full((2, 2), np.nan))


def test_chirality_pair_rejects_nan():
    with pytest.raises(DomainError, match="custom chirality must have unit norm"):
        chirality_pair(np.array([np.nan, 0]))
    with pytest.raises(DomainError, match="custom chirality must have unit norm"):
        p_asymptotic(hadamard_coin(), np.array([np.nan, 0]), 10, np.array([0, 2]))


@pytest.mark.parametrize("call", [
    lambda: evolve_line(initial_state("left"), hadamard_coin(), 2.5),
    lambda: evolve_circle(initial_state("left", Circle(5)), hadamard_coin(), 2.5),
    lambda: evolve_spectral(initial_state("left"), hadamard_coin(), 2.5),
    lambda: mixing_time(WalkSpec(Circle(5), hadamard_coin(), "symmetric"), 0.1, 2.5),
    lambda: cesaro_average(WalkSpec(Circle(5), hadamard_coin(), "symmetric"), 2.5),
    lambda: cesaro_average(WalkSpec(Circle(5), hadamard_coin(), "symmetric"), "5"),
    lambda: classical_walk(Line(), 2.5),
    lambda: p_asymptotic(hadamard_coin(), "left", 10.5, np.array([0, 2])),
    lambda: p_asymptotic(hadamard_coin(), "left", "10", np.array([0, 2])),
    lambda: WaveFunction(Line(), [[1, 0]], time=2.5),
    lambda: ProbabilityDistribution(Line(), [1.0], 2.5),
    lambda: initial_state("left", Circle(3.5)),
    lambda: Circle("5"),
    lambda: Line(offset=0.5),
], ids=["evolve_line", "evolve_circle", "evolve_spectral", "mixing_time", "cesaro_average",
        "cesaro_average-str", "classical_walk", "p_asymptotic", "p_asymptotic-str",
        "wavefunction-time", "distribution-time", "circle-3.5", "circle-str", "line-offset"])
def test_non_integer_steps_and_sizes_are_domain_errors(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()


def test_value_objects_copy_their_arrays():
    # each object holds a read-only copy: the caller's array stays
    # writeable, and writing to it later leaves the object unchanged
    amps, matrix, masses = np.zeros((3, 2), complex), np.eye(2, dtype=complex), np.full(3, 1 / 3)
    trace, pair = np.array([0.9, 0.5, 0.1]), np.array([0.6, 0.8j])
    held = [(WaveFunction(Line(), amps).amplitudes, amps),
            (CoinOperator(matrix).matrix, matrix),
            (ProbabilityDistribution(Line(), masses, 0).masses, masses),
            (MixingReport(None, trace).tv_trace, trace),
            (WalkSpec(Circle(5), hadamard_coin(), pair).init, pair)]
    for own, given in held:
        before = given.copy()
        assert given.flags.writeable and not own.flags.writeable
        assert not np.shares_memory(own, given)
        given[0] = 7
        assert np.array_equal(own, before)
        with pytest.raises(ValueError, match="read-only"):
            own[0] = 7


#: float64 parts with -0.0 beside +0.0, subnormals of both signs and normal values
PARTS = np.array([-0.0, 0.0, 5e-324, -5e-324, -2.2e-308, 1e-310, -0.0, 1.0,
                  -0.5, -0.0, 1e300, -0.0, 0.0, -1e-320, 0.25, -0.0])


@pytest.mark.parametrize("held, given", [
    (lambda a: WaveFunction(Line(), a).amplitudes, PARTS.view(np.complex128).reshape(4, 2)),
    (lambda a: ProbabilityDistribution(Line(), a, 0).masses, PARTS),
    (lambda a: _freeze(a, np.float64, "parts"), np.array(-0.0)),
    (lambda a: _freeze(a, np.float64, "parts"), np.array(-5e-324)),
    (lambda a: _freeze(a, np.complex128, "parts"), np.array(complex(-0.0, -0.0))),
], ids=["wavefunction", "distribution", "0-d", "0-d-subnormal", "0-d-complex"])
def test_value_objects_hold_no_negative_zero(held, given):
    # bit patterns: each -0.0 part becomes +0.0, every other part is kept,
    # and the caller's array keeps its -0.0
    def bits(a):
        return np.atleast_1d(a).view(np.float64).view(np.uint64)

    before = bits(given).copy()
    parts = before.view(np.float64)
    expected = np.where(parts == 0, 0.0, parts).view(np.uint64)
    own = held(given)
    assert own.shape == given.shape
    assert np.array_equal(bits(own), expected)
    assert np.array_equal(bits(given), before)


def test_transfer_matrix_at_zero_is_the_coin():
    # M_0 = M+ + M-: the two shift directions together make one coin step
    complex_coin = CoinOperator(np.array([[1, 1j], [1j, 1]]) / SQRT2)
    for coin in (hadamard_coin(), theta_coin(1.0), theta_coin(2.5), complex_coin):
        assert np.array_equal(transfer_matrix(coin, 0.0), coin.matrix)


def test_initial_states():
    psi = initial_state("left")
    assert isinstance(psi.topology, Line)
    assert psi.time == 0
    assert np.allclose(psi.amplitudes, [[1, 0]])
    assert np.allclose(initial_state("right").amplitudes, [[0, 1]])
    sym = initial_state("symmetric").amplitudes[0]
    assert np.allclose(sym, [1 / SQRT2, 1j / SQRT2])


def test_initial_state_custom_pair():
    psi = initial_state(np.array([0.6, 0.8j]))
    assert psi.norm() == pytest.approx(1.0)
    with pytest.raises(DomainError):
        initial_state(np.array([1.0, 1.0]))  # not unit norm
    with pytest.raises(DomainError, match="custom chirality must have unit norm"):
        initial_state(np.array([1e200, 0]))  # its norm overflows, with no warning
    with pytest.raises(DomainError, match="custom chirality must be a length-2 pair"):
        chirality_pair([1, 0, 0])
    with pytest.raises(DomainError):
        initial_state("sideways")


def test_initial_state_on_circle():
    psi = initial_state("left", Circle(9))
    assert psi.amplitudes.shape == (9, 2)
    assert psi.amplitudes[0, 0] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1


def test_initial_state_starts_at_the_line_offset():
    # row 0 of the topology, on a line as on a circle
    psi = initial_state("left", Line(offset=5))
    assert psi.sites.tolist() == [5]
    assert psi.topology == Line(offset=5)
    assert distribution(psi).sites.tolist() == [5]


def test_numpy_integers_are_steps_and_sizes():
    psi = evolve_circle(initial_state("left", Circle(np.int64(5))), hadamard_coin(), np.int32(3))
    assert psi.time == 3
    assert Line(offset=np.int64(-2)).offset == -2
    spec = WalkSpec(Circle(5), hadamard_coin(), "symmetric")
    assert mixing_time(spec, 0.5, np.int64(10)).time is not None
    # a small integer type would wrap in 2 * steps or time + steps: the
    # routes step with the Python int, and the records hold it
    left, steps = initial_state("left"), np.uint8(200)
    for evolve in (evolve_line, evolve_spectral):
        assert len(evolve(left, hadamard_coin(), steps).amplitudes) == 401
    assert len(classical_walk(Line(), steps).masses) == 401
    late = evolve_line(WaveFunction(Line(), [[1, 0]], np.uint8(250)), hadamard_coin(), 10)
    assert type(late.time) is int and late.time == 260
    assert type(Line(offset=np.int8(-3)).offset) is int
    assert type(Circle(np.uint8(5)).size) is int
    assert type(distribution(late).time) is int


def test_line_offset_is_bounded_so_sites_stay_int64():
    for offset in (2**62, -2**62):
        assert Line(offset=offset).offset == offset
    for offset in (2**62 + 1, -2**62 - 1, 2**63 - 2):
        with pytest.raises(DomainError):
            Line(offset=offset)
    for evolve in (evolve_line, evolve_spectral):
        sites = evolve(initial_state("left", Line(offset=2**62)), hadamard_coin(), 3).sites
        assert sites.dtype == np.int64
        assert sites.tolist() == list(range(2**62 - 3, 2**62 + 4))
        # a walk whose result would start past the bound is refused
        with pytest.raises(DomainError):
            evolve(initial_state("left", Line(offset=-2**62)), hadamard_coin(), 1)


def test_circle_size_floor():
    with pytest.raises(DomainError):
        Circle(2)


def test_circle_size_cap_is_the_widest_line_walk():
    from qwalk.core import MAX_STEPS

    assert Circle(2 * MAX_STEPS + 1).size == 2 * MAX_STEPS + 1
    for size in (2 * MAX_STEPS + 2, 2**60):
        with pytest.raises(DomainError):
            Circle(size)


def test_wavefunction_validation():
    with pytest.raises(DomainError):
        WaveFunction(Line(), np.zeros((3, 3)))
    with pytest.raises(DomainError):
        WaveFunction(Circle(5), np.zeros((4, 2)))
    with pytest.raises(DomainError):
        WaveFunction(Line(), np.array([[np.nan, 0.0]]))
    with pytest.raises(DomainError, match="time must be nonnegative"):
        WaveFunction(Line(), np.array([[1.0, 0.0]]), time=-1)
    # no topology but a Line or a Circle: _sites would read one as a line
    with pytest.raises(DomainError, match="topology must be a Line or a Circle"):
        WaveFunction("line", np.zeros((1, 2)))
    # a walk that leaves float64 is refused, with no overflow warning first
    ring = np.zeros((3, 2))
    ring[0] = 1.5e308
    for evolve, psi in [(evolve_line, WaveFunction(Line(), ring[:1])),
                        (evolve_circle, WaveFunction(Circle(3), ring)),
                        (evolve_spectral, WaveFunction(Line(), ring[:1])),
                        (evolve_spectral, WaveFunction(Circle(3), ring))]:
        with pytest.raises(DomainError, match="amplitudes must be finite"):
            evolve(psi, hadamard_coin(), 1)


@pytest.mark.parametrize("call", [
    lambda: tv_distance(ProbabilityDistribution(Circle(3), [1.0], 0)),
    lambda: ProbabilityDistribution(Circle(3), [0.2, 0.3], 0),
    lambda: ProbabilityDistribution(Line(), [0.5, np.nan], 0),
    lambda: ProbabilityDistribution(Line(), [[0.5, 0.5]], 0),
    lambda: ProbabilityDistribution(Line(), 1.0, 0),
    lambda: ProbabilityDistribution(Line(), [1.0], -1),
    lambda: ProbabilityDistribution(None, np.array([1.0]), 0),
    # masses too large for float64: refused, with no overflow warning first
    lambda: distribution(WaveFunction(Line(), [[1e200, 0]])),
    lambda: distribution(evolve_line(
        WaveFunction(Line(), np.array([[0.6, 0.8j]]) * 2.0 ** 900), hadamard_coin(), 10)),
], ids=["circle-one-mass", "circle-two-masses", "nan", "2-d", "0-d", "negative-time",
        "no-topology", "overflowing-masses", "2**900-walk"])
def test_distribution_validation(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_wavefunction_accepts_non_contiguous_amplitudes(dtype):
    rows = np.zeros((2, 3), dtype=dtype)
    rows[0, 1] = 1.0
    psi = WaveFunction(Circle(3), rows.T)
    assert psi.amplitudes.flags.c_contiguous
    assert np.array_equal(psi.amplitudes, rows.T)
    rows[1, 2] = np.nan
    with pytest.raises(DomainError):
        WaveFunction(Circle(3), rows.T)
    with pytest.raises(DomainError):
        WaveFunction(Line(), np.repeat(rows.T, 2, axis=0)[::2])


@pytest.mark.parametrize("make", [
    hadamard_coin,
    lambda: initial_state("left"),
    lambda: distribution(initial_state("left")),
    lambda: mixing_time(WalkSpec(Circle(5), None, None), 0.5, 10),
    lambda: WalkSpec(Circle(5), hadamard_coin(), "left"),
], ids=["coin", "wavefunction", "distribution", "mixing-report", "walk-spec"])
def test_records_that_hold_arrays_compare_by_identity(make):
    # == on their arrays would raise, and so would a hash of them
    one, other = make(), make()
    assert one == one and one != other
    assert one in [one] and other not in [one]
    assert len({one, other, one}) == 2


def test_amplitudes_are_read_only():
    psi = initial_state("left")
    with pytest.raises(ValueError):
        psi.amplitudes[0, 0] = 0.0


def test_norm_preserved_for_many_random_states():
    # one step of each of 1000 random unit chirality pairs
    rng = np.random.default_rng(11)
    coin = hadamard_coin()
    for _ in range(1000):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        pair = raw / np.linalg.norm(raw)
        psi = evolve_line(initial_state(pair), coin, 1)
        assert abs(psi.norm() - 1.0) < 1e-12


def test_theta_half_pi_matches_hadamard_distributions():
    # same initial state, identical distributions at every step
    h, q = hadamard_coin(), theta_coin(math.pi / 2)
    for init in ("left", "symmetric"):
        ph = distribution(evolve_line(initial_state(init), h, 50))
        pq = distribution(evolve_line(initial_state(init), q, 50))
        assert np.max(np.abs(ph.masses - pq.masses)) < 1e-13


def test_public_defaults_are_pinned():
    # every defaulted parameter of a public function, and every defaulted
    # field of a public dataclass, is a setting to test; a new one must
    # be added here on purpose
    assert set(surface.defaulted(inspect.isfunction)) == {
        "evolve_line.adjoint",
        "initial_state.topology",
    }
    assert set(surface.defaulted(dataclasses.is_dataclass)) == {
        "Line.offset",
        "WaveFunction.time",
    }


def test_public_dataclass_fields_are_pinned():
    # every field of a public dataclass is a value to build, check and
    # test; a new one must be added here on purpose
    assert surface.fields() == {
        "Circle": ["size"],
        "CoinOperator": ["matrix"],
        "Line": ["offset"],
        "MixingReport": ["time", "tv_trace"],
        "ProbabilityDistribution": ["topology", "masses", "time"],
        "SymmetrizerReport": ["sign", "max_residual"],
        "WalkSpec": ["topology", "coin", "init"],
        "WaveFunction": ["topology", "amplitudes", "time"],
    }


def test_code_lines_counts_statements_only(tmp_path):
    # the count CI prints per module: each line that holds a token of a
    # statement, a string expression that is no docstring included, and
    # no blank, comment-only or docstring line, inside a call or not
    source = tmp_path / "sample.py"
    source.write_text('''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Function
        docstring."""
        """A string expression over two lines,
        not a docstring."""
        return math.hypot(
            3,  # a comment inside a call

            4,
        )
''')
    assert surface.code_lines(source) == 9
    # the informational count beside it: the module's, the class's and the
    # method's docstring lines, and not the string expression's
    assert surface.doc_lines(source) == 5


def test_public_names_are_pinned():
    # the package's public surface, written out by hand; a new name must
    # be added here on purpose, and no submodule counts as one
    assert surface.public_names() == [
        "Circle", "CoinOperator", "DomainError", "Line", "MixingReport",
        "ProbabilityDistribution", "SymmetrizerReport", "WalkSpec", "WaveFunction",
        "asymptotic_wavefunction", "cesaro_average", "classical_walk", "density",
        "density_moment", "distribution", "evolve_circle", "evolve_line",
        "evolve_spectral", "hadamard_coin", "initial_state",
        "interval_mass", "mixing_time", "moment", "p_asymptotic",
        "symmetric_initial", "theta_coin", "tv_distance", "verify_symmetrizer",
    ]
    assert not any(inspect.ismodule(getattr(qwalk, name)) for name in qwalk.__all__)


def test_no_private_top_level_name_is_orphaned():
    # a module-level _name (function, class or assignment) that no module
    # of the package reads is dead code; dunder names are exempt
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(qwalk.__file__).parent.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            orphans += [f"{stem}.{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")
                        and name not in read]
    assert orphans == []


def test_every_module_reads_the_names_it_imports():
    # __init__.py is exempt: its imports are the package's re-exports
    unread = []
    for path in sorted(Path(qwalk.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in sorted(imported - read)]
    assert unread == []


def test_private_imports_between_modules_are_pinned():
    # each private name a module takes from a sibling other than core,
    # written out by hand: a module that reaches into another's helpers
    # is a decision two modules know, so a new one is added here on purpose
    crossings = []
    for path in sorted(Path(qwalk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module != "core":
                crossings += [f"{path.stem} <- {node.module}.{alias.name}" for alias in node.names
                              if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert crossings == [
        "asymptotics <- spectral._dispersion",
        "asymptotics <- spectral._split",
        "cli <- asymptotics._check_time",
        "stats <- evolve._circle_masses",
        "stats <- spectral._dispersion",
    ]
