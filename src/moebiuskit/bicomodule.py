"""Augmented bisimplicial groupoids and bicomodule configurations.

A cell B_{i,j} (i, j >= -1, not both -1) holds (i+1+j)-simplices with
i+1 vertices on the X side and j+1 on the Y side.  Faces d_v and
degeneracies s_v are indexed by vertex: at v <= i they are the vertical
e_v and t_v, above it the horizontal d_k and s_k with k = v-i-1, and the
augmentations u : B_{i,0} -> B_{i,-1} and v : B_{0,j} -> B_{-1,j} are the
faces that empty one side.  A bicomodule configuration is such a grid
that is Segal in both directions, stable, with culf augmentations and
decomposition-space borders X = B_{.,-1} and Y = B_{-1,.}; it induces a
left coaction through the span B_{0,0} <- B_{1,0} -> X_1 x B_{0,0} and a
right coaction through B_{0,0} <- B_{0,1} -> B_{0,0} x Y_1.  A grid is
given its borders X and Y as simplicial groupoids and generates only the
cells with i, j >= 0.

The coaction of m reads one fiber of the leg B_{0,1} -> B_{0,0} (right)
or B_{1,0} -> B_{0,0} (left).  A grid may supply a coaction generator
that yields the simplices over m on the nose, through their vertex face
and base edge; the leg must be the identity on labels, so Aut m acts on
those simplices with stabilizer Aut sigma, and the number of them with a
label is the weight sum_sigma |Aut m|/|Aut sigma| of that label in the
homotopy fiber (orbit-stabilizer).  The coaction then never builds
B_{0,1} or B_{1,0}.  Grids without one read the fiber of the leg.

Optional pointings s_{-1} (right) and t_{top+1} (left) are extra sections
of the outer operators; they give the counit-style functionals delta^R,
delta^L, the comodule Phi functors, a Mobius inversion principle per side,
and the generalized Rota formula

    |mu^X| *_l |delta^R|  =  |delta^L| *_r |mu^Y|.

Stability is checked through the two-square reduction valid for double
Segal spaces; the full square family is available behind a flag.  The
total decalage of X has cell (i,j) = X_{i+1+j} and the operators of X at
the same vertex; the decalage of X is its row 0 (Dec_bot) or column 0
(Dec_top).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .groupoid import (
    DomainError,
    FiniteGroupoid,
    GroupoidFunctor,
    Memo,
    SquareResult,
    fiber_cardinality,
    full_subgroupoid,
    functors_equal,
    is_monomorphism,
    is_pullback_square,
    weighted_fiber,
)
from .incidence import (
    Functional,
    MobiusCertificateError,
    WeightedTensorList,
    mobius_functional,
    phi_n,
)
from .simplicial import (
    AxiomReport,
    InsufficientLevelsError,
    SimplicialMap,
    TruncatedSimplicialGroupoid,
    _require_complete,
    check_axioms,
    is_culf,
)


class AugmentedBisimplicialGroupoid(Memo):
    """Generator-backed grid of finite groupoids with augmentations.

    The borders are given as simplicial groupoids: the column B_{.,-1} is
    `x` and the row B_{-1,.} is `y`, so every cell, face and degeneracy at
    i = -1 or j = -1 is read from them and `row(-1)`/`column(-1)` are
    `y`/`x` themselves.  The grade bound of the grid is theirs.  Callbacks
    cover i, j >= 0 only (all produce memoized functors between memoized
    cells; the grid's cells, a `_GridCells`, are passed so callbacks can
    look cells up):

        cell_fn(B, i, j)                     i, j >= 0
        face_fn(B, i, j, v)                  d_v of an (i+1+j)-simplex
        degen_fn(B, i, j, v)                 s_v of an (i+1+j)-simplex
        right_section_fn(B, i, j) or None    (i,j-1) -> (i,j), j >= 0
        left_section_fn(B, i, j) or None     (i-1,j) -> (i,j), i >= 0
        coaction_fn(B, side, m) or None      the coaction fiber over m

    The coaction generator yields, for every simplex sigma of B_{0,1}
    (side 'right') or B_{1,0} ('left') that the comodule leg d_0, resp.
    e_1, sends to the object m of B_{0,0} on the nose, the pair (vertex
    face of sigma, an object of B_{0,0}; base edge of sigma, an object of
    Y_1, resp. X_1).  The leg must be the identity on morphism labels
    there, so the strict fiber is discrete and `config_coact` counts it
    (see the module docstring).

    The vertex rule lives here once (`face_target`, `degen_target`): an
    operator at vertex v <= i is vertical, so d_v lands in (i-1,j) and s_v
    in (i+1,j); at v > i it is horizontal, landing in (i,j-1) or (i,j+1).
    So d_k, s_k are the operators at vertex i+1+k, e_l, t_l those at
    vertex l, u = d_{i+1} at (i,0) and v = d_0 at (0,j).

    Section callbacks may return None for levels where no pointing data
    exists (the layered sets/posets bicomodule only points the bottom of
    its left side).

    Cells, operators, sections and the coaction generator are read from
    the grid's `_GridCells`, which memoises them.  The row and column
    views, u and v, the comodules and the coactions live in the grid's own
    `_memo`; they read the cells, not the grid, so a dropped grid is freed
    by reference counting.
    """

    def __init__(self, max_i, max_j, x: TruncatedSimplicialGroupoid,
                 y: TruncatedSimplicialGroupoid, cell_fn, face_fn, degen_fn,
                 right_section_fn=None, left_section_fn=None, coaction_fn=None,
                 name=""):
        super().__init__()
        self._cells = _GridCells(max_i, max_j, x, y, cell_fn, face_fn, degen_fn,
                                 right_section_fn, left_section_fn, coaction_fn, name)

    def __getattr__(self, attr):
        """Cells, operators, sections, borders, bounds and the name are read
        from the grid's `_GridCells`."""
        if attr == "_cells":
            raise AttributeError(attr)
        return getattr(self._cells, attr)

    def cell(self, i: int, j: int) -> FiniteGroupoid:
        """Cell (i,j); a method of the grid's own class, which
        `bench/tracing.py` wraps."""
        return self._cells.cell(i, j)

    # -- simplicial views -------------------------------------------------

    def row(self, i) -> TruncatedSimplicialGroupoid:
        """The row B_{i,.} with horizontal operators (row(-1) is Y)."""
        if i == -1:
            return self._cells.y_space()
        return self._get(("row", i), self._row, i)

    def _row(self, i) -> TruncatedSimplicialGroupoid:
        cells = self._cells
        return TruncatedSimplicialGroupoid(
            cells.max_j,
            lambda s, n: cells.cell(i, n),
            lambda s, n, k: cells.hface(i, n, k),
            lambda s, n, k: cells.hdegen(i, n, k),
            grade_bound=cells.grade_bound,
            name=f"{cells.name}.row({i})")

    def column(self, j) -> TruncatedSimplicialGroupoid:
        """The column B_{.,j} with vertical operators (column(-1) is X)."""
        if j == -1:
            return self._cells.x_space()
        return self._get(("column", j), self._column, j)

    def _column(self, j) -> TruncatedSimplicialGroupoid:
        cells = self._cells
        return TruncatedSimplicialGroupoid(
            cells.max_i,
            lambda s, n: cells.cell(n, j),
            lambda s, n, l: cells.vface(n, j, l),
            lambda s, n, l: cells.vdegen(n, j, l),
            grade_bound=cells.grade_bound,
            name=f"{cells.name}.col({j})")

    def u_map(self) -> SimplicialMap:
        cells = self._cells
        return self._get(("u_map",), SimplicialMap, self.column(0), cells.x_space(),
                         lambda m, n: cells.aug_u(n), "u")

    def v_map(self) -> SimplicialMap:
        cells = self._cells
        return self._get(("v_map",), SimplicialMap, self.row(0), cells.y_space(),
                         lambda m, n: cells.aug_v(n), "v")


class _GridCells(Memo):
    """The cells, operators, sections and coaction generator of an
    `AugmentedBisimplicialGroupoid`, built by its callbacks into this
    `_memo`.  Nothing here reads the grid, so the grid's views can hold it
    without a reference cycle."""

    def __init__(self, max_i, max_j, x, y, cell_fn, face_fn, degen_fn,
                 right_section_fn, left_section_fn, coaction_fn, name):
        super().__init__()
        self.max_i = max_i
        self.max_j = max_j
        self._x = x
        self._y = y
        self._cell_fn = cell_fn
        self._face_fn = face_fn
        self._degen_fn = degen_fn
        self._right_section_fn = right_section_fn
        self._left_section_fn = left_section_fn
        self._coaction_fn = coaction_fn
        self.name = name

    @property
    def grade_bound(self) -> Optional[int]:
        return self._y.grade_bound if self._x.grade_bound is None else self._x.grade_bound

    def cell(self, i: int, j: int) -> FiniteGroupoid:
        if i == -1 and j == -1:
            raise DomainError("the (-1,-1) cell does not exist")
        if i == -1:
            return self._y.level(j)
        if j == -1:
            return self._x.level(i)
        if not (0 <= i <= self.max_i and 0 <= j <= self.max_j):
            raise InsufficientLevelsError(max(i, j), max(self.max_i, self.max_j),
                                          f"cell ({i},{j})")
        return self._get(("cell", i, j), self._cell_fn, self, i, j)

    def face_target(self, i, j, v) -> FiniteGroupoid:
        """The cell d_v of cell (i,j) lands in."""
        return self.cell(i - 1, j) if v <= i else self.cell(i, j - 1)

    def degen_target(self, i, j, v) -> FiniteGroupoid:
        """The cell s_v of cell (i,j) lands in."""
        return self.cell(i + 1, j) if v <= i else self.cell(i, j + 1)

    def face(self, i, j, v) -> GroupoidFunctor:
        """d_v of the (i+1+j)-simplices in cell (i,j), into `face_target`."""
        if i == -1:
            return self._y.face(j, v)
        if j == -1:
            return self._x.face(i, v)
        if not 0 <= v <= i + 1 + j:
            raise DomainError(f"no face d_{v} at ({i},{j})")
        self.cell(i, j)
        return self._get(("face", i, j, v), self._face_fn, self, i, j, v)

    def degen(self, i, j, v) -> GroupoidFunctor:
        """s_v of the (i+1+j)-simplices in cell (i,j), into `degen_target`."""
        if i == -1:
            return self._y.degeneracy(j, v)
        if j == -1:
            return self._x.degeneracy(i, v)
        if not 0 <= v <= i + 1 + j:
            raise DomainError(f"no degeneracy s_{v} at ({i},{j})")
        self.degen_target(i, j, v)
        return self._get(("degen", i, j, v), self._degen_fn, self, i, j, v)

    def hface(self, i, j, k) -> GroupoidFunctor:
        return self.face(i, j, i + 1 + k)

    def vface(self, i, j, l) -> GroupoidFunctor:
        return self.face(i, j, l)

    def hdegen(self, i, j, k) -> GroupoidFunctor:
        return self.degen(i, j, i + 1 + k)

    def vdegen(self, i, j, l) -> GroupoidFunctor:
        return self.degen(i, j, l)

    def aug_u(self, i) -> GroupoidFunctor:
        return self.face(i, 0, i + 1)

    def aug_v(self, j) -> GroupoidFunctor:
        return self.face(0, j, 0)

    def right_section(self, i, j) -> Optional[GroupoidFunctor]:
        """s_{-1} : B_{i,j-1} -> B_{i,j}, a section of d_0 (of u at j = 0);
        None where the grid has no right pointing."""
        if self._right_section_fn is None:
            return None
        return self._get(("rsec", i, j), self._right_section_fn, self, i, j)

    def left_section(self, i, j) -> Optional[GroupoidFunctor]:
        """t_{top+1} : B_{i-1,j} -> B_{i,j}, a section of e_top (of v at i = 0);
        None where the grid has no left pointing."""
        if self._left_section_fn is None:
            return None
        return self._get(("lsec", i, j), self._left_section_fn, self, i, j)

    def coaction_fiber(self, side, m):
        """The (vertex face, base edge) pairs of the simplices of B_{0,1}
        (side 'right') or B_{1,0} ('left') over m, from the coaction
        generator; None where the grid has none."""
        if self._coaction_fn is None:
            return None
        return self._coaction_fn(self, side, m)

    def x_space(self) -> TruncatedSimplicialGroupoid:
        return self._x

    def y_space(self) -> TruncatedSimplicialGroupoid:
        return self._y


# -- comodule configurations ---------------------------------------------------


@dataclass
class ComoduleConfiguration(Memo):
    """A pointed comodule configuration, right (bottom pointing) or left.

    `space` is the Segal side C (row 0 of a grid on the right, column 0 on
    the left; a decalage is one of a total decalage), `base` the border
    acting on it, `base_map` the culf augmentation.  The sections
    C_{n-1} -> C_n realize the pointing; `section(n)` is None where the
    grid has no pointing, and `bottom_section` raises then.  `section(0)`
    maps out of the augmentation target C_{-1}, and its essential image
    defines the complement C_b used by the Phi functors.
    `coaction_fiber(m)` is the grid's coaction generator on this side: the
    (vertex, base edge) pairs of the 1-simplices over m, or None where the
    grid has none.
    """

    side: str
    space: TruncatedSimplicialGroupoid
    base: TruncatedSimplicialGroupoid
    base_map: SimplicialMap
    section: Callable[[int], Optional[GroupoidFunctor]]
    coaction_fiber: Callable[[object], Optional[Iterable]]
    name: str = ""

    def __post_init__(self):
        if self.side not in ("right", "left"):
            raise DomainError("side must be 'right' or 'left'")
        super().__init__()

    def bottom_section(self) -> GroupoidFunctor:
        s = self.section(0)
        if s is None:
            raise DomainError(f"{self.name}: the {self.side} pointing has no bottom section")
        return s

    def pointing_complete(self) -> bool:
        return self._get(("pointing_complete",), is_monomorphism, self.bottom_section())

    def pointing_image_classes(self) -> frozenset:
        return self._get(("pointing_image",), self._pointing_image_classes)

    def _pointing_image_classes(self) -> frozenset:
        tab = self.space.level(0).iso_classes()
        s = self.bottom_section()
        return frozenset(tab.class_of(s.ob(x)) for x in s.source.objects)

    def vertex_functor(self, n: int) -> GroupoidFunctor:
        """C_n -> C_0 picking out the distinguished vertex."""
        if self.side == "right":
            return self.space.top_face_power(n, n)
        return self.space.bottom_face_power(n, n)

    def leg_functor(self, n: int) -> GroupoidFunctor:
        """C_n -> C_0, the span leg of the Phi functors and coactions."""
        if self.side == "right":
            return self.space.bottom_face_power(n, n)
        return self.space.top_face_power(n, n)


def right_comodule(B: AugmentedBisimplicialGroupoid) -> ComoduleConfiguration:
    """Row 0 over Y, pointed by s_{-1}; memoised on B."""
    return B._get(("right_comodule",), _right_comodule, B)


def _right_comodule(B: AugmentedBisimplicialGroupoid) -> ComoduleConfiguration:
    cells = B._cells   # the sections read the cells, not the grid that memoises them
    return ComoduleConfiguration(
        side="right", space=B.row(0), base=B.y_space(), base_map=B.v_map(),
        section=lambda n: cells.right_section(0, n),
        coaction_fiber=lambda m: cells.coaction_fiber("right", m), name=f"{B.name}.right")


def left_comodule(B: AugmentedBisimplicialGroupoid) -> ComoduleConfiguration:
    """Column 0 over X, pointed by t_{top+1}; memoised on B."""
    return B._get(("left_comodule",), _left_comodule, B)


def _left_comodule(B: AugmentedBisimplicialGroupoid) -> ComoduleConfiguration:
    cells = B._cells
    return ComoduleConfiguration(
        side="left", space=B.column(0), base=B.x_space(), base_map=B.u_map(),
        section=lambda n: cells.left_section(n, 0),
        coaction_fiber=lambda m: cells.coaction_fiber("left", m), name=f"{B.name}.left")


# -- configuration validation ---------------------------------------------------


@dataclass
class ConfigReport:
    sections: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.sections.values())

    def __bool__(self):
        return self.passed

    def lines(self):
        out = [f"bicomodule configuration: {'PASS' if self.passed else 'FAIL'}"]
        for key, rep in self.sections.items():
            out.append(f"-- {key}")
            out.extend("  " + line for line in rep.lines())
        return out


def _section_identity_report(B: AugmentedBisimplicialGroupoid) -> AxiomReport:
    """Per side, the pointing at (0,0) is retracted by the augmentation and
    complete (mono), and the one above it is retracted by the outer face; a
    side with no pointing at (0,0) is one failed check, and one with none
    above it a passed check marked n/a."""
    rep = AxiomReport(profile="pointings")

    def retracts(face, section, name):
        ok = functors_equal(GroupoidFunctor.compose(face, section),
                            GroupoidFunctor.identity(section.source))
        rep.checks.append(SquareResult(ok, None, name))

    sides = (("right", "s_{-1}", B.right_section, "u", 1, "d_0", (0, 1)),
             ("left", "t_{top+1}", B.left_section, "v", 0, "e_top", (1, 0)))
    for side, s, section, aug, v, face, (i, j) in sides:
        bottom = section(0, 0)
        if bottom is None:
            rep.checks.append(SquareResult(
                False, f"{B.name} has no {side} pointing at (0,0)",
                f"{side} pointing {s} exists"))
            continue
        retracts(B.face(0, 0, v), bottom, f"{aug} . {s} = id at (0,0)")
        rep.checks.append(SquareResult(is_monomorphism(bottom), None,
                                       f"{side} pointing complete ({s} mono)"))
        above = section(i, j)
        name = f"{face} . {s} = id at ({i},{j})"
        if above is None:
            rep.checks.append(SquareResult(True, None, f"{name}: n/a, no {side} pointing"))
        else:
            retracts(B.face(i, j, 1), above, name)
    return rep


def _stability_squares(B, full: bool, n_max: int):
    gb = B.grade_bound
    checks = [
        is_pullback_square(
            p=B.hface(1, 1, 0), q=B.vface(1, 1, 0),
            f=B.vface(1, 0, 0), g=B.hface(0, 1, 0),
            grade_bound=gb, name="stability d_0/e_0 at (1,1)"),
        is_pullback_square(
            p=B.hface(1, 1, 1), q=B.vface(1, 1, 1),
            f=B.vface(1, 0, 1), g=B.hface(0, 1, 1),
            grade_bound=gb, name="stability d_1/e_1 at (1,1)"),
    ]
    if full:
        top_i = min(B.max_i, n_max + 1)
        top_j = min(B.max_j, n_max + 1)
        for i in range(1, top_i + 1):
            for j in range(1, top_j + 1):
                for k in range(j + 1):
                    for l in range(i + 1):
                        if (k == 0 and l == i) or (k == j and l == 0):
                            continue  # d_bot along e_top / d_top along e_bot
                        checks.append(is_pullback_square(
                            p=B.hface(i, j, k), q=B.vface(i, j, l),
                            f=B.vface(i, j - 1, l), g=B.hface(i - 1, j, k),
                            grade_bound=gb,
                            name=f"stability d_{k}/e_{l} at ({i},{j})"))
        for i in range(1, top_i + 1):
            for j in range(0, top_j):
                for k in range(j + 1):
                    for l in range(i + 1):
                        checks.append(is_pullback_square(
                            p=B.vface(i, j, l), q=B.hdegen(i, j, k),
                            f=B.hdegen(i - 1, j, k), g=B.vface(i, j + 1, l),
                            grade_bound=gb,
                            name=f"stability s_{k}/e_{l} at ({i},{j})"))
        for i in range(0, top_i):
            for j in range(1, top_j + 1):
                for k in range(j + 1):
                    for l in range(i + 1):
                        checks.append(is_pullback_square(
                            p=B.hface(i, j, k), q=B.vdegen(i, j, l),
                            f=B.vdegen(i, j - 1, l), g=B.hface(i + 1, j, k),
                            grade_bound=gb,
                            name=f"stability d_{k}/t_{l} at ({i},{j})"))
        for i in range(0, top_i):
            for j in range(0, top_j):
                for k in range(j + 1):
                    for l in range(i + 1):
                        checks.append(is_pullback_square(
                            p=B.vdegen(i, j, l), q=B.hdegen(i, j, k),
                            f=B.hdegen(i + 1, j, k), g=B.vdegen(i, j + 1, l),
                            grade_bound=gb,
                            name=f"stability s_{k}/t_{l} at ({i},{j})"))
    return checks


def validate_configuration(B: AugmentedBisimplicialGroupoid, n_max: int,
                           full_stability: bool = False) -> ConfigReport:
    """Run the bicomodule-configuration checks at truncation n_max.

    The report covers: Segal in both directions, the two-square stability
    reduction (full family behind `full_stability`), culf augmentations,
    decomposition axioms on both borders, and the pointing identities and
    completeness where pointings are attached.
    """
    if B.max_i < 2 or B.max_j < 2:
        raise InsufficientLevelsError(2, min(B.max_i, B.max_j),
                                      "bicomodule validation")
    sections: dict = {}
    seg_rows = AxiomReport(profile="rows segal")
    for i in range(0, min(B.max_i, n_max) + 1):
        r = check_axioms(B.row(i), "segal", min(n_max, B.max_j - 1))
        for c in r.checks:
            seg_rows.checks.append(SquareResult(c.passed, c.witness,
                                                f"row {i}: {c.name}"))
    sections["rows segal"] = seg_rows
    seg_cols = AxiomReport(profile="columns segal")
    for j in range(0, min(B.max_j, n_max) + 1):
        r = check_axioms(B.column(j), "segal", min(n_max, B.max_i - 1))
        for c in r.checks:
            seg_cols.checks.append(SquareResult(c.passed, c.witness,
                                                f"column {j}: {c.name}"))
    sections["columns segal"] = seg_cols

    stab = AxiomReport(profile="stability",
                       note="two-square reduction" if not full_stability
                       else "full family at truncation")
    stab.checks = _stability_squares(B, full_stability, n_max)
    sections["stability"] = stab

    sections["culf u"] = is_culf(B.u_map(), min(n_max, B.u_map().max_level - 1))
    sections["culf v"] = is_culf(B.v_map(), min(n_max, B.v_map().max_level - 1))

    x_n = max(0, min(n_max, B.max_i - 2))
    y_n = max(0, min(n_max, B.max_j - 2))
    x_report = check_axioms(B.x_space(), "decomposition", x_n)
    sections["border X decomposition"] = x_report
    # a total decalage has one border twice: check it once
    sections["border Y decomposition"] = (
        x_report if B.y_space() is B.x_space() and y_n == x_n
        else check_axioms(B.y_space(), "decomposition", y_n))
    sections["pointings"] = _section_identity_report(B)
    return ConfigReport(sections)


# -- coactions and convolution actions ------------------------------------------


def coact(B: AugmentedBisimplicialGroupoid, side: str, m) -> WeightedTensorList:
    """Weighted coaction decomposition of a class m of B_{0,0}, memoized per
    class: `config_coact` of the right or the left comodule of B.

    Right side: terms (w, class in B_{0,0}, class in Y_1) from the fiber
    of d_0 : B_{0,1} -> B_{0,0}.  Left side: terms (w, class in X_1,
    class in B_{0,0}) from the fiber of e_1 : B_{1,0} -> B_{0,0}.  On a
    grid with a coaction generator the fiber is generated, not read off
    the whole cell.
    """
    if side not in ("right", "left"):
        raise DomainError("side must be 'right' or 'left'")
    config = right_comodule(B) if side == "right" else left_comodule(B)
    return B._get(("coact", side, B.cell(0, 0).iso_classes().class_of(m)),
                  config_coact, config, m)


def convolve_action(B: AugmentedBisimplicialGroupoid, side: str,
                    outer: Functional, inner: Functional, m) -> Fraction:
    """theta *_r beta (side 'right') or alpha *_l theta (side 'left') at m.

    `inner` lives on B_{0,0}; `outer` lives on X_1 (left) or Y_1 (right).
    """
    b00 = B.cell(0, 0)
    if inner.carrier is not b00:
        raise DomainError("inner functional does not live on B_{0,0}")
    if side == "right":
        if outer.carrier is not B.cell(-1, 1):
            raise DomainError("outer functional does not live on Y_1")
        return sum((w * inner(c) * outer(y) for w, c, y in coact(B, side, m)),
                   Fraction(0))
    if outer.carrier is not B.cell(1, -1):
        raise DomainError("outer functional does not live on X_1")
    return sum((w * outer(x) * inner(c) for w, x, c in coact(B, side, m)),
               Fraction(0))


@dataclass
class AssociativityReport:
    trials: int
    failures: list

    @property
    def passed(self):
        return not self.failures

    def __bool__(self):
        return self.passed


def _random_functional(carrier, rng, name):
    reps = carrier.iso_classes().reps
    table = {rep: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for rep in reps}
    return Functional.from_table(carrier, table, name=name)


def check_associativity(B: AugmentedBisimplicialGroupoid, trials: int,
                        rng=None, classes=None) -> AssociativityReport:
    """alpha *_l (theta *_r beta) = (alpha *_l theta) *_r beta, exactly,
    for random rational functionals, evaluated at every given class of
    B_{0,0} (default: all of them)."""
    import random
    rng = rng or random.Random(0)
    b00 = B.cell(0, 0)
    if classes is None:
        classes = b00.iso_classes().reps
    failures = []
    for t in range(trials):
        alpha = _random_functional(B.cell(1, -1), rng, f"alpha{t}")
        theta = _random_functional(b00, rng, f"theta{t}")
        beta = _random_functional(B.cell(-1, 1), rng, f"beta{t}")
        theta_r_beta = Functional(
            b00, lambda rep, th=theta, be=beta: convolve_action(B, "right", be, th, rep))
        alpha_l_theta = Functional(
            b00, lambda rep, al=alpha, th=theta: convolve_action(B, "left", al, th, rep))
        for m in classes:
            lhs = convolve_action(B, "left", alpha, theta_r_beta, m)
            rhs = convolve_action(B, "right", beta, alpha_l_theta, m)
            if lhs != rhs:
                failures.append((t, m, lhs, rhs))
    return AssociativityReport(trials, failures)


# -- pointings, comodule Phi functors, Mobius inversion --------------------------


def pointing_delta(config: ComoduleConfiguration, m) -> Fraction:
    """delta^R (or delta^L): the fiber cardinality of the pointing section
    over m; requires the section to exist and be a monomorphism."""
    if not config.pointing_complete():
        raise DomainError(f"pointing of {config.name} is not complete")
    return fiber_cardinality(config.bottom_section(), m)


def delta_functional(config: ComoduleConfiguration) -> Functional:
    name = "delta^R" if config.side == "right" else "delta^L"
    return Functional(config.space.level(0),
                      lambda rep: pointing_delta(config, rep), name=name)


def phi_comodule(config: ComoduleConfiguration, m, n: int) -> Fraction:
    """|Phi^side_n|(m): the fiber over m of the leg from the subgroupoid of
    n-simplices whose distinguished vertex lies outside the pointing image
    and whose n principal base edges are all nondegenerate.

    n = -1 returns the pointing delta (the convention Phi_{-1} = delta).
    For n >= 1 the value is one entry of the fiber table of the filtered
    leg, built once per degree and memoised on the configuration."""
    if n == -1:
        return pointing_delta(config, m)
    if n < -1:
        raise DomainError("phi_comodule needs n >= -1")
    if not config.pointing_complete():
        raise DomainError(f"pointing of {config.name} is not complete")
    C0 = config.space.level(0)
    if not C0.has_object(m):
        raise DomainError(f"{m!r} is not an object of C_0")
    if n == 0:
        return Fraction(int(C0.iso_classes().class_of(m) not in config.pointing_image_classes()))
    return fiber_cardinality(config._get(("filtered_leg", n), _filtered_leg, config, n), m)


def _filtered_leg(config: ComoduleConfiguration, n: int) -> GroupoidFunctor:
    """The leg C_n -> C_0 on C_{b a...a}: the n-simplices whose vertex is
    not in the pointing image and whose base image has every principal
    edge outside the degenerate edge classes of a complete base."""
    level = config.space.level(n)
    base = config.base
    _require_complete(base)
    tab0 = config.space.level(0).iso_classes()
    image = config.pointing_image_classes()
    btab = base.level(1).iso_classes()
    degenerate = base.degenerate_edge_classes()
    vertex = config.vertex_functor(n)
    fmap = config.base_map.level_map(n)
    keep = [sigma for sigma in level.objects
            if tab0.class_of(vertex.ob(sigma)) not in image
            and all(btab.class_of(base.principal_edge(n, fmap.ob(sigma), i)) not in degenerate
                    for i in range(1, n + 1))]
    return config.leg_functor(n).restrict(full_subgroupoid(level, keep, name=f"C_b{'a' * n}"))


def config_coact(config: ComoduleConfiguration, m) -> WeightedTensorList:
    """The coaction of a configuration: fiber of the level-1 leg over m,
    labelled by (C_0 class, base edge class), base label first on the
    left side.

    With a coaction generator the weight of a label is the number of
    generated 1-simplices over m with that label: Aut m acts on them with
    stabilizer Aut sigma, so the count is the homotopy fiber's weight
    sum |Aut m|/|Aut sigma| (orbit-stabilizer), and C_1 is never built.
    Without one the weights are read off the fiber table of the leg."""
    tab0 = config.space.level(0).iso_classes()
    btab = config.base.level(1).iso_classes()
    tab0.class_of(m)   # refuses an m outside C_0 before a generator reads it
    generated = config.coaction_fiber(m)
    if generated is not None:
        parts: dict = {}
        for vertex_face, edge in generated:
            c, e = tab0.class_of(vertex_face), btab.class_of(edge)
            key = (c, e) if config.side == "right" else (e, c)
            parts[key] = parts.get(key, 0) + 1
        return WeightedTensorList.from_parts({k: Fraction(w) for k, w in parts.items()})
    vertex = config.vertex_functor(1)
    f1 = config.base_map.level_map(1)
    if config.side == "right":
        label = lambda rep: (tab0.class_of(vertex.ob(rep)), btab.class_of(f1.ob(rep)))
    else:
        label = lambda rep: (btab.class_of(f1.ob(rep)), tab0.class_of(vertex.ob(rep)))
    return WeightedTensorList.from_parts(weighted_fiber(config.leg_functor(1), m, label))


@dataclass
class ComoduleInversionRow:
    cls: object
    phi_identities: list          # (n, lhs, rhs) with lhs = zeta * Phi_n^base
    summed_lhs: Fraction          # |zeta^C| * |mu^base|
    summed_rhs: Fraction          # |delta^side|

    @property
    def passed(self):
        return (self.summed_lhs == self.summed_rhs
                and all(l == r for _, l, r in self.phi_identities))


@dataclass
class ComoduleInversionReport:
    side: str
    rows: list

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def failures(self):
        return [r for r in self.rows if not r.passed]

    def __bool__(self):
        return self.passed


def comodule_mobius_check(config: ComoduleConfiguration, sample=None,
                          length_bound: Optional[int] = None,
                          mu_base: Optional[Functional] = None) -> ComoduleInversionReport:
    """Verify the comodule Mobius inversion on sampled classes of C_0.

    For each m this checks (a) the per-degree identity
    zeta^C * Phi_n^base = Phi^side_{n-1} + Phi^side_n for 0 <= n <= bound,
    computing the two sides by independent routes, and (b) the summed
    inversion |zeta^C| * |mu^base| = |delta^side|.  The bound comes from
    the grade of m unless supplied; ungraded spaces must pass one.
    """
    C0 = config.space.level(0)
    if sample is None:
        sample = C0.iso_classes().reps
    if mu_base is None:
        mu_base = mobius_functional(config.base, length_bound)
    rows = []
    for m in sample:
        if length_bound is None:
            if not C0.is_graded():
                raise MobiusCertificateError(
                    "cannot certify locally finite length for the comodule: "
                    "ungraded C_0 and no bound supplied")
            bound = C0.grade(C0.iso_classes().class_of(m))
        else:
            bound = length_bound
        action = config_coact(config, m)
        per_n = []
        summed = Fraction(0)
        for n in range(0, bound + 1):
            if config.side == "right":
                lhs = sum((w * phi_n(config.base, y, n) for w, _c, y in action),
                          Fraction(0))
            else:
                lhs = sum((w * phi_n(config.base, x, n) for w, x, _c in action),
                          Fraction(0))
            rhs = phi_comodule(config, m, n - 1) + phi_comodule(config, m, n)
            per_n.append((n, lhs, rhs))
        if config.side == "right":
            summed = sum((w * mu_base(y) for w, _c, y in action), Fraction(0))
        else:
            summed = sum((w * mu_base(x) for w, x, _c in action), Fraction(0))
        rows.append(ComoduleInversionRow(m, per_n, summed, pointing_delta(config, m)))
    return ComoduleInversionReport(config.side, rows)


# -- the generalized Rota formula -------------------------------------------------


def rota_evaluate(B: AugmentedBisimplicialGroupoid, m,
                  length_bound: Optional[int] = None):
    """Evaluate both sides of |mu^X| *_l |delta^R| = |delta^L| *_r |mu^Y| at m.

    Returns the pair (lhs, rhs); the caller asserts equality.  Both
    pointings must be complete, and the Mobius functionals of the borders
    need a grade or an explicit length bound."""
    rc = right_comodule(B)
    lc = left_comodule(B)
    mu_x = mobius_functional(B.x_space(), length_bound)
    mu_y = mobius_functional(B.y_space(), length_bound)
    lhs = convolve_action(B, "left", mu_x, delta_functional(rc), m)
    rhs = convolve_action(B, "right", mu_y, delta_functional(lc), m)
    return lhs, rhs


# -- total decalage ---------------------------------------------------------------


def total_decalage(X: TruncatedSimplicialGroupoid, max_i: int, max_j: int,
                   name: str = "") -> AugmentedBisimplicialGroupoid:
    """The total decalage of X: cell (i,j) = X_{i+1+j}, both borders X,
    zeroth row Dec_bot, zeroth column Dec_top, with both pointings;
    realizes the coalgebra of X as a bicomodule over itself."""
    if max_i + 1 + max_j > X.max_level:
        raise InsufficientLevelsError(max_i + 1 + max_j, X.max_level,
                                      "total decalage")
    return AugmentedBisimplicialGroupoid(
        max_i, max_j, X, X,
        cell_fn=lambda B, i, j: X.level(i + 1 + j),
        face_fn=lambda B, i, j, v: X.face(i + 1 + j, v),
        degen_fn=lambda B, i, j, v: X.degeneracy(i + 1 + j, v),
        right_section_fn=lambda B, i, j: X.degeneracy(i + j, i),
        left_section_fn=lambda B, i, j: X.degeneracy(i + j, i),
        name=name or f"TotalDec({X.name})")


def decalage(X: TruncatedSimplicialGroupoid, side: str = "bottom") -> ComoduleConfiguration:
    """Dec_bot(X) (delete X_0, all d_0 and s_0) or Dec_top (delete d_top,
    s_top) as the pointed comodule configuration over X that it is: row 0
    (right) or column 0 (left) of the total decalage.

    The comparison map to X is the deleted face; the augmentation and the
    extra sections are the remaining bottom (resp. top) operators.
    """
    if X.max_level < 2:
        raise InsufficientLevelsError(2, X.max_level, "decalage")
    if side == "bottom":
        return right_comodule(total_decalage(X, 0, X.max_level - 1))
    if side == "top":
        return left_comodule(total_decalage(X, X.max_level - 1, 0))
    raise DomainError(f"side must be 'bottom' or 'top', got {side!r}")
