"""Hole counting by corner census, with per-component analysis reports."""

from __future__ import annotations

from dataclasses import dataclass

from .corners import (
    ComponentContext,
    CornerCensus,
    CornerClassification,
    ValidityReport,
    classify_corners,
    validate_component,
)
from .errors import FormulaInapplicableError
from .grid import BinaryGrid
from .labeling import LabelMap, holes_in_mask, label_components


def holes_by_formula(census: CornerCensus) -> int:
    """h = 1 + (c4 - c2) / 4, exact."""
    diff = census.c4 - census.c2
    if diff % 4 != 0:
        raise FormulaInapplicableError(
            f"c4 - c2 = {diff} is not divisible by 4; component is not a "
            "collection of simple closed curves"
        )
    return 1 + diff // 4


@dataclass(frozen=True)
class ComponentReport:
    """Everything the analysis pipeline knows about one component."""

    component_id: int
    area: int
    census: CornerCensus
    holes_formula: int | None
    holes_oracle: int | None
    validity: ValidityReport | None
    agreement: bool | None
    classification: CornerClassification

    def to_dict(self) -> dict:
        """Schema-stable JSON form; exactly these fields, never more."""
        return {
            "component_id": self.component_id,
            "area": self.area,
            "c2": self.census.c2,
            "c3": self.census.c3,
            "c4": self.census.c4,
            "holes_formula": self.holes_formula,
            "holes_oracle": self.holes_oracle,
            "valid": self.validity.valid if self.validity is not None else None,
            "agreement": self.agreement,
        }


def analyze_component(
    g: BinaryGrid,
    component_id: int,
    run_oracle: bool = True,
    run_validation: bool = True,
    labels: LabelMap | None = None,
) -> ComponentReport:
    """Census, formula, and optional oracle/validation for one component.

    The formula result is suppressed (None) when validation was requested
    and failed, or when the census fails the divisibility that holds for
    every valid component. The oracle result is suppressed too when
    validation ran and failed: the 4-connected complement of a component
    whose boundary is not a set of simple closed curves does not count its
    holes (with validation off, the oracle runs on every component). The
    oracle isolates the component in its ringed box on the image's mosaic
    (`labeling.hole_regions`, labelled once for all components), so border
    contact is harmless here.
    """
    if labels is None:
        labels = label_components(g, "foreground")
    ctx = ComponentContext.of_label(labels, component_id)
    classification = classify_corners(g, ctx)
    census = classification.census

    validity = validate_component(g, ctx) if run_validation else None

    holes_formula = holes_oracle = None
    if validity is None or validity.valid:
        try:
            holes_formula = holes_by_formula(census)
        except FormulaInapplicableError:
            holes_formula = None
        if run_oracle:
            holes_oracle = holes_in_mask(ctx)

    agreement = None
    if holes_formula is not None and holes_oracle is not None:
        agreement = holes_formula == holes_oracle

    return ComponentReport(
        component_id=component_id,
        area=int(labels.table.area[component_id]),
        census=census,
        holes_formula=holes_formula,
        holes_oracle=holes_oracle,
        validity=validity,
        agreement=agreement,
        classification=classification,
    )


def analyze_image(
    g: BinaryGrid, run_oracle: bool = True, run_validation: bool = True
) -> tuple[ComponentReport, ...]:
    """One report per foreground component, in component-id order."""
    labels = label_components(g, "foreground")
    return tuple(
        analyze_component(
            g,
            cid,
            run_oracle=run_oracle,
            run_validation=run_validation,
            labels=labels,
        )
        for cid in range(1, labels.component_count + 1)
    )
