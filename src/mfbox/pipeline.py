"""One-day analysis pipeline: measure -> partition -> scaling -> spectrum."""

from __future__ import annotations

from dataclasses import dataclass

from .ingest import BoxScheme, PriceSeries, derive_box_scheme
from .partition import MomentGrid, PartitionSurface, partition_surface
from .scaling import MassExponents, fit_mass_exponents
from .spectrum import SingularitySpectrum, legendre_spectrum


@dataclass(frozen=True, eq=False)
class DayAnalysis:
    series: PriceSeries
    surface: PartitionSurface
    exponents: MassExponents
    spectrum: SingularitySpectrum


def analyze_series(
    series: PriceSeries,
    scheme: BoxScheme | None = None,
    grid: MomentGrid | None = None,
) -> DayAnalysis:
    """Run the full chain on one day; scheme and grid default per the series."""
    if scheme is None:
        scheme = derive_box_scheme(series.length)
    if grid is None:
        grid = MomentGrid.from_range()
    surface = partition_surface(series, scheme, grid)
    exponents = fit_mass_exponents(surface)
    return DayAnalysis(
        series=series,
        surface=surface,
        exponents=exponents,
        spectrum=legendre_spectrum(exponents),
    )
