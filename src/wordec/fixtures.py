"""Bundled benchmark fixtures.

Each fixture is a (specification, implementation) pair shipped in both the
SystemVerilog subset and the S-expression IR.  The benchmark re-creations
(vbsme*, fir8, adpcm, boxfilter) are re-derived from one-line descriptions
of the published benchmarks, not from the original sources; see the note in
each file header.
"""

from __future__ import annotations

from importlib import resources

from .frontend import Design, parse_design

# name -> (spec stem, impl stem); the .ir file is the canonical source, the
# .sv twin is the human-auditable rendering of the same design.
PAIRS: dict[str, tuple[str, str]] = {
    "fig1": ("fig1a", "fig1b"),
    "fig1-scaled": ("fig1a_scaled", "fig1b_scaled"),
    "fig4": ("fig4a", "fig4b"),
    "vbsme4": ("vbsme4_spec", "vbsme4_impl"),
    "vbsme8": ("vbsme8_spec", "vbsme8_impl"),
    "fir8": ("fir8_spec", "fir8_impl"),
    "adpcm": ("adpcm_spec", "adpcm_impl"),
    "boxfilter": ("boxfilter_spec", "boxfilter_impl"),
}


def _read(fname: str) -> str:
    return (resources.files("wordec") / "data" / fname).read_text()


def load_design(stem: str, fmt: str = "ir") -> Design:
    """The bundled file `stem.fmt`, read by the reader its first token
    picks."""
    return parse_design(_read(f"{stem}.{fmt}"))


def load_pair(name: str, fmt: str = "ir") -> tuple[Design, Design]:
    if name not in PAIRS:
        raise ValueError(f"unknown fixture {name!r}; "
                         f"available: {', '.join(sorted(PAIRS))}")
    spec_stem, impl_stem = PAIRS[name]
    return load_design(spec_stem, fmt), load_design(impl_stem, fmt)


def names() -> list[str]:
    return sorted(PAIRS)
