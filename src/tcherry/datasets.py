"""Bundled example data.

The lizard table records 564 observations of two Anolis species in 42
structural-habitat cells: perch height, perch diameter, insolation,
time of day (3 levels) and species, a 2x2x2x3x2 contingency table.
"""

from pathlib import Path

from .distribution import JointTable
from .io import read_counts_csv, read_scheme_json


def lizards_path() -> Path:
    """Filesystem path of the bundled lizard counts CSV."""
    return Path(__file__).with_name("data") / "lizards.csv"


def load_lizards() -> JointTable:
    """The lizard habitat contingency table as a joint distribution."""
    path = lizards_path()
    return read_counts_csv(path, scheme=read_scheme_json(path.with_suffix(".scheme.json")))
