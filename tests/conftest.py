from pathlib import Path

import pytest
from hypothesis import settings

from gravclock.scenario import parse_scenario, serialize_scenario

# Property tests draw a fixed, seed-independent set of examples, so the suite
# gives the same verdict on every run; there is no example database to keep,
# and no per-example deadline on a shared, drifting host.
settings.register_profile("gravclock", derandomize=True, database=None, deadline=None)
settings.load_profile("gravclock")

PRESETS = Path(__file__).resolve().parent.parent / "presets"


@pytest.fixture
def preset_under(tmp_path_factory):
    """(preset name, convention) -> the path of a scenario file holding that
    preset with its convention set, in serialize_scenario's normal form."""

    def write(preset: str, convention: str) -> Path:
        scenario = parse_scenario((PRESETS / preset).read_text())._replace(convention=convention)
        path = tmp_path_factory.mktemp("scenario") / f"{Path(preset).stem}-{convention}.cfg"
        path.write_text(serialize_scenario(scenario), encoding="utf-8")
        return path

    return write
