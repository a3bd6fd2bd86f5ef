"""The pinned rows of the canonical run set (tests/canon.py) write the bytes
of tests/canon.sha256, and the pin rule selects exactly those rows."""

import json

import numpy as np
import pytest

import canon


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """A directory holding the output of canon's pinned rows."""
    out = tmp_path_factory.mktemp("canon")
    canon.run_set(out, [row for row in canon.runs() if canon.pinned(row[0])])
    return out


def test_pinned_outputs_match_digest_file(pinned_run):
    pins = canon.read_sums(canon.PINS)
    digests = canon.digests(pinned_run)
    assert sorted(digests) == sorted(pins)
    changed = [path for path, digest in pins.items() if digests[path] != digest]
    assert not changed, f"{changed} differ from tests/canon.sha256 under numpy {np.__version__}"


def test_pin_rule_selects_the_digest_file(pinned_run):
    """A canon row is pinned exactly when the rule selects it, and every
    pinned run that reports its field kernel ran the edge kernel."""
    pinned_dirs = {path.split("/")[0] for path in canon.read_sums(canon.PINS)}
    assert pinned_dirs == {name for name, _config, _argv in canon.runs() if canon.pinned(name)}
    kernels = [json.loads(path.read_text()).get("field_kernel")
               for path in pinned_run.glob("*/report.json")]
    assert set(kernels) <= {"edge", None} and "edge" in kernels
