"""The JSON writer writes the bytes of ``json.dump(..., indent=2, sort_keys=True)``, in one piece."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hazard2ts import cli


def oracle(payload) -> str:
    return json.dumps(cli._json_value(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    # the switch between fixed and exponential repr, each side of it, and the smallest values
    st.builds(lambda v, side: np.nextafter(v, side).item(),
              st.sampled_from([1e16, -1e16, 1e-5, 1e-4, -1e-4]),
              st.sampled_from([-math.inf, 0.0, math.inf])),
    st.sampled_from([0.0, -0.0, 1e16, 1e-5, 1e-4, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308]),
)
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f é☃\U0001f600')),
                max_size=6)
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


@st.composite
def _symmetric_squares(draw):
    """Squares symmetric bit for bit, or, with every mirrored zero of the lower triangle
    negated, symmetric by ``==`` only: -0.0 facing 0.0."""
    n = draw(st.integers(0, 5))
    square = draw(hnp.arrays(np.float64, (n, n),
                             elements=st.one_of(st.sampled_from([0.0, -0.0]), _FLOATS)))
    sym = np.where(np.triu(np.ones((n, n), dtype=bool)), square, square.T)
    if draw(st.booleans()):
        lower = np.tril(sym == 0, -1)
        sym[lower] = -sym[lower]
    return sym


_LEAVES = st.one_of(
    _FLOATS, st.integers(), st.booleans(), st.none(), _TEXT,
    _FLOATS.map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    hnp.arrays(np.float64, _SHAPES, elements=_FLOATS),
    hnp.arrays(np.float32, _SHAPES, elements=st.floats(width=32)),
    hnp.arrays(st.sampled_from([np.int64, np.uint8, np.bool_]), _SHAPES),
    _symmetric_squares(),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
@example({"covariance": np.array([[2.0, 0.0], [-0.0, 3.0]])})
@example({"covariance": np.array([[-0.0, -0.0], [-0.0, 1.0]]), "mask": np.zeros((2, 0), int)})
@example([np.array([[1.0, math.nan], [math.nan, -math.inf]]), np.float64(math.inf), ()])
def test_writes_the_bytes_of_json_dump(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "writer_property.json"   # one file, rewritten
    cli.write_json(path, payload)
    assert path.read_bytes() == oracle(payload).encode("ascii")


def test_a_value_that_cannot_be_encoded_leaves_no_file_and_an_old_one_as_it_was(tmp_path):
    payload = {"a": np.arange(3.0), "b": object()}
    kept = tmp_path / "kept.json"
    kept.write_text('{"old": 1}\n')
    for path in (kept, tmp_path / "new.json"):
        with pytest.raises(TypeError):
            cli.write_json(path, payload)
    assert kept.read_text() == '{"old": 1}\n'
    assert not (tmp_path / "new.json").exists()


@pytest.mark.parametrize("command,pclm,names", [
    ("fit", False, ["fit_summary.json", "model.json"]),
    ("fit", True, ["fit_summary.json", "model.json"]),
    ("ungroup", False, ["ungroup_diagnostics.json"]),
])
def test_pipeline_json_files_are_what_json_dump_writes(constant_cohort, tmp_path, command, pclm,
                                                       names):
    cfg = cli.RunConfig(pclm=cli.PclmConfig(enabled=pclm))
    run = cli.run_fit_pipeline if command == "fit" else cli.run_ungroup_pipeline
    run(cfg, constant_cohort, tmp_path)
    files = sorted(tmp_path.rglob("*.json"))
    assert [p.name for p in files] == names
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name
