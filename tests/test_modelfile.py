import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import drmdp.modelfile as modelfile
from drmdp.ambiguity import validate
from drmdp.engine import backward_induction
from drmdp.modelfile import (
    ModelFileError,
    parse_model_file,
    parse_model_text,
    serialize_document,
)

DATA = Path(__file__).parent.parent / "src" / "drmdp" / "data"


def _root_value(document):
    model = document.build()
    vf, _, _ = backward_induction(model, certificates=False)
    return vf[model.stages[0][0]]


def test_bundled_finite_model_golden_value():
    doc = parse_model_file(DATA / "finite_two_state.yaml")
    assert _root_value(doc) == pytest.approx(0.4, abs=1e-12)


def test_round_trip_preserves_value_exactly():
    for name in ("finite_two_state", "invalid_rows", "boundary_weights"):
        doc = parse_model_file(DATA / f"{name}.yaml")
        doc2 = parse_model_text(serialize_document(doc))
        assert _root_value(doc) == _root_value(doc2)  # zero tolerance


def test_unknown_key_rejected_with_path():
    text = (DATA / "finite_two_state.yaml").read_text()
    with pytest.raises(ModelFileError, match=r"states\[0\].factor_map"):
        parse_model_text(text.replace("p_offset:", "p_offsets:"))


def test_format_version_checked():
    text = (DATA / "finite_two_state.yaml").read_text()
    with pytest.raises(ModelFileError, match="format_version"):
        parse_model_text(text.replace("format_version: 1", "format_version: 99"))


def test_exactly_one_horizon_kind():
    text = (DATA / "finite_two_state.yaml").read_text()
    with pytest.raises(ModelFileError, match="stages.*discount|discount.*stages"):
        parse_model_text(text + "\ndiscount: 0.9\n")


def test_named_ambiguity_reference():
    doc = parse_model_file(DATA / "infinite_two_state.yaml")
    model = doc.build()
    assert model.discount == 0.9
    text = serialize_document(doc).replace("ambiguity: ball", "ambiguity: missing")
    with pytest.raises(ModelFileError, match="missing"):
        parse_model_text(text)


def test_syntax_error_located():
    with pytest.raises(ModelFileError, match="line"):
        parse_model_text("format_version: 1\nstates: [\n")


@pytest.mark.parametrize("text", [
    "format_version: 1\nstates: [\n",
    "format_version: 1\nstates: [1, 2",  # libyaml marks the line after
    "format_version: 1\nstates: {a: 1\n",
    "format_version: 'open\n",
    "format_version: 1\n  states: []\n",
    "format_version: 1: 2\n",
])
def test_syntax_error_names_its_line_and_column(text):
    with pytest.raises(ModelFileError, match=r"^syntax error at line \d+, column \d+: "):
        parse_model_text(text)


def _typed(node):
    """A YAML document with the type of every scalar beside its value."""
    if isinstance(node, dict):
        return {k: _typed(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_typed(v) for v in node]
    return type(node).__name__, repr(node)


def _random_document(rng, depth=0):
    scalars = (
        lambda: float(rng.normal() * 10.0 ** rng.integers(-300, 300)),
        lambda: float(rng.integers(-5, 5)),
        lambda: int(rng.integers(-10**12, 10**12)),
        lambda: bool(rng.integers(2)),
        lambda: None,
        lambda: str(rng.choice(["simplex", "box", "1e-3", "yes", "0.5", "~", "inf"])),
    )
    if depth == 3 or rng.random() < 0.3:
        return scalars[rng.integers(len(scalars))]()
    if rng.random() < 0.5:
        return [_random_document(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    return {f"k{i}": _random_document(rng, depth + 1) for i in range(rng.integers(1, 4))}


def test_libyaml_and_python_loaders_give_equal_documents():
    import drmdp.modelfile as modelfile

    if modelfile._LOADER is yaml.SafeLoader:
        pytest.skip("PyYAML was built without libyaml")
    texts = [path.read_text() for path in sorted(DATA.glob("*.yaml"))]
    assert len(texts) == 4
    rng = np.random.default_rng(0)
    for _ in range(40):
        doc = {"format_version": 1, "states": _random_document(rng)}
        for flow in (False, True, None):
            texts.append(yaml.safe_dump(doc, default_flow_style=flow, sort_keys=False))
    for text in texts:
        fast, slow = yaml.load(text, Loader=modelfile._LOADER), yaml.safe_load(text)
        assert _typed(fast) == _typed(slow)
    for path in sorted(DATA.glob("*.yaml")):
        assert _typed(parse_model_file(path).raw) == _typed(yaml.safe_load(path.read_text()))


def test_terminal_states_carry_no_kernel():
    text = """
format_version: 1
stages: [[0], [1]]
states:
- terminal: true
  ambiguity: {builder: support_only, support: {kind: simplex, dim: 2}}
- terminal: true
"""
    with pytest.raises(ModelFileError, match="terminal"):
        parse_model_text(text)


def test_unknown_builder_rejected():
    text = (DATA / "finite_two_state.yaml").read_text()
    with pytest.raises(ModelFileError, match="builder"):
        parse_model_text(text.replace("builder: wasserstein", "builder: gaussian"))


def _edited(name, edit):
    """A bundled document's YAML text after edit(doc) changed it in place."""
    doc = yaml.safe_load((DATA / f"{name}.yaml").read_text())
    edit(doc)
    return yaml.safe_dump(doc)


def _ball(**entries):
    return lambda doc: doc["ambiguities"]["ball"].update(entries)


def _ball_support(**entries):
    return lambda doc: doc["ambiguities"]["ball"]["support"].update(entries)


def _second_state(key, value):
    return lambda doc: doc["states"][1][key].update(value)


MEAN_BLOCK = {"builder": "uncertain_mean", "support": {"kind": "simplex", "dim": 2},
              "mean_lo": [0, 0], "mean_hi": [1, 1], "center": [0.5, 0.5], "radius": 0.1}

# (bundled document, edit, the document path the error must name)
MALFORMED = {
    "empty r_offset": ("infinite_two_state", _second_state("factor_map", {"r_offset": []}),
                       "states[1].factor_map"),
    "text discount": ("infinite_two_state", lambda doc: doc.update(discount="high"),
                      "document.discount"),
    "text radius": ("infinite_two_state", _ball(radius="wide"), "ambiguities.ball"),
    "text support dim": ("infinite_two_state", _ball_support(dim="two"), "ambiguities.ball"),
    "text stage entry": ("finite_two_state", lambda doc: doc.update(stages=[[0], [1, "two"]]),
                         "document.stages"),
    "fractional stage entry": ("finite_two_state", lambda doc: doc.update(stages=[[0], [1.5, 2]]),
                               "document.stages"),
    "flat stages": ("finite_two_state", lambda doc: doc.update(stages=[0]), "document.stages"),
    "scalar samples": ("infinite_two_state", _ball(samples=3), "ambiguities.ball"),
    "metric 2": ("infinite_two_state", _ball(metric=2), "ambiguities.ball"),
    "norm 2": ("infinite_two_state", lambda doc: doc["states"][1].update(
        ambiguity={**MEAN_BLOCK, "norm": 2}), "states[1].ambiguity"),
    "dim 0": ("infinite_two_state", _ball_support(dim=0), "ambiguities.ball"),
    "text terminal on a decision state": ("finite_two_state", lambda doc: doc["states"][0].update(terminal="false"),
                                          "states[0].terminal", "expected true or false, got 'false'"),
    "null terminal": ("finite_two_state", lambda doc: doc["states"][1].update(terminal=None),
                      "states[1].terminal", "got None"),
    "text terminal": ("finite_two_state", lambda doc: doc["states"][1].update(terminal="no"),
                      "states[1].terminal", "got 'no'"),
    "integer terminal": ("finite_two_state", lambda doc: doc["states"][2].update(terminal=2),
                         "states[2].terminal", "got 2"),
    "box bounds of two lengths": ("infinite_two_state", _second_state(
        "ambiguity", {"support": {"kind": "box", "lo": [0, 0], "hi": [1]}}),
        "states[1].ambiguity", "box bounds differ in length: lo has 2 entries, hi has 1"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_value_raises_model_file_error_with_its_path(case):
    # a case may also name the text that must follow its path
    name, edit, path, *text = MALFORMED[case]
    pattern = re.escape(path) + "".join(".*" + re.escape(t) for t in text)
    with pytest.raises(ModelFileError, match=pattern):
        parse_model_text(_edited(name, edit))


def _shared_supports_document():
    """States over the 2-simplex and two boxes: the support specs of
    states 0, 1, 2 and 4 are equal, those of states 3 and 5 differ from
    them and from each other."""
    simplex2 = {"kind": "simplex", "dim": 2}
    samples = [[0.3, 0.7], [0.6, 0.4]]
    # the factor is the transition row to states 0 and 1
    p_mat = [[1, 0], [0, 1]] + [[0, 0]] * 4
    fm = {"p_mat": p_mat, "p_offset": [0] * 6, "r_mat": [[0.5, -0.5]], "r_offset": [0.1]}
    blocks = [
        "ball",
        {"builder": "support_only", "support": dict(simplex2)},
        {"builder": "uncertain_mean", "support": dict(simplex2), "mean_lo": [0.2, 0.2],
         "mean_hi": [0.8, 0.8], "center": [0.5, 0.5], "radius": 0.3},
        {"builder": "support_only", "support": {"kind": "box", "lo": [0, 0], "hi": [1, 1]}},
        {"builder": "wasserstein", "support": dict(simplex2), "samples": samples, "radius": 0.2},
        {"builder": "support_only", "support": {"kind": "box", "lo": [0, 0], "hi": [1, 0.9]}},
    ]
    return yaml.safe_dump({
        "format_version": 1,
        "discount": 0.9,
        "ambiguities": {"ball": {"builder": "wasserstein", "support": dict(simplex2),
                                 "samples": samples, "radius": 0.1}},
        "states": [{"factor_map": fm, "ambiguity": block} for block in blocks],
    })


def test_equal_support_specs_share_one_set_per_document():
    text = _shared_supports_document()
    model = parse_model_text(text).build()
    supports = [amb.supports[0] for amb in model.ambiguities]
    assert all(s is supports[0] for s in (supports[1], supports[2], supports[4]))
    assert len({id(s) for s in supports}) == 3
    assert model.ambiguities[0].supports[1] is supports[0]
    # a document's sets are its own
    again = parse_model_text(text).build()
    assert not {id(a.supports[0]) for a in again.ambiguities} & {id(s) for s in supports}


def test_singleton_support_parses_builds_validates_and_solves():
    # three decision states, each with the known transition row (0.3, 0.7)
    # as a singleton support; action 1 earns 0.5 more than action 0
    state = {
        "factor_map": {"p_mat": np.tile(np.eye(2), (2, 1)).tolist(), "p_offset": [0.0] * 4,
                       "r_mat": [[0.0, 0.0], [0.0, 0.0]], "r_offset": [0.0, 0.5]},
        "ambiguity": {"builder": "support_only", "support": {"kind": "singleton", "point": [0.3, 0.7]}},
    }
    text = yaml.safe_dump({
        "format_version": 1,
        "stages": [[0], [1, 2], [3, 4]],
        "terminal_values": [1.0, 2.0],
        "states": [state] * 3 + [{"terminal": True}] * 2,
    })
    model = parse_model_text(text).build()
    supports = [amb.supports[0] for amb in model.ambiguities[:3]]
    assert all(s is supports[0] for s in supports)
    assert supports[0].contains([0.3, 0.7]) and not supports[0].contains([0.4, 0.6])
    for amb, fm in zip(model.ambiguities[:3], model.factor_maps[:3]):
        assert validate(amb, fm).passed
    vf, policy, _ = backward_induction(model)
    # stage 1: 0.5 + 0.3 * 1 + 0.7 * 2; the root adds 0.5 to that
    assert vf.values == pytest.approx([2.7, 2.2, 2.2, 1.0, 2.0], abs=1e-9)
    assert policy.distributions[0] == pytest.approx([0.0, 1.0], abs=1e-9)


def test_shared_supports_keep_every_validation_check():
    doc = yaml.safe_load(_shared_supports_document())
    shared = parse_model_text(yaml.safe_dump(doc)).build()
    for i, (amb, fm, state) in enumerate(zip(shared.ambiguities, shared.factor_maps, doc["states"])):
        node = doc["ambiguities"]["ball"] if state["ambiguity"] == "ball" else state["ambiguity"]
        # the same set built on its own, sharing no support with another state
        alone = modelfile._parse_ambiguity(node, f"states[{i}].ambiguity", {})
        assert alone.supports[0] is not amb.supports[0]
        got, want = validate(amb, fm), validate(alone, fm)
        assert got.checks == want.checks
        names = [name for name, _, _ in got.checks]
        assert {f"support_{n}_compact" for n in range(amb.n_scenarios)} <= set(names)


def test_staged_document_without_terminal_values_solves_as_with_zeros():
    text = (DATA / "finite_two_state.yaml").read_text()
    line = "terminal_values: [1.0, -1.0]\n"
    assert line in text
    without = parse_model_text(text.replace(line, ""))
    zeros = parse_model_text(text.replace(line, "terminal_values: [0.0, 0.0]\n"))
    assert _root_value(without) == _root_value(zeros) == 1.0


@pytest.mark.parametrize(
    "old, new, fragment",
    [
        ("format_version: 1", "format_version: 2", "document.format_version: expected 1, got 2"),
        ("format_version: 1", "format_version: 1\nsolver: highs", "document: unknown keys ['solver']"),
        ("  terminal: true", '  terminal: "yes"', "states[1].terminal: expected true or false, got 'yes'"),
    ],
    ids=["format version", "unknown top-level key", "terminal string"],
)
def test_unparsed_document_fails_the_checks_parsing_makes(old, new, fragment):
    text = (DATA / "finite_two_state.yaml").read_text()
    assert old in text
    text = text.replace(old, new, 1)
    with pytest.raises(ModelFileError) as parsed:
        parse_model_text(text)
    with pytest.raises(ModelFileError) as built:
        modelfile.ModelDocument(yaml.safe_load(text)).build()
    assert str(built.value) == str(parsed.value)
    assert str(parsed.value).startswith(fragment)


def test_unparsed_document_builds_the_model_parsing_built():
    parsed = parse_model_file(DATA / "finite_two_state.yaml")
    fresh = modelfile.ModelDocument(parsed.raw).build()
    assert fresh is not parsed.build()
    (values, policy, _), (want_values, want_policy, _) = (
        backward_induction(model) for model in (fresh, parsed.build())
    )
    assert values.values.tobytes() == want_values.values.tobytes()
    for dist, want in zip(policy.distributions, want_policy.distributions):
        assert (dist is None and want is None) or dist.tobytes() == want.tobytes()
