"""Hypothesis fuzz of the exchange-file, params, dataset and model loaders:
every input either loads or raises a HedgerowError (which the CLI maps to
exit 3 or 4); of exact base conversion against Python ints; and of every
preset's transforms against their definition."""

import dataclasses
import json
from itertools import islice
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgerow import (
    HedgerowError, HeParams, ModelFormatError, ParamError, load_params, make_test_params, serial,
)
from hedgerow.modelio import (
    Dataset, FeatureLayout, build_layout, ensemble_slot_streams, load_dataset, load_ensemble,
    load_layout, load_svm, pack_client_input,
)
from hedgerow.ntt import MODULUS_BITS, ntt_primes
from hedgerow.params import PRESET_NAMES, gen_params
from hedgerow.pipeline import BUNDLE_COUNTS, SCORE_COUNTS, read_manifest
from hedgerow.ring import get_ring
from hedgerow.scheme import HeBackend
from oracles import check_garner_conversions, check_ntt_definition, cut_ciphertext

FUZZ = settings(max_examples=200, derandomize=True, deadline=None)

VALID_LAYOUT = {
    "slot_count": 8,
    "classes": 2,
    "trees_per_class": 2,
    "features": 5,
    "svm_features": 4,
    "tree_features": [[0, 1, 2], [3, 4, 0], [1, 1, 1], [4, 3, 2]],
}

# small ints so that a layout that loads can also be packed
_ints = st.integers(-2, 12)
_non_ints = st.one_of(
    st.booleans(), st.floats(), st.none(), st.text(max_size=2), st.lists(_ints, max_size=3)
)
_values = st.one_of(_ints, _non_ints)
_trees = st.lists(st.lists(_values, min_size=2, max_size=4), max_size=10)
# only in tree entries, so that a layout that loads keeps a small feature count
_beyond_int64 = st.integers(2**63, 2**80)


@st.composite
def layout_docs(draw):
    """The valid layout with any of its fields or tree entries replaced,
    a field dropped, or no JSON object at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(_values)
    doc = {key: value for key, value in VALID_LAYOUT.items() if key != "tree_features"}
    doc["tree_features"] = [list(t) for t in VALID_LAYOUT["tree_features"]]
    for tree in doc["tree_features"]:
        if draw(st.booleans()):
            tree[draw(st.integers(0, 2))] = draw(st.one_of(_values, _beyond_int64))
    for key in VALID_LAYOUT:
        if draw(st.booleans()):
            doc[key] = draw(st.one_of(_values, _trees) if key == "tree_features" else _values)
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@pytest.fixture(scope="module")
def layout_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "layout.json"


def _tree(feat, thresh, leaves):
    return {"feat": feat, "thresh": thresh, "leaves": leaves}


VALID_MODELS = {
    "ensemble": {
        "classes": 2, "trees_per_class": 2, "features": 5, "scale_bits": 20,
        "trees": [_tree([0, 1, 2], [0.5, -0.5, 0.5], [0.25, -1, 0.5, 0]),
                  _tree([3, 4, 0], [-0.5, -0.5, 0.5], [1, 2, 3, 4]),
                  _tree([1, 1, 1], [0.5, 0.5, 0.5], [0, 0, 0, 0]),
                  _tree([4, 3, 2], [-0.5, 0.5, -0.5], [-0.5, 0.5, -1.5, 2])],
    },
    "svm": {"classes": 2, "features": 3, "scale_bits": 20,
            "weights": [0.5, -0.25, 1, 0, 2, -3], "bias": [0.125, -1]},
    "bundle": {"samples": 2, "slot_count": 8, "svm_features": 4, "layout_digest": "0" * 64},
    "scores": {"mode": "xgb", "samples": 2, "classes": 2, "scale_bits": 20, "outputs": 1,
               "class_positions": [[0, 0], [0, 4]]},
}


def _paths(value, path=()):
    """The path of ``value`` and of every field and list entry inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _paths(inner, path + (key,))


# finite reals whose fixed-point form reaches int64 (leaves and weights
# quantize at 2^20), either sign
_large_reals = st.floats(2.0**40, 2.0**80).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def model_docs(draw, kind, values=_values):
    """A valid model or manifest with one to three of its fields, list
    entries or tree entries replaced by any of ``values`` (the whole
    document being one of them), and sometimes a field dropped."""
    doc = json.loads(json.dumps(VALID_MODELS[kind]))
    edits = draw(st.lists(st.sampled_from(list(_paths(doc))), min_size=1, max_size=3))
    for path in sorted(edits, key=len, reverse=True):  # inner edits before outer ones
        if not path:
            return draw(values)
        *outer, last = path
        parent = doc
        for key in outer:
            parent = parent[key]
        parent[last] = draw(values)
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@FUZZ
@given(doc=layout_docs())
def test_load_layout_loads_or_refuses(layout_path, doc):
    layout_path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        layout = load_layout(layout_path)
    except HedgerowError:
        return
    assert isinstance(layout, FeatureLayout)
    bundle = pack_client_input(np.ones(max(layout.num_features, layout.svm_features)), layout)
    assert len(bundle.xgb_planes) == layout.num_blocks


@pytest.fixture(scope="module")
def containers():
    params = dataclasses.replace(make_test_params(16, num_primes=3, depth_budget=1),
                                 output_primes=1)
    be = HeBackend(params)
    sk, pk, ek = be.keygen(seed=3)
    ct = be.encrypt(pk, be.encode([1, -1, 0, 1]), seed=4)
    seeded = be.encrypt(sk, be.encode([1, -1, 0, 1]), seed=4)  # c0 and a_seed
    return params, {"ciphertext": ct, "seeded_ciphertext": seeded,
                    "switched_ciphertext": be.mod_switch(ct),  # 1 of the 3 primes
                    "secret_key": sk, "public_key": pk, "eval_keys": ek}


@pytest.mark.parametrize("kind", ["ciphertext", "seeded_ciphertext", "switched_ciphertext",
                                  "secret_key", "public_key", "eval_keys"])
@FUZZ
@given(data=st.data())
def test_container_damage_loads_or_refuses(containers, kind, data):
    """A damaged container that still loads is canonical: it writes back to
    exactly its own bytes.  A whole ciphertext's prime-count word (bytes
    46-53) is drawn as a damage site one time in four, since any other value
    in it must be refused, and its damage may also cut the word and both
    parts together to a drawn count: at K = 3 and k' = 1, a count of 2 or 0
    is consistent but for the count, and must be refused.  A ciphertext that
    loads holds K or k' primes."""
    params, items = containers
    name = kind.removeprefix("seeded_").removeprefix("switched_")
    save, load = getattr(serial, f"serialize_{name}"), getattr(serial, f"deserialize_{name}")
    blob = save(items[kind])
    whole = blob[5] == serial.TAG_CIPHERTEXT
    mode = data.draw(st.sampled_from(["truncate", "flip", "rows"][: 2 + whole]), label="damage")
    if mode == "truncate":
        damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]
    elif mode == "rows":
        rows = data.draw(st.integers(0, items[kind].prime_count), label="rows")
        damaged = cut_ciphertext(blob, params.ring_degree, rows)
    else:
        sites = st.integers(0, len(blob) - 1)
        if whole:
            sites = st.one_of(sites, sites, sites, st.integers(46, 53))
        at = data.draw(sites, label="offset")
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:]
    try:
        loaded = load(damaged, params)
    except HedgerowError:
        return
    assert save(loaded) == damaged
    if name == "ciphertext":
        assert loaded.prime_count in (len(params.coeff_modulus), params.output_primes)


T = make_test_params(8, num_primes=2, depth_budget=1).plaintext_modulus


@pytest.mark.parametrize("kind", ["ensemble", "svm"])
@FUZZ
@given(data=st.data())
def test_model_loaders_load_or_refuse(layout_path, kind, data):
    """With and without a plaintext modulus; an ensemble that loads also
    lays out and yields its model planes."""
    path = layout_path.with_name(f"{kind}.json")
    doc = data.draw(model_docs(kind, st.one_of(_values, _large_reals)))
    path.write_text(json.dumps(doc), encoding="utf-8")
    for modulus in (T, None):
        try:  # a float that int64 cannot hold is refused, never cast
            with np.errstate(over="raise", invalid="raise"):
                model = (load_ensemble if kind == "ensemble" else load_svm)(path, modulus)
                if kind == "ensemble":
                    ensemble_slot_streams(model, build_layout(model, 8))
        except HedgerowError:
            pass


@pytest.mark.parametrize("kind, counts", [("bundle", BUNDLE_COUNTS), ("scores", SCORE_COUNTS)])
@FUZZ
@given(data=st.data())
def test_read_manifest_loads_or_refuses(layout_path, kind, counts, data):
    directory = layout_path.parent / kind
    directory.mkdir(exist_ok=True)
    (directory / "manifest.json").write_text(json.dumps(data.draw(model_docs(kind))),
                                             encoding="utf-8")
    try:
        read_manifest(directory, counts, 8)
    except HedgerowError:
        pass


VALID_PARAMS = make_test_params(16, num_primes=2, depth_budget=1).canonical_text().splitlines()
_huge = st.one_of(st.integers(2**63, 2**200), st.integers(4290, 4310).map(lambda k: "7" * k))
_words = st.one_of(
    st.integers(-(2**70), 2**70), _huge, st.text(max_size=4),
    st.sampled_from(["", "1.5", "0x20", "1e3", "16 16", "\u0661\u0666", "nan"]),
).map(str)


@st.composite
def params_files(draw):
    """The valid params file with values replaced, lines repeated, dropped or
    added, encoded as UTF-8 or Latin-1; or arbitrary bytes."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.binary(max_size=64))
    lines = list(VALID_PARAMS)
    for i, line in enumerate(VALID_PARAMS):
        if draw(st.booleans()):
            lines[i] = line.split("=")[0] + "=" + draw(_words)
    for _ in range(draw(st.integers(0, 2))):
        action = draw(st.sampled_from(["repeat", "drop", "add"]))
        at = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if action == "repeat" and lines:
            lines.insert(at, lines[at])
        elif action == "drop" and lines:
            del lines[at]
        else:
            lines.insert(at, draw(_words))
    return "\n".join(lines).encode(draw(st.sampled_from(["utf-8", "latin-1"])), "replace")


@FUZZ
@given(blob=params_files())
def test_load_params_loads_or_refuses(layout_path, blob):
    path = layout_path.with_name("params.txt")
    path.write_bytes(blob)
    try:
        params = load_params(path)
    except ParamError:  # exit 3 at the CLI
        return
    assert isinstance(params, HeParams)


_cells = st.one_of(
    st.integers(-2, 2), st.integers(-3, 3), _huge, st.text(max_size=3),
    st.sampled_from(["", " 1", "1.0", "1e0", "+1", "\u0661", "-"]),
).map(str)


@FUZZ
@given(
    rows=st.lists(st.lists(_cells, max_size=5), max_size=5),
    encoding=st.sampled_from(["utf-8", "latin-1"]),
    labeled=st.booleans(),
)
def test_load_dataset_loads_or_refuses(layout_path, rows, encoding, labeled):
    """Ragged, blank, non-integer, huge and non-ASCII rows load or refuse."""
    path = layout_path.with_name("data.csv")
    path.write_bytes("\n".join(",".join(row) for row in rows).encode(encoding, "replace"))
    try:
        dataset = load_dataset(path, labeled=labeled)
    except ModelFormatError:  # exit 3 at the CLI
        return
    assert isinstance(dataset, Dataset)
    assert dataset.num_samples > 0


# 31-bit NTT primes: any 1 to 64 of them form a basis, and any of them a
# target, above, below or among the basis primes
_PRIMES = tuple(islice(ntt_primes(MODULUS_BITS, 2 * 64), 80))


@st.composite
def conversions(draw):
    """A basis, targets, and centred values: edges 0, +-1 and +-h, or any."""
    basis = draw(st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=64, unique=True))
    targets = draw(st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=6))
    h = (prod(basis) - 1) // 2
    edges = st.sampled_from([0, 1, -1, h, -h])
    values = draw(st.lists(st.one_of(edges, st.integers(-h, h)), min_size=1, max_size=6))
    return basis, targets, values


@FUZZ
@given(case=conversions())
def test_base_conversion_matches_python_ints(case):
    check_garner_conversions(*case)


@st.composite
def transforms(draw):
    """A preset's plan over its tensor basis, a run of rows ending at K, K+L
    or the whole basis from any start, residues all 0, all p - 1 or random
    with p - 1 and 0 pinned at drawn positions, and positions to check."""
    ring = get_ring(gen_params(draw(st.sampled_from(PRESET_NAMES))))
    stop = draw(st.sampled_from([ring.k, len(ring.qp_primes), len(ring.tensor_primes)]))
    start = draw(st.integers(0, stop - 1))
    p = ring.plan_q.p[start:stop]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, 2**62, (stop - start, ring.n), dtype=np.uint64) % p
    fill = draw(st.sampled_from(["zero", "top", "random"]))
    if fill != "random":
        a[:] = 0 if fill == "zero" else p - np.uint64(1)
    position = st.integers(0, ring.n - 1)
    a[:, draw(st.lists(position, max_size=4))] = p - np.uint64(1)
    a[:, draw(st.lists(position, max_size=4))] = 0
    return ring.plan_q, a, start, draw(st.lists(position, min_size=1, max_size=3))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=transforms())
def test_preset_transforms_match_their_definition(case):
    check_ntt_definition(*case)
