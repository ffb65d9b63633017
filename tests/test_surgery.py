"""Property tests of tie surgery: random sequences of window merges and
layer drops on small relu, gelu and swiglu models keep every untouched
tensor's bytes, keep tie groups well formed and owned by their first
members, and serialize canonically."""

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffmerge.checkpoint import parse_container, serialize_container
from ffmerge.config import ff_tensor_names, model_tensor_names
from ffmerge.engine import capture_activations
from ffmerge.fixtures import default_config, random_model, token_sequences
from ffmerge.merging import ANCHOR_POSITIONS, MergeSpec, merge_window
from ffmerge.selection import drop_layers

N_LAYERS = 6


def build(ff_kind: str, biases: bool, seed: int):
    cfg = replace(default_config(n_layers=N_LAYERS, d_model=4, d_ff=8,
                                 ff_kind=ff_kind), has_ff_biases=biases)
    model = random_model(cfg, seed)
    data = token_sequences(cfg, 4, 6, seed=seed + 1)
    # one capture serves every later step; a drop drops its layers' matrices
    return model, capture_activations(model, data, "ff_pre_act", max_samples=24)


def root(store, name: str) -> str:
    return store.alias_target(name) or name


def check_well_formed(model) -> None:
    store = model.store
    position = {name: i for i, name in enumerate(store.names)}
    for name in store.names:
        target = store.alias_target(name)
        if target is not None:
            # depth 1, and the group's one owner, its first member, holds the payload
            assert store.alias_target(target) is None and position[target] < position[name]
            assert store.get(name) is store.get(target)
            assert name.rsplit(".", 1)[1] == target.rsplit(".", 1)[1]
    owners = [n for n in store.names if store.alias_target(n) is None]
    assert len({id(store.get(n)) for n in owners}) == len(owners)
    data = serialize_container(store, asdict(model.config))
    back, meta = parse_container(data)
    assert serialize_container(back, meta) == data


def check_kept(before, after, renamed: dict[str, str]) -> None:
    """Each new name in ``renamed`` holds its old name's exact bytes, and two
    of them are tied afterwards exactly when they were tied before."""
    groups = {}
    for new, old in renamed.items():
        assert after.store.get(new).tobytes() == before.store.get(old).tobytes()
        groups.setdefault(root(before.store, old), set()).add(root(after.store, new))
    assert all(len(roots) == 1 for roots in groups.values())
    assert len({next(iter(r)) for r in groups.values()}) == len(groups)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from([("relu", True), ("gelu", True), ("gelu", False),
                             ("swiglu", False)]),
       seed=st.integers(0, 3), data=st.data())
def test_random_merges_and_drops(kind, seed, data):
    model, acts = build(*kind, seed)
    for _ in range(data.draw(st.integers(1, 5), label="steps")):
        cfg = model.config
        n = cfg.n_layers
        if n < 2:
            break
        if data.draw(st.integers(0, 2), label="op") > 0:
            k = data.draw(st.integers(2, min(n, 4)), label="k")
            spec = MergeSpec(data.draw(st.integers(0, n - k), label="start"), k,
                             data.draw(st.sampled_from(ANCHOR_POSITIONS), label="anchor"),
                             data.draw(st.booleans(), label="permute"))
            out, _ = merge_window(model, acts, spec)
            window = {name for i in spec.layers for name in ff_tensor_names(cfg, i)}
            check_kept(model, out, {name: name for name in model.store.names
                                    if name not in window})
            anchor_names = ff_tensor_names(cfg, spec.anchor_layer)
            for i in spec.layers:
                for name, target in zip(ff_tensor_names(cfg, i), anchor_names):
                    assert out.store.get(name) is out.store.get(target)
        else:
            count = data.draw(st.integers(1, min(2, n - 1)), label="count")
            start = data.draw(st.integers(0, n - count), label="start")
            out = drop_layers(model, start, count)
            dropped = tuple(f"layer{i}." for i in range(start, start + count))
            kept = [name for name in model_tensor_names(cfg)
                    if not name.startswith(dropped)]
            check_kept(model, out, dict(zip(model_tensor_names(out.config), kept)))
            acts = replace(acts, per_layer=acts.per_layer[:start] + acts.per_layer[start + count:])
        check_well_formed(out)
        model = out


@pytest.mark.parametrize("ff_kind", ["relu", "gelu", "swiglu"])
@pytest.mark.parametrize("tie_anchor", ANCHOR_POSITIONS)
@pytest.mark.parametrize("start,k", [(1, 2), (1, 3), (3, 2), (3, 3), (4, 2)])
def test_merge_over_part_of_a_tie_group(ff_kind, tie_anchor, start, k):
    """A window that takes part of a tie group over layers 2-4 merges at
    every anchor, and the group's members outside it keep their weights
    and stay tied to each other."""
    model, acts = build(ff_kind, ff_kind != "swiglu", seed=0)
    tied, _ = merge_window(model, acts, MergeSpec(2, 3, tie_anchor))
    cfg = model.config
    rest = [i for i in (2, 3, 4) if not start <= i < start + k]
    for anchor in ANCHOR_POSITIONS:
        out, _ = merge_window(tied, acts, MergeSpec(start, k, anchor))
        for i in rest:
            for name, first in zip(ff_tensor_names(cfg, i), ff_tensor_names(cfg, rest[0])):
                assert out.store.get(name).tobytes() == tied.store.get(name).tobytes()
                assert out.store.get(name) is out.store.get(first)
        check_well_formed(out)
