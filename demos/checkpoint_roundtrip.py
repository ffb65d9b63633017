"""
Checkpoint containers with alias entries
========================================

Build a parameter store from one table, tying two entries to shared
storage, write the container to disk, and read it back byte-for-byte.
"""

import os
import tempfile

import numpy as np

from ffmerge.checkpoint import (ParameterStore, read_container, tie_report,
                                write_container)

rng = np.random.default_rng(0)

# a store is one table in header order: a name maps to its f32 tensor, or
# (an alias) to the name of the owner entry whose storage it shares
store = ParameterStore({
    "block0.w": rng.normal(size=(4, 3)).astype(np.float32),
    "block0.b": rng.normal(size=4).astype(np.float32),
    "block1.w": rng.normal(size=(4, 3)).astype(np.float32),
    "block2.w": "block0.w",
    "block2.b": "block0.b",
})

# an alias resolves to the very same array object as its owner
assert store.get("block2.w") is store.get("block0.w")

report = tie_report(store)
print(f"total parameters   {report.total_parameters}")
print(f"unique parameters  {report.unique_parameters}")
print(f"reduction ratio    {report.reduction_ratio:.4f}")

# round-trip through the on-disk container
with tempfile.TemporaryDirectory(prefix="ffmerge-demo-") as workdir:
    path = os.path.join(workdir, "tied.ffmc")
    write_container(store, {"note": "demo store"}, path)
    back, meta = read_container(path)

    print(f"wrote {os.path.getsize(path)} bytes -> {path}")
    print(f"meta round-tripped: {meta}")
    for name in back.names:
        target = back.alias_target(name)
        kind = str(back.get(name).shape) if target is None else f"alias of {target}"
        print(f"  {name:<10s} {kind}")
        assert np.array_equal(back.get(name), store.get(name))

    # writing the parsed store again reproduces the identical file
    second = os.path.join(workdir, "tied2.ffmc")
    write_container(back, meta, second)
    with open(path, "rb") as f1, open(second, "rb") as f2:
        assert f1.read() == f2.read()
    print("write/read/write is byte-identical")
