"""Snapshot of every layer's state, to check that a call writes none of it."""

import numpy as np


def layer_state(model):
    """Per layer: its attribute bindings, and each parameter, gradient and
    buffer array with a copy of its values."""
    state = []
    for layer in model.encoder + model.decoder:
        tensors = {
            (kind, name): (arr, arr.copy())
            for kind in ("params", "grads", "buffers")
            for name, arr in getattr(layer, kind).items()
        }
        state.append((dict(vars(layer)), tensors))
    return state


def assert_state_unchanged(model, before):
    """No attribute of any layer was rebound, added or removed, and no
    parameter, gradient or buffer was replaced or written to."""
    for i, ((attrs, tensors), (now_attrs, now_tensors)) in enumerate(
        zip(before, layer_state(model))
    ):
        assert now_attrs.keys() == attrs.keys(), f"layer {i}: attributes added or removed"
        for key, value in attrs.items():
            assert now_attrs[key] is value, f"layer {i}: {key} rebound"
        assert now_tensors.keys() == tensors.keys(), f"layer {i}: tensors added or removed"
        for key, (arr, values) in tensors.items():
            assert now_tensors[key][0] is arr, f"layer {i}: {key} replaced"
            assert np.array_equal(arr, values), f"layer {i}: {key} written"
