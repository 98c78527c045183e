ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def layouts(params):
    """``params``'s tensors in each memory layout the update kernel plans for.

    packed: one buffer, small tensors share runs; separate: arrays
    allocated one by one, runs of one; subset_gap: a subset of a packed
    set with a tensor left out after the second entry; f32: packed, half
    the width.
    """
    import numpy as np
    from zobench.params import ParamSet

    entries = list(params.items())
    gapped = ParamSet(entries[:2] + [("gap", np.zeros(1, params.dtype))]
                      + entries[2:])
    return {
        "packed": params.copy(),
        "separate": ParamSet([(n, a.copy()) for n, a in entries], copy=False),
        "subset_gap": gapped.subset(params.names),
        "f32": ParamSet([(n, a.astype(np.float32)) for n, a in entries]),
    }


def reference_axpy(params, coeff, seed, kind):
    """axpy by its definition, tensor by tensor from freshly built streams."""
    from zobench.samplers import sample_for_tensor
    from zobench.streams import GaussianStream

    for i, (_, arr) in enumerate(params.items()):
        z = sample_for_tensor(GaussianStream(seed, substream=i), arr.shape,
                              kind, dtype=arr.dtype)
        z *= coeff
        arr += z
