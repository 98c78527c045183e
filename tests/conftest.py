ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def layouts(params):
    """``params``'s tensors in each memory layout the update kernel plans for.

    Every set packs its tensors into one buffer; a subset shares its
    parent's.  packed: small tensors share runs; strided: packed from
    transposed and negative-stride views with the same values;
    subset_gap: a subset of a packed set with a tensor left out after the
    second entry; subset_of_subset: a subset of a subset of a packed
    set, where the outer subset keeps a tensor after the third entry and
    the inner one leaves it out, so the runs follow the root's offsets
    and break there; f32: packed, half the width.
    """
    import numpy as np
    from zobench.params import ParamSet

    def strided(i, arr):
        # same values, not C-contiguous: a transposed or a reversed view
        if i % 2 == 0:
            return np.ascontiguousarray(arr.T).T
        return np.ascontiguousarray(arr[::-1])[::-1]

    entries = list(params.items())
    gapped = ParamSet(entries[:2] + [("gap", np.zeros(1, params.dtype))]
                      + entries[2:])
    root = ParamSet(entries[:3] + [("gap", np.zeros(1, params.dtype))]
                    + entries[3:] + [("tail", np.zeros(1, params.dtype))])
    return {
        "packed": params.copy(),
        "strided": ParamSet([(n, strided(i, a)) for i, (n, a) in enumerate(entries)]),
        "subset_gap": gapped.subset(params.names),
        "subset_of_subset": root.subset(params.names + ["gap"]).subset(params.names),
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


def finite_diff_grad(model, params, batch, h):
    """Central-difference gradient, element by element.

    Deliberately brute force: this is the oracle the analytic gradients
    are judged against, so it shares no code with them.
    """
    import numpy as np
    from zobench.params import ParamSet

    if h <= 0:
        raise ValueError("h must be positive")
    out = []
    for name, p in params.items():
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            lp = model.loss(params, batch)
            flat_p[i] = orig - h
            lm = model.loss(params, batch)
            flat_p[i] = orig
            flat_g[i] = (lp - lm) / (2.0 * h)
        out.append((name, g))
    return ParamSet(out)


def reference_fo_step(grads, params, config, state):
    """An SGD or Adam update by its definition, tensor by tensor, with
    Adam's moments in per-name dicts: the loop ``fo.fo_step`` ran before
    it walked the packed buffers, and whose bytes it must give."""
    import numpy as np

    if config.optimizer == "sgd":
        for (name, p), (_, g) in zip(params.items(), grads.items()):
            p -= config.lr * g
        return
    t = state.get("t", 0) + 1
    state["t"] = t
    m = state.setdefault("m", {})
    v = state.setdefault("v", {})
    b1, b2 = config.beta1, config.beta2
    for (name, p), (_, g) in zip(params.items(), grads.items()):
        mi = m.get(name)
        vi = v.get(name)
        if mi is None:
            mi = np.zeros_like(p)
            vi = np.zeros_like(p)
        mi = b1 * mi + (1 - b1) * g
        vi = b2 * vi + (1 - b2) * g * g
        m[name], v[name] = mi, vi
        mhat = mi / (1 - b1 ** t)
        vhat = vi / (1 - b2 ** t)
        p -= config.lr * mhat / (np.sqrt(vhat) + config.eps_adam)


def reference_loss_and_grad(model, params, batch):
    """``(loss, grads)`` of a classifier's cross-entropy on a labelled
    batch, or of its predictive entropy on an unlabelled one, with each
    gradient built as its own array by the formulas below and packed by
    ``ParamSet(entries)``: the backward the cores ran before they wrote
    into one zeroed gradient set, whose bytes and dtype they must give.
    The forward and the d(objective)/d(scores) kernels are the live ones.
    """
    import numpy as np
    from zobench import models
    from zobench.params import ParamSet

    core, x = model.core, batch.inputs
    if batch.labels is not None:
        scores, cache = core.forward(params, x)
        loss, dscores = models._ce_and_dscores(scores, batch.labels)
    else:
        scores, cache = core.entropy_forward(params, x)
        loss, dscores = models._entropy_and_dscores(scores)
    if core.name == "logistic":
        return loss, ParamSet([
            ("weight", x.T @ dscores),
            ("bias", dscores.sum(axis=0)),
        ])
    if core.name == "mlp":
        h = cache
        dh = dscores @ params["head.weight"].T
        dpre = dh * (1.0 - h * h)
        return loss, ParamSet([
            ("layer1.weight", x.T @ dpre),
            ("layer1.bias", dpre.sum(axis=0)),
            ("head.weight", h.T @ dscores),
            ("head.bias", dscores.sum(axis=0)),
        ])
    if batch.labels is not None:  # seq, pooled scores
        a, xhat, std, y, pooled = cache
        dpooled = dscores @ params["head.weight"].T
        dy = np.broadcast_to(dpooled[:, None, :] / core.frames,
                             y.shape).copy()
        head = [
            ("head.weight", pooled.T @ dscores),
            ("head.bias", dscores.sum(axis=0)),
        ]
    else:  # seq, frame scores
        a, xhat, std, y = cache
        ds = dscores.reshape(y.shape[0], core.frames, -1)
        dy = ds @ params["head.weight"].T
        head = [
            ("head.weight", np.einsum("bfh,bfc->hc", y, ds)),
            ("head.bias", ds.sum(axis=(0, 1))),
        ]
    dxhat = dy * params["norm.gain"]
    mean_dx = models._mean(dxhat, -1, True)
    mean_dxx = models._mean(dxhat * xhat, -1, True)
    da = (dxhat - mean_dx - xhat * mean_dxx) / std
    dpre = da * (1.0 - a * a)
    return loss, ParamSet([
        ("feat.weight", np.einsum("bfd,bfh->dh", x, dpre)),
        ("feat.bias", dpre.sum(axis=(0, 1))),
        ("norm.gain", (dy * xhat).sum(axis=(0, 1))),
        ("norm.bias", dy.sum(axis=(0, 1))),
    ] + head)
