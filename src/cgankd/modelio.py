"""Versioned text serialization for network parameters.

Shares the dataset files' float convention: repr() shortest round-trip
decimals, so write/read is value-exact.  Trained generator handles embed
these blocks in their own format.
"""

import numpy as np

from .nncore import NetParams, NetSpec

MODEL_HEADER = "cgankd-model v1"


def _floats(arr) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(arr).ravel())


def _parse_floats(text: str) -> np.ndarray:
    if not text:
        return np.empty(0)
    return np.array([float(v) for v in text.split(",")])


def netparams_lines(params: NetParams) -> list:
    spec = params.spec
    lines = [
        MODEL_HEADER,
        f"input_dim={spec.input_dim}",
        "hidden=" + ",".join(str(w) for w in spec.hidden_widths),
        f"output_kind={spec.output_kind}",
        f"n_outputs={spec.n_outputs}",
    ]
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        lines.append(f"W{l}=" + _floats(w))
        lines.append(f"b{l}=" + _floats(b))
    return lines


def netparams_from_lines(lines: list) -> NetParams:
    if not lines or lines[0] != MODEL_HEADER:
        raise ValueError("malformed model header")
    kv = {}
    for ln in lines[1:]:
        key, _, value = ln.partition("=")
        kv[key] = value
    spec = NetSpec(int(kv["input_dim"]),
                   tuple(int(w) for w in kv["hidden"].split(",")),
                   kv["output_kind"], int(kv["n_outputs"]))
    dims = spec.layer_dims
    weights, biases = [], []
    for l in range(len(dims) - 1):
        weights.append(_parse_floats(kv[f"W{l}"]).reshape(dims[l + 1], dims[l]))
        biases.append(_parse_floats(kv[f"b{l}"]))
    return NetParams(spec, weights, biases)


def write_netparams(params: NetParams, path) -> None:
    with open(path, "w") as f:
        f.write("\n".join(netparams_lines(params)) + "\n")
