"""Versioned text serialization for network parameters.

Goes through the `synthdata` key=value codec, whose repr() shortest
round-trip decimals make write/read value-exact.  Trained generator handles
embed these blocks in their own format.
"""

import numpy as np

from .nncore import NetParams, NetSpec
from .synthdata import kv_lines, parse_kv

MODEL_HEADER = "cgankd-model v1"


def _parse_floats(text: str) -> np.ndarray:
    if not text:
        return np.empty(0)
    return np.array([float(v) for v in text.split(",")])


def netparams_lines(params: NetParams) -> list:
    spec = params.spec
    pairs = [("input_dim", spec.input_dim), ("hidden", spec.hidden_widths),
             ("output_kind", spec.output_kind), ("n_outputs", spec.n_outputs)]
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        pairs += [(f"W{l}", w), (f"b{l}", b)]
    return [MODEL_HEADER] + kv_lines(pairs)


def netparams_from_lines(lines: list) -> NetParams:
    if not lines or lines[0] != MODEL_HEADER:
        raise ValueError("malformed model header")
    kv = parse_kv(lines[1:])
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
