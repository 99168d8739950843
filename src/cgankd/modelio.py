"""Versioned text serialization for network parameters.

Goes through the `synthdata` key=value codec, whose repr() shortest
round-trip decimals keep every weight value-exact in the text.  The files
are written for inspection; `cgankd run <manifest>` rewrites them bit for
bit, so nothing reads them back.  Trained generator files embed these
blocks.
"""

from .nncore import NetParams
from .synthdata import kv_lines

MODEL_HEADER = "cgankd-model v1"


def netparams_lines(params: NetParams) -> list:
    spec = params.spec
    pairs = [("input_dim", spec.input_dim), ("hidden", spec.hidden_widths),
             ("output_kind", spec.output_kind), ("n_outputs", spec.n_outputs)]
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        pairs += [(f"W{l}", w), (f"b{l}", b)]
    return [MODEL_HEADER] + kv_lines(pairs)


def write_netparams(params: NetParams, path) -> None:
    with open(path, "w") as f:
        f.write("\n".join(netparams_lines(params)) + "\n")
