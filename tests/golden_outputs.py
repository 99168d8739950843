"""Golden output digests: the SHA-256 of every file that a fixed list of
cgankd commands writes, pinned in tests/golden_outputs.txt and checked by
tests/test_golden_outputs.py.

    PYTHONPATH=src python tests/golden_outputs.py

reruns the list in this process and rewrites the file.  A change that
alters outputs on purpose regenerates it and names the changed files.

Manifests are hashed without their `timestamp=` and `config_path=` lines,
which say when and from where a command ran.  The bytes also depend on
numpy's build and its BLAS, so the file records numpy's version and the
BLAS name and version, and the test fails on a mismatch, naming both.
"""

import contextlib
import hashlib
import io
import pathlib
import tempfile

import numpy as np

from cgankd import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_outputs.txt"

# One command of each kind.  The ablation trains a cGAN, the only
# generator that samples through nncore.forward_batch.
COMMANDS = (
    ("run", "configs/bench_cls.cfg", "--seed", "5"),
    ("run", "configs/bench_reg.cfg", "--seed", "5"),
    ("sweep", "configs/bench_reg.cfg", "--param", "rho",
     "--values", "0,0.3,0.5,0.7,0.9,1", "--seeds", "0"),
    ("ablation", "bench/configs/reg_cgan.cfg", "--seeds", "0"),
    ("verify-bound", "configs/bound_standard.cfg"),
)
UNPINNED = (b"timestamp=", b"config_path=")


def machine() -> list:
    """`numpy=` and `blas=` lines naming what the digests were made with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"numpy={np.__version__}",
            f"blas={blas['name']} {blas['version']}"]


def _digest(path: pathlib.Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(UNPINNED))
    return hashlib.sha256(data).hexdigest()


def digests() -> list:
    """One `<sha256>  <command> :: <file>` line per file each command of
    COMMANDS writes, running each through `cli.main` in this process."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, config, *flags) in enumerate(COMMANDS):
            out = pathlib.Path(tmp) / str(i)
            out.mkdir()
            argv = [name, str(ROOT / config), *flags, "--out-dir", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            label = " ".join((name, config, *flags))
            lines += [f"{_digest(p)}  {label} :: {p.name}"
                      for p in sorted(out.iterdir())]
    return lines


def main():
    GOLDEN.write_text("\n".join(machine() + digests()) + "\n")
    print(GOLDEN)


if __name__ == "__main__":
    main()
