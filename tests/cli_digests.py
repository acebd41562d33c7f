"""The golden CLI chain, outside the tier-1 suite: sha256 of every output.

The chain runs in a temporary directory (or in `--out DIR`, kept):
`synth` (3 classes, 4 per class, seed 3), `persist` of every cloud without
and with temporal links, `density` of the first diagram, `distmat` for
hilbert, w1 and w2 at dims 0 and 1 with manifests, `knn` with a manifest,
`mean`, `pga` with 3 components, and `geodesic` in the sphere and
Alexandrov spaces. Every command's stdout goes to `stdout.txt`. The script
prints `sha256  relative/path` for each file, sorted by path, so two
checkouts compare with `diff`:

    PYTHONPATH=src python3 tests/cli_digests.py > digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from persphere.cli import main as cli


def _run(stdout, *argv):
    with contextlib.redirect_stdout(stdout):
        code = cli([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"persphere {' '.join(map(str, argv))} exited {code}")


def chain(stdout) -> None:
    """Run the chain in the working directory, printing to `stdout`."""
    _run(stdout, "synth", "--per-class", 4, "--seed", 3, "--output-dir", "syn")
    names = sorted(p.stem for p in Path("syn").glob("cloud_*.csv"))
    for out, links in (("pd", ()), ("pd_links", ("--temporal-links",))):
        os.makedirs(out, exist_ok=True)
        for name in names:
            _run(stdout, "persist", "--input", f"syn/{name}.csv", *links,
                 "--output", f"{out}/{name}.csv")
    dgms = [f"pd/{name}.csv" for name in names]
    _run(stdout, "density", "--input", dgms[0], "--output", "density.csv")
    for metric in ("hilbert", "w1", "w2"):
        for dim in (0, 1):
            stem = f"dm_{metric}_{dim}"
            _run(stdout, "distmat", "--inputs", *dgms, "--metric", metric, "--dim", dim,
                 "--output", f"{stem}.csv", "--manifest", f"{stem}.json")
    with open("train.csv", "w") as fh:
        fh.write("path,label\n")
        fh.writelines(f"{d},{n.rsplit('_', 1)[1]}\n" for d, n in zip(dgms[1:], names[1:]))
    _run(stdout, "knn", "--train", "train.csv", "--test", dgms[0], "--k", 3,
         "--output", "knn.csv", "--manifest", "knn.json")
    _run(stdout, "mean", "--inputs", *dgms, "--output", "mean.csv")
    _run(stdout, "pga", "--inputs", *dgms, "--components", 3, "--output-dir", "pga")
    for space in ("sphere", "alexandrov"):
        _run(stdout, "geodesic", "--from", dgms[0], "--to", dgms[-1], "--steps", 3,
             "--space", space, "--output-dir", space)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="DIR", help="run in DIR and keep the outputs")
    args = parser.parse_args(argv)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.out or tmp).resolve()
        root.mkdir(parents=True, exist_ok=True)
        os.chdir(root)
        try:
            stdout = io.StringIO()
            chain(stdout)
            Path("stdout.txt").write_text(stdout.getvalue())
        finally:
            os.chdir(cwd)
        for path in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256((root / path).read_bytes()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
