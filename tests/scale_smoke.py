"""Persistence at scale, outside the tier-1 suite: one noisy sine, one call.

The series is sin(2πt/25) + 0.1·N(0, 1) with seed 0, delay-embedded with
m=3 and tau=10 to n points. `diagram_of_cloud` runs on it with or without
temporal links, at the default cut or, with `--cut FRACTION`, at that
fraction of the enclosing radius of the cloud's distances without links.
The script prints the call's time, the process's peak RSS and the sha256
of the diagram CSV, and exits 1 when the digest differs from the expected
one:

    PYTHONPATH=src python3 tests/scale_smoke.py 800 --expect SHA256
    PYTHONPATH=src python3 tests/scale_smoke.py 300 --links --expect SHA256
    PYTHONPATH=src python3 tests/scale_smoke.py 500 --links --cut 0.25 --expect SHA256
    PYTHONPATH=src python3 tests/scale_smoke.py 800 --links --cut 0.25 --expect SHA256
"""

import argparse
import hashlib
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from persphere.embedding import delay_embed
from persphere.persistence import diagram_of_cloud, write_diagrams


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="points in the embedded cloud")
    parser.add_argument("--links", action="store_true", help="use temporal links")
    parser.add_argument("--cut", type=float, metavar="FRACTION",
                        help="cut at this fraction of the unlinked enclosing radius")
    parser.add_argument("--expect", help="sha256 the diagram CSV must have")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    t = np.arange(args.n + 20)
    series = np.sin(2 * np.pi * t / 25) + 0.1 * rng.normal(size=t.size)
    cloud = delay_embed(series, m=3, tau=10)
    max_scale = None
    if args.cut is not None:
        diff = cloud[:, None, :] - cloud[None, :, :]
        max_scale = args.cut * float(np.sqrt((diff * diff).sum(axis=-1)).max(axis=1).min())
    start = time.perf_counter()
    diagrams = diagram_of_cloud(cloud, max_scale, temporal_links=args.links)
    seconds = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pd.csv"
        write_diagrams(path, diagrams)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"n={args.n} links={args.links} cut={args.cut}: {seconds:.2f} s, peak RSS {rss_mb:.0f} MB, "
          f"sha256 {digest}")
    if args.expect is not None and digest != args.expect:
        print(f"expected sha256 {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
