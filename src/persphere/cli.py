"""Command-line front end wiring the pipeline end to end via files.

Exit codes: 0 success, 2 missing or unusable path, 3 unparseable file,
4 bad parameter.
Errors print a single line `error: <kind>: <detail>` on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, density, embedding, persistence, sphere
from .errors import ParseError, read_csv, write_csv, write_json
from .wasserstein import alexandrov_path

EXIT_OK = 0
EXIT_NOT_FOUND = 2
EXIT_PARSE = 3
EXIT_PARAMETER = 4

DEFAULT_M = 3
DEFAULT_TAU = 10
DEFAULT_SIGMA = 0.05
DEFAULT_GRID = 64


class _Parser(argparse.ArgumentParser):
    # A usage error exits 4 through `main`, not argparse's 2 (not found).
    def error(self, message):
        raise ValueError(message)


def _global_scale(diagrams) -> float:
    scale = max(d.max_finite() for d in diagrams)
    if scale <= 0:
        raise ValueError(
            "no finite coordinates found; pass --scale explicitly"
        )
    return scale


def _read_inputs(args, paths, as_density=True):
    """
    The --dim diagram of each path, normalized by one scale: --scale, or
    else the largest finite coordinate across all of them. Returns the
    scale and, per path, its KDE grid (`as_density`) or normalized diagram.
    """
    diagrams = [persistence.read_diagram(p, args.dim) for p in paths]
    scale = args.scale if args.scale is not None else _global_scale(diagrams)
    normalized = [persistence.normalize_diagram(d, scale) for d in diagrams]
    if not as_density:
        return scale, normalized
    pdfs = []
    for path, pd in zip(paths, normalized):
        try:
            pdfs.append(density.kde(pd, args.sigma, args.grid))
        except density.EmptyDiagramError as exc:
            raise density.EmptyDiagramError(
                f"{path}: no density: {exc}; a larger --scale keeps capped "
                "essential bars off the diagonal"
            ) from exc
    return scale, pdfs


def _settings(args, scale) -> dict:
    """The input settings a manifest records: those of `_add_input_args`."""
    return {"dim": args.dim, "sigma": args.sigma, "grid_size": args.grid, "scale": scale}


def _add_input_args(sub):
    sub.add_argument("--dim", type=int, default=1, choices=(0, 1))
    sub.add_argument("--sigma", type=float, default=DEFAULT_SIGMA,
                     help=f"kernel bandwidth (default {DEFAULT_SIGMA})")
    sub.add_argument("--grid", type=int, default=DEFAULT_GRID,
                     help=f"grid resolution K (default {DEFAULT_GRID})")
    sub.add_argument("--scale", type=float, default=None,
                     help="normalization scale (default: max finite death "
                          "across the inputs)")


def _name(path) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _row_names(flag, paths) -> list[str]:
    """Output row name of each path: its basename, which must be unique."""
    names: dict[str, str] = {}  # row name -> its input
    for path in paths:
        name = _name(path)
        if name in names:
            raise ValueError(f"{flag} {names[name]} and {path} share the row name {name!r}")
        names[name] = path
    return list(names)


def _cmd_embed(args) -> int:
    series = embedding.read_series(args.input, channel=args.channel)
    cloud = embedding.delay_embed(series, args.m, args.tau)
    embedding.write_cloud(args.output, cloud)
    print(f"embedded {len(series)} samples -> {cloud.shape[0]} points in R^{args.m}")
    return EXIT_OK


def _cmd_persist(args) -> int:
    cloud = embedding.read_cloud(args.input)
    pd0, pd1 = persistence.diagram_of_cloud(
        cloud, max_scale=args.max_scale, temporal_links=args.temporal_links
    )
    persistence.write_diagrams(args.output, [pd0, pd1])
    print(
        f"H0: {pd0.pairs.shape[0]} pairs + {pd0.essential.size} essential; "
        f"H1: {pd1.pairs.shape[0]} pairs + {pd1.essential.size} essential"
    )
    return EXIT_OK


def _cmd_density(args) -> int:
    scale, (pdf,) = _read_inputs(args, [args.input])
    density.write_grid(args.output, pdf.grid)
    print(f"grid {args.grid}x{args.grid} sigma={args.sigma} scale={scale:.17g}")
    return EXIT_OK


def _cmd_dist(args) -> int:
    _, (a, b) = _read_inputs(args, [args.a, args.b], args.metric == "hilbert")
    print(f"{analysis.cross_distances([a], [b], args.metric)[0, 0]:.17g}")
    return EXIT_OK


def _group_inputs(paths, groups_file):
    """Item names with their per-channel diagram paths."""
    if groups_file is None:
        return [(name, [p]) for name, p in zip(_row_names("--inputs", paths), paths)]
    grouped: dict[str, list[str]] = {}
    for name, path in read_csv(groups_file, "name,path", text=2).text:
        grouped.setdefault(name, []).append(path)
    counts = {len(v) for v in grouped.values()}
    if len(counts) > 1:
        raise analysis.ConfigurationError(
            f"groups have mixed channel counts: {sorted(counts)}"
        )
    return list(grouped.items())


def _cmd_distmat(args) -> int:
    items = _group_inputs(args.inputs, args.groups)
    if len(items) < 2:
        raise ValueError("need at least 2 items")
    labels = [name for name, _ in items]
    n, n_channels = len(items), len(items[0][1])
    scale, loaded = _read_inputs(
        args, [paths[ch] for ch in range(n_channels) for _, paths in items],
        args.metric == "hilbert",
    )
    # Channelwise matrices aggregated by mean distance across channels. One
    # list on both sides keeps each pair computed once and mirrored.
    chunks = [loaded[ch * n:(ch + 1) * n] for ch in range(n_channels)]
    per_channel = [analysis.cross_distances(c, c, args.metric) for c in chunks]
    values = sum(per_channel[1:], per_channel[0]) / n_channels
    matrix = analysis.DistanceMatrix(labels=labels, values=values, metric=args.metric)
    analysis.write_matrix(args.output, matrix)
    if args.manifest:
        write_json(args.manifest, {**_settings(args, scale), "metric": args.metric,
                                   "channels": n_channels, "labels": labels})
    print(f"{len(labels)}x{len(labels)} {args.metric} matrix -> {args.output}")
    return EXIT_OK


def _cmd_geodesic(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be >= 2, got {args.steps}")
    paths = [args.from_path, args.to_path]
    fractions = [i / (args.steps - 1) for i in range(args.steps)]
    if args.space == "sphere":
        _, pdfs = _read_inputs(args, paths)
        psi_a, psi_b = (density.sqrt_transform(p) for p in pdfs)
        write = density.write_grid
        steps = (density.to_pdf(sphere.geodesic(psi_a, psi_b, s)).grid for s in fractions)
    else:
        pa, pb = (persistence.read_diagram(p, args.dim) for p in paths)
        write = persistence.write_diagrams
        steps = ([d] for d in alexandrov_path(pa, pb, fractions))
    os.makedirs(args.output_dir, exist_ok=True)
    for i, step in enumerate(steps):
        write(os.path.join(args.output_dir, f"step_{i:03d}.csv"), step)
    print(f"{args.steps} steps ({args.space}) -> {args.output_dir}")
    return EXIT_OK


def _cmd_mean(args) -> int:
    _, pdfs = _read_inputs(args, args.inputs)
    mean = sphere.extrinsic_mean([density.sqrt_transform(p) for p in pdfs])
    density.write_grid(args.output, density.to_pdf(mean).grid)
    print(f"mean of {len(pdfs)} densities -> {args.output}")
    return EXIT_OK


def _cmd_pga(args) -> int:
    names = _row_names("--inputs", args.inputs)
    scale, pdfs = _read_inputs(args, args.inputs)
    psis = [density.sqrt_transform(p) for p in pdfs]
    model, coords = sphere.pga_features(psis, args.components)
    # coords.csv first: a name it rejects leaves no partial model behind.
    os.makedirs(args.output_dir, exist_ok=True)
    write_csv(os.path.join(args.output_dir, "coords.csv"), coords,
              ["name", *(f"c{i}" for i in range(args.components))],
              [[name] for name in names])
    sphere.save_pga_model(model, args.output_dir, metadata=_settings(args, scale))
    print(
        f"pga: {args.components} components, variances "
        + " ".join(f"{v:.3e}" for v in model.variances)
    )
    return EXIT_OK


def _cmd_knn(args) -> int:
    names = _row_names("--test", args.test)
    train = read_csv(args.train, "path,label", text=2).text
    train_paths = [p for p, _ in train]
    train_labels = [lab for _, lab in train]
    scale, items = _read_inputs(args, train_paths + args.test, args.metric == "hilbert")
    n_train = len(train_paths)
    dists = analysis.cross_distances(items[n_train:], items[:n_train], args.metric)
    predictions = analysis.knn_classify(dists, train_labels, args.k)
    write_csv(args.output, np.empty((len(predictions), 0)), ["name", "label"],
              [[name, label] for name, label in zip(names, predictions)])
    if args.manifest:
        write_json(args.manifest, {**_settings(args, scale), "metric": args.metric,
                                   "k": args.k, "train_size": len(train_labels)})
    print(f"{len(predictions)} predictions -> {args.output}")
    return EXIT_OK


def _cmd_regress(args) -> int:
    features, names = _read_feature_csv(args.features)
    scores = _read_score_csv(args.scores, names)
    predictions, r = analysis.loo_regression(features, scores)
    write_csv(args.output, np.column_stack([scores, predictions]),
              ["name", "score", "predicted"], [[name] for name in names])
    print(f"pearson_r {r:.17g}")
    return EXIT_OK


def _unique_names(path, table):
    seen = set()
    for lineno, (name,) in zip(table.linenos, table.text):
        if name in seen:
            raise ParseError(f"{path}:{lineno}: duplicate name {name!r}")
        seen.add(name)
    return [name for name, in table.text]


def _read_feature_csv(path):
    table = read_csv(path, "name,...", text=1)
    return table.values, _unique_names(path, table)


def _read_score_csv(path, names):
    table = read_csv(path, "name,score", text=1)
    scores = dict(zip(_unique_names(path, table), table.values[:, 0]))
    missing = [n for n in names if n not in scores]
    if missing:
        raise ParseError(f"{path}: missing scores for {missing}")
    return np.asarray([scores[n] for n in names])


def _cmd_bench(args) -> int:
    report = analysis.benchmark(
        n_points=args.n,
        grid_size=args.grid,
        sigma=args.sigma,
        trials=args.trials,
        seed=args.seed,
    )
    analysis.write_bench_report(args.output, report)
    print(
        f"hilbert {report.hilbert_mean_s:.3e}s/pair, w1 {report.w1_mean_s:.3e}s/pair "
        f"({report.w1_mean_s / report.hilbert_mean_s:.0f}x) over {report.pairs} pairs"
    )
    return EXIT_OK


def _cmd_heatmap(args) -> int:
    grid = density.read_grid(args.input)
    density.write_pgm(args.output, grid)
    print(f"{grid.shape[0]}x{grid.shape[1]} heatmap -> {args.output}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    clouds, labels = analysis.synthetic_clouds(
        per_class=args.per_class,
        n_classes=args.classes,
        seed=args.seed,
        n_min=args.n_min,
        n_max=args.n_max,
    )
    os.makedirs(args.output_dir, exist_ok=True)
    rows = []
    for idx, (cloud, label) in enumerate(zip(clouds, labels)):
        name = f"cloud_{idx:03d}_{label}"
        embedding.write_cloud(os.path.join(args.output_dir, name + ".csv"), cloud)
        rows.append([name, label])
    write_csv(os.path.join(args.output_dir, "labels.csv"), np.empty((len(rows), 0)),
              ["name", "label"], rows)
    write_json(os.path.join(args.output_dir, "manifest.json"), {
        "classes": args.classes,
        "per_class": args.per_class,
        "seed": args.seed,
        "n_min": args.n_min,
        "n_max": args.n_max,
    })
    print(f"{len(clouds)} clouds -> {args.output_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="persphere",
                     description="Topological summaries of point clouds and "
                                 "time series: diagrams, densities, sphere "
                                 "geometry, and matching baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="delay-embed a scalar time series")
    p.add_argument("--input", required=True)
    p.add_argument("--channel", type=int, default=None,
                   help="column of a multi-column CSV (0-based)")
    p.add_argument("--m", type=int, default=DEFAULT_M,
                   help=f"embedding dimension (default {DEFAULT_M}, arbitrary)")
    p.add_argument("--tau", type=int, default=DEFAULT_TAU,
                   help=f"embedding delay (default {DEFAULT_TAU}, arbitrary)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("persist", help="H0/H1 diagrams of a point cloud")
    p.add_argument("--input", required=True)
    p.add_argument("--max-scale", type=float, default=None,
                   help="filtration cutoff (default: the enclosing radius, "
                        "which gives the diagrams of any larger cutoff)")
    p.add_argument("--temporal-links", action="store_true",
                   help="insert zero-birth edges between consecutive points")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_persist)

    p = sub.add_parser("density", help="KDE grid of a diagram")
    p.add_argument("--input", required=True)
    _add_input_args(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("dist", help="distance between two diagram files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--metric", choices=analysis.METRICS, default="hilbert")
    _add_input_args(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("distmat", help="pairwise distance matrix")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--inputs", nargs="*", default=[],
                        help="diagram files (one item each)")
    source.add_argument("--groups", default=None,
                        help="CSV 'name,path' grouping channel files into items; "
                             "item distance is the mean across channels")
    p.add_argument("--metric", choices=analysis.METRICS, default="hilbert")
    _add_input_args(p)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest", default=None, help="JSON provenance output")
    p.set_defaults(func=_cmd_distmat)

    p = sub.add_parser("geodesic", help="sample the path between two diagrams")
    p.add_argument("--from", dest="from_path", required=True)
    p.add_argument("--to", dest="to_path", required=True)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--space", choices=("sphere", "alexandrov"), default="sphere",
                   help="sphere: density grids; alexandrov: matched-point diagrams")
    _add_input_args(p)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("mean", help="extrinsic mean density of diagrams")
    p.add_argument("--inputs", nargs="+", required=True)
    _add_input_args(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_mean)

    p = sub.add_parser("pga", help="principal geodesic analysis of diagrams")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--components", "-d", type=int, default=2)
    _add_input_args(p)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_pga)

    p = sub.add_parser("knn", help="k-NN classification of diagram files")
    p.add_argument("--train", required=True, help="CSV 'path,label'")
    p.add_argument("--test", nargs="+", required=True)
    p.add_argument("--metric", choices=analysis.METRICS, default="hilbert")
    p.add_argument("--k", type=int, default=1)
    _add_input_args(p)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=_cmd_knn)

    p = sub.add_parser("regress", help="leave-one-out linear regression on features")
    p.add_argument("--features", required=True, help="CSV 'name,c0,...'")
    p.add_argument("--scores", required=True, help="CSV 'name,score'")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("bench", help="per-pair timing of the two metric families")
    p.add_argument("--n", type=int, default=30, help="points per diagram")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("heatmap", help="grid CSV to 8-bit PGM (max-scaled)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("synth", help="seeded synthetic 3-class cloud benchmark")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-class", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=20)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: not-found: {name}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except OSError as exc:
        name = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: io: {name}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: parameter: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
