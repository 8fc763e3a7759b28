"""Command-line front end.

Subcommands: equiv, w1, bound, probe, dynamics, deq, invert, lemmas.
Machine-readable JSON goes to stdout (or --out); a one-line human summary
goes to stderr. Exit codes: 0 all checks pass, 1 invariant violation,
2 usage or configuration error. Every report embeds the seed, a hash of
the resolved configuration, and the library version, which is enough to
replay any reported instance.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, bounds, errors, probes
from .dynamics import TransformerLayerSpec, deq_solve, invert_residual, run_particles
from .equiv import run_equivalence
from .errors import ConfigError
from .kernels import (
    AttentionConfig,
    FfnConfig,
    Head,
    IdentityLookup,
    LinearLookup,
    MultiHeadConfig,
)
from .measures import DomainBox, PointCloud, load_cloud_any, load_measure_any
from .potentials import DotProduct, Gaussian, ScaledDotProduct
from .probes import ProbeConfig
from .streams import check_seed
from .transport import w1

log = logging.getLogger("softmatch")

# every exception type of errors.py reports bad input or a bad request
_INPUT_ERRORS = tuple(
    e for e in vars(errors).values() if isinstance(e, type) and issubclass(e, Exception)
)


# ---------------------------------------------------------------------------
# Strict config parsing (unknown fields rejected)
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing fields {sorted(missing)} in {where}")


def _matrix(obj, where: str) -> np.ndarray:
    try:
        m = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where} is not numeric: {e}") from None
    if m.ndim != 2:
        raise ConfigError(f"{where} must be a matrix")
    return m


def build_potential(spec: dict, default_dim: int | None = None):
    _check_keys(spec, {"kind", "scale", "dim", "W_Q", "W_K"}, {"kind"}, "potential")
    kind = spec["kind"]
    if kind in ("gaussian", "dot_product"):
        dim = spec.get("dim", default_dim)
        if dim is None:
            raise ConfigError(f"{kind} potential needs 'dim' (or a box/-d flag)")
        if kind == "gaussian":
            return Gaussian(int(dim))
        return DotProduct(scale=float(spec.get("scale", 1.0)), dim=int(dim))
    if kind == "scaled_dot_product":
        if "W_Q" not in spec or "W_K" not in spec:
            raise ConfigError("scaled_dot_product needs W_Q and W_K")
        return ScaledDotProduct(
            w_q=_matrix(spec["W_Q"], "W_Q"),
            w_k=_matrix(spec["W_K"], "W_K"),
            scale=float(spec.get("scale", 1.0)),
        )
    raise ConfigError(f"unknown potential kind {kind!r}")


def build_lookup(spec: dict | None, dim: int):
    if spec is None:
        return IdentityLookup(dim)
    _check_keys(spec, {"kind", "W_V"}, {"kind"}, "lookup")
    kind = spec["kind"]
    if kind == "identity":
        return IdentityLookup(dim)
    if kind == "linear":
        if "W_V" not in spec:
            raise ConfigError("linear lookup needs W_V")
        return LinearLookup(_matrix(spec["W_V"], "W_V"))
    raise ConfigError(f"unknown lookup kind {kind!r}")


def build_attention(config: dict, default_dim: int | None = None) -> AttentionConfig:
    _check_keys(
        config, {"potential", "lookup", "heads", "ffn", "box"}, set(), "config"
    )
    if "potential" not in config:
        raise ConfigError("config needs a 'potential'")
    pot = build_potential(config["potential"], default_dim)
    return AttentionConfig(potential=pot, lookup=build_lookup(config.get("lookup"), pot.dim))


def build_multi_head(config: dict, default_dim: int | None = None) -> MultiHeadConfig:
    heads = []
    for i, spec in enumerate(config["heads"]):
        _check_keys(spec, {"potential", "lookup", "W_O"}, {"potential", "W_O"}, f"heads[{i}]")
        pot = build_potential(spec["potential"], default_dim)
        cfg = AttentionConfig(pot, build_lookup(spec.get("lookup"), pot.dim))
        heads.append(Head(attention=cfg, w_o=_matrix(spec["W_O"], f"heads[{i}].W_O")))
    return MultiHeadConfig(heads)


def build_layer(config: dict, default_dim: int | None = None):
    """Single attention config, or a multi-head (+ optional FFN) layer."""
    if not config.get("heads"):
        if "ffn" in config:
            raise ConfigError("an 'ffn' block follows multi-head attention and needs 'heads'")
        return build_attention(config, default_dim)
    _check_keys(config, {"potential", "lookup", "heads", "ffn", "box"}, set(), "config")
    mh = build_multi_head(config, default_dim)
    return TransformerLayerSpec(mh, build_ffn(config["ffn"])) if config.get("ffn") else mh


def build_ffn(spec: dict) -> FfnConfig:
    _check_keys(spec, {"layers", "activation"}, {"layers"}, "ffn")
    layers = []
    for i, layer in enumerate(spec["layers"]):
        _check_keys(layer, {"W", "b"}, {"W"}, f"ffn.layers[{i}]")
        w = _matrix(layer["W"], f"ffn.layers[{i}].W")
        b = np.asarray(layer.get("b", np.zeros(w.shape[0])), dtype=np.float64)
        layers.append((w, b))
    return FfnConfig(layers, spec.get("activation", "identity"))


def build_box(spec: dict | None, d: int, radius: float | None) -> DomainBox:
    if spec is not None:
        _check_keys(spec, {"lower", "upper", "radius"}, set(), "box")
        if "radius" in spec:
            return DomainBox.cube(float(spec["radius"]), int(d))
        if "lower" not in spec or "upper" not in spec:
            raise ConfigError("box needs lower and upper (or radius)")
        return DomainBox(spec["lower"], spec["upper"])
    if radius is not None:
        return DomainBox.cube(float(radius), int(d))
    return DomainBox.unbounded(d)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


class _Unwritable(Exception):
    """An output path that cannot be written."""


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise _Unwritable(f"cannot write {path}: {e.strerror}") from None


def _log_level() -> int:
    """The level SOFTMATCH_LOG_LEVEL names, in any case; WARNING if unset."""
    name = os.environ.get("SOFTMATCH_LOG_LEVEL", "WARNING")
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise ConfigError(
            f"SOFTMATCH_LOG_LEVEL={name!r} is not a level name "
            "(DEBUG, INFO, WARNING, ERROR or CRITICAL)"
        )
    return level


def _config_hash(obj) -> str:
    # imported here: `hashlib` maps OpenSSL's `_hashlib` (about 3.5 MB
    # resident), which `import softmatch.cli` then leaves out
    import hashlib

    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Subcommand implementations; each returns (report_dict, ok)
# ---------------------------------------------------------------------------

def cmd_equiv(args, config):
    report = run_equivalence(
        trials=args.trials,
        d_choices=args.dims,
        n_max=args.n_max,
        seed=args.seed,
        sabotage=args.sabotage,
    )
    return report, bool(report["pass"])


def cmd_w1(args, config):
    mu = load_measure_any(args.source)
    nu = load_measure_any(args.target)
    res = w1(mu, nu)
    return res.to_dict(include_plan=args.plan), True


def _bound_rows() -> dict:
    """The theorem table's rows by their `bound --theorem` name."""
    return {row.name: row for row in bounds._TABLE.values()}


def _probe_rows() -> dict:
    """(row, component kind) by `probe --theorem` name."""
    rows = bounds._TABLE.values()
    return {name: (row, kind) for row in rows for name, kind in row.probe_names}


def _contraction_attention(config: dict, row, d: int) -> AttentionConfig:
    """The attention a contraction theorem is evaluated for: the config's,
    with the Gaussian potential when it names none. Multi-head and FFN
    layers have no theorem yet and are refused. The unbounded family
    holds for the Gaussian kind of dimension d only and refuses any other."""
    layered = sorted({"heads", "ffn"} & set(config))
    if layered:
        raise ConfigError(
            f"theorem {row.name} holds for a single attention map; multi-head and FFN "
            f"layers (config fields {layered}) have no bound yet, see ROADMAP item 9"
        )
    if not config.get("potential"):
        config = {**config, "potential": {"kind": "gaussian"}}
    cfg = build_attention(config, default_dim=d)
    kind = cfg.potential.kind
    if "box" not in row.family and (kind, cfg.dim) != ("gaussian", d):
        raise ConfigError(
            f"theorem {row.name} holds for the Gaussian potential of dim {d} only, "
            f"not {kind!r} of dim {cfg.dim}"
        )
    return cfg


def cmd_bound(args, config):
    d = args.d
    row = _bound_rows()[args.theorem]
    query = "q" in row.family
    if "box" in row.family:
        box = build_box(config.get("box"), d, args.box_radius)
        cfg = _contraction_attention(config, row, box.dim or d)
        if query and args.q is None:
            raise ConfigError(f"{row.name} bound needs --q")
        rep = row.report(cfg=cfg, box=box, q=args.q)
    else:
        lookup = _contraction_attention(config, row, d).lookup
        rep = row.report(lookup=lookup, d=d, n=args.n, m=args.m, include_tight_c=args.tight_c)
    extra = {"q": list(args.q)} if query else {}
    return {**rep.to_dict(), **extra}, rep.status == "ok"


def cmd_probe(args, config):
    d = args.d
    row, kind = _probe_rows()[args.theorem]
    # the compact family and tau(Psi_G) hold on a compact box, by default
    # the radius-1 cube; projection and lookup run on any domain
    softmatch = kind in ("softmatch_in_x", "softmatch_in_measure")
    radius = args.box_radius
    if radius is None and (kind is None or softmatch):
        radius = 1.0
    box = DomainBox.unbounded(d)
    if "box" in row.family:
        box = build_box(config.get("box"), d, radius)
    probe = ProbeConfig(
        seed=args.seed, trials=args.trials, d=d, n_range=(args.n_min, args.n_max),
        domain=box, sampling_radius=args.radius, perturbation=args.perturbation,
        jitter_sigma=args.jitter_sigma,
    )
    run = getattr(probes, row.probe)
    cfg = _contraction_attention(config, row, box.dim or d)
    if kind is None:
        # on the unbounded domain, conservative: the bound at the smallest
        # support size any trial can draw (the constant grows with min(N, M))
        inputs = {"cfg": cfg, "box": box, "lookup": cfg.lookup, "d": d, "include_tight_c": False}
        bound = row.report(**inputs, n=args.n_min, m=args.n_min).value
        result = run(cfg, probe, bound=bound)
    else:
        result = run(kind, probe, potential=cfg.potential, lookup=cfg.lookup)
    if args.ratios_csv:
        _write(args.ratios_csv, "ratio\n" + "".join(f"{r!r}\n" for r in result.ratios))
    return result.to_dict(), result.violations == 0


def cmd_dynamics(args, config):
    x0 = load_cloud_any(args.cloud)
    layer = build_layer(config, default_dim=x0.dim)
    traj = run_particles(layer, x0, steps=args.steps)
    if args.states_out:
        _write(
            args.states_out,
            "".join(json.dumps({"points": s.points.tolist()}) + "\n" for s in traj.states),
        )
    return traj.to_dict(), True


def cmd_deq(args, config):
    x = load_cloud_any(args.cloud)
    layer = build_layer(config, default_dim=x.dim)
    h0 = load_cloud_any(args.h0) if args.h0 else PointCloud(np.zeros_like(x.points))
    res = deq_solve(layer, x, h0, tol=args.tol, max_iter=args.max_iter)
    return res.to_dict(), res.converged


def cmd_invert(args, config):
    y = load_cloud_any(args.cloud)
    layer = build_layer(config, default_dim=y.dim)
    with warnings.catch_warnings():
        # the report and the summary line carry the gate's estimate instead
        warnings.filterwarnings("ignore", "sampled Lipschitz estimate", RuntimeWarning)
        res = invert_residual(layer, y, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    return res.to_dict(), res.converged


def cmd_lemmas(args, config):
    report = {}
    ok = True
    if args.ratio or not (args.product or args.local_lip):
        r = probes.check_ratio_lemma(args.nmax, seed=args.seed)
        report["ratio_lemma"] = r
        ok = ok and r["all_within_bound"] and r["ascent_consistent"]
    if args.product or not (args.ratio or args.local_lip):
        r = probes.check_product_lemma(args.trials, seed=args.seed)
        report["product_lemma"] = r
        ok = ok and r["subadditive"]
    if args.local_lip or not (args.ratio or args.product):
        r = probes.check_local_lip_lemma(seed=args.seed)
        report["local_lip_lemma"] = r
        ok = ok and r["all_consistent"]
    return report, ok


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _int_list(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        ) from None


def _float_list(text: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(","))
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"not a comma-separated list of finite numbers: {text!r}"
    )


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error on one stderr line, without the usage
    block, and exit 2; its subparsers are of this class too."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {' '.join(message.split())}\n")

    def _get_values(self, action, arg_strings):
        # argparse drops a value of "--" (--seed=--) and hands the flag []
        if action.nargs is None and arg_strings == ["--"]:
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="softmatch",
        description="Attention as measure transport: kernels, exact W1, "
        "contraction bounds, and empirical probes.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--config", help="JSON config file (overrides flags)")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")

    sp = sub.add_parser("equiv", help="kernel-vs-matrix equivalence suite")
    common(sp)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--dims", type=_int_list, default="1,2,4,8",
                    help="comma-separated dimensions")
    sp.add_argument("--n-max", type=int, default=16)
    sp.add_argument("--sabotage", action="store_true",
                    help="perturb one weight; the suite must fail")
    sp.set_defaults(fn=cmd_equiv)

    sp = sub.add_parser("w1", help="exact W1 between two point-cloud files")
    common(sp)
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument(
        "--plan", action="store_true", help="include the plan's atoms (rows, cols, mass)"
    )
    sp.set_defaults(fn=cmd_w1)

    sp = sub.add_parser("bound", help="evaluate a theorem constant")
    common(sp)
    sp.add_argument("--theorem", required=True, choices=tuple(_bound_rows()))
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--m", type=int, default=8)
    sp.add_argument("--box-radius", type=float)
    sp.add_argument("--q", type=_float_list, help="comma-separated query vector")
    sp.add_argument("--tight-c", action="store_true",
                    help="attach the gradient constant's maximum, found over one "
                    "variable, as a diagnostic beside the loose sqrt(d) + 2")
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("probe", help="randomized contraction probe")
    common(sp)
    sp.add_argument("--theorem", required=True, choices=tuple(_probe_rows()))
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--n-min", type=int, default=2)
    sp.add_argument("--n-max", type=int, default=8)
    sp.add_argument("--radius", type=float, default=5.0)
    sp.add_argument("--box-radius", type=float)
    sp.add_argument("--perturbation", choices=probes.PERTURBATIONS, default="resample")
    sp.add_argument("--jitter-sigma", type=float, default=0.1)
    sp.add_argument("--ratios-csv", help="dump every sampled ratio for plotting")
    sp.set_defaults(fn=cmd_probe)

    sp = sub.add_parser("dynamics", help="iterate self-attention layers")
    common(sp)
    sp.add_argument("cloud")
    sp.add_argument("--steps", type=int, default=4)
    sp.add_argument("--states-out", help="JSON-lines trajectory export")
    sp.set_defaults(fn=cmd_dynamics)

    sp = sub.add_parser("deq", help="deep-equilibrium fixed point")
    common(sp)
    sp.add_argument("cloud")
    sp.add_argument("--h0", help="initial state file (default: zeros)")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--max-iter", type=int, default=500)
    sp.set_defaults(fn=cmd_deq)

    sp = sub.add_parser("invert", help="invert a residual attention block")
    common(sp)
    sp.add_argument("cloud")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--max-iter", type=int, default=500)
    sp.set_defaults(fn=cmd_invert)

    sp = sub.add_parser("lemmas", help="auxiliary lemma checks")
    common(sp)
    sp.add_argument("--ratio", action="store_true")
    sp.add_argument("--nmax", type=int, default=200)
    sp.add_argument("--product", action="store_true")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--local-lip", action="store_true")
    sp.set_defaults(fn=cmd_lemmas)

    return p


def _emit(args, config: dict, report: dict) -> None:
    """The JSON envelope to --out, or to stdout."""
    envelope = {
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "config_hash": _config_hash(
            {"args": {k: v for k, v in vars(args).items() if k != "fn"}, "config": config}
        ),
        "version": __version__,
        "report": report,
    }
    blob = json.dumps(envelope, indent=2)
    if getattr(args, "out", None):
        _write(args.out, blob + "\n")
    else:
        print(blob)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        logging.basicConfig(level=_log_level())
        config = _load_config_file(getattr(args, "config", None))
        # the envelope records the seed for a replay, so every subcommand
        # checks it, not only those that draw from a stream
        check_seed(args.seed)
        report, ok = args.fn(args, config)
        _emit(args, config, report)
    except _Unwritable as e:
        print(e, file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"missing input: {e}", file=sys.stderr)
        return 2
    except (IsADirectoryError, PermissionError) as e:
        print(f"cannot read input: {e}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as e:
        message = " ".join(str(e).split())
        print(f"input error: {type(e).__name__}: {message}", file=sys.stderr)
        return 2
    lip = report.get("lip_estimate")
    gate = f" (sampled Lipschitz estimate {lip:.3f} >= 1)" if lip is not None and lip >= 1 else ""
    print(f"softmatch {args.command}: {'pass' if ok else 'FAIL'}{gate}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
