"""Multi-run training with representation regeneration.

Each run trains the configured pipeline from fresh seed-derived
initialization on the current encoding, produces pseudo-labels for the
unlabeled rows, refines them, and rebuilds the count table from the labeled
rows plus the kept pseudo-labels before the next run. Run 1 always trains on
the table fit from labeled rows only. Pseudo-label precision against the
hidden ground truth is computed for reporting and never flows into training.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__, cmixup, vime
from .data import DataSplit, TabularDataset, apply_scaler, fit_scaler
from .encoding import CountTable, encode, fit_cpr, fit_target_encoding
from .nn import ModelGraph, derive_seed
from .vime import CorruptionSpec, VimeModel, build_vime_model

DEFAULT_SEEDS = (123, 127, 131, 137)

REFINEMENT_MODES = ("none", "classifier_threshold", "propagation_threshold",
                    "two_step_agreement")
PIPELINES = ("vime", "cmixup")
ENCODINGS = ("cpr", "target")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything one progressive experiment needs; defaults follow the
    reference setups (propagation threshold 0.9, classifier threshold 0.8 =
    midpoint of the stated [0.7, 0.9] range, 5 runs for the vime pipeline and
    4 for cmixup). The loss weights, temperature, mixup alpha, Adam step and
    one-layer encoders that no experiment varies are constants in nn, cmixup
    and vime."""

    name: str = ""
    pipeline: str = "vime"
    n_runs: int | None = None  # None -> 5 for vime, 4 for cmixup
    update_enabled: bool = True
    refinement_mode: str = "none"
    classifier_threshold: float = 0.8
    propagation_threshold: float = 0.9
    encoding: str = "cpr"
    te_smoothing: float = 10.0
    seed: int = 0
    # network shapes and optimization
    latent_dim: int = 32
    predictor_hidden: tuple[int, ...] = (256, 128)
    batch_size: int = 256
    # vime step hyperparameters (also the second step of cmixup)
    p_mask: float = 0.3
    beta_consistency: float = 1.0
    k_corruptions: int = 3
    pretext_epochs: int = 10
    semisup_epochs: int = 20
    pretext_enabled: bool = True
    # cmixup first step
    component_flags: tuple[str, ...] = ("decoder", "projection", "classifier")
    warmup_epochs: int = 10
    encoder_epochs: int = 20
    knn_k: int = 50

    def __post_init__(self):
        if isinstance(self.predictor_hidden, list):
            self.predictor_hidden = tuple(self.predictor_hidden)
        if isinstance(self.component_flags, list):
            self.component_flags = tuple(self.component_flags)

    def resolved_n_runs(self) -> int:
        if self.n_runs is not None:
            return self.n_runs
        return 5 if self.pipeline == "vime" else 4

    def validate(self) -> list[str]:
        """Structured invariant check; returns human-readable problems."""
        problems = []
        if self.pipeline not in PIPELINES:
            problems.append(f"unknown pipeline {self.pipeline!r}")
        if self.refinement_mode not in REFINEMENT_MODES:
            problems.append(f"unknown refinement mode {self.refinement_mode!r}")
        if self.encoding not in ENCODINGS:
            problems.append(f"unknown encoding {self.encoding!r}")
        if self.n_runs is not None and self.n_runs < 1:
            problems.append("n_runs must be >= 1")
        for nm in ("classifier_threshold", "propagation_threshold"):
            v = getattr(self, nm)
            if not 0.0 <= v <= 1.0:
                problems.append(f"{nm} must lie in [0, 1]")
        if self.pipeline == "vime":
            # the predictor is the only pseudo-label source: no propagation
            # weights exist, so agreement between two sources is impossible
            if self.refinement_mode == "two_step_agreement":
                problems.append("vime pipeline has no label propagation; "
                                "two_step_agreement needs both sources")
            if self.refinement_mode == "propagation_threshold":
                problems.append("vime pipeline has no propagation weights")
        if self.pipeline == "cmixup":
            has_clf = "classifier" in self.component_flags
            if self.refinement_mode == "two_step_agreement" and not has_clf:
                problems.append("two_step_agreement requires the classifier component")
            if self.refinement_mode == "classifier_threshold" and not has_clf:
                problems.append("classifier_threshold requires the classifier component")
            unknown = set(self.component_flags) - {"decoder", "projection", "classifier"}
            if unknown:
                problems.append(f"unknown component flags {sorted(unknown)}")
            if not self.component_flags:
                problems.append("cmixup needs at least one component flag")
        if not 0.0 <= self.p_mask <= 1.0:
            problems.append("p_mask must lie in [0, 1]")
        for nm, low in (("knn_k", 1), ("batch_size", 2), ("latent_dim", 1),
                        ("semisup_epochs", 1), ("pretext_epochs", 0),
                        ("warmup_epochs", 0), ("encoder_epochs", 0)):
            if getattr(self, nm) < low:
                problems.append(f"{nm} must be >= {low}")
        if min(self.predictor_hidden, default=1) < 1:
            problems.append("hidden layer widths must be >= 1")
        if self.encoding == "target" and not 0 < self.te_smoothing < np.inf:
            problems.append("te_smoothing must be > 0 and finite")
        if not 0 <= self.beta_consistency < np.inf:  # NaN fails too
            problems.append("beta_consistency must be >= 0 and finite")
        elif self.beta_consistency > 0 and self.k_corruptions < 2:
            problems.append("beta_consistency > 0 needs k_corruptions >= 2")
        return problems


@dataclass
class PseudoLabelSet:
    """Pseudo-labels for (a subset of) the unlabeled rows plus the confidence
    signals the refinement predicates need. ``labels`` are the values that
    would enter the table update (predictor labels for vime, propagation
    labels for cmixup)."""

    rows: np.ndarray  # dataset row indices
    labels: np.ndarray
    classifier_conf: np.ndarray | None = None
    classifier_labels: np.ndarray | None = None
    propagation_weight: np.ndarray | None = None
    kept: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.kept is None:
            self.kept = np.ones(self.rows.size, dtype=bool)
        self.kept = np.asarray(self.kept, dtype=bool)

    def kept_rows(self) -> np.ndarray:
        return self.rows[self.kept]

    def kept_labels(self) -> np.ndarray:
        return self.labels[self.kept]


def refine_pseudo_labels(
    pls: PseudoLabelSet,
    mode: str,
    classifier_threshold: float = 0.8,
    propagation_threshold: float = 0.9,
) -> PseudoLabelSet:
    """Pure filter: returns a copy with the kept mask set by the mode's rule."""
    if mode == "none":
        kept = np.ones(pls.rows.size, dtype=bool)
    elif mode == "classifier_threshold":
        if pls.classifier_conf is None:
            raise ConfigError("classifier_threshold refinement needs classifier_conf")
        kept = pls.classifier_conf >= classifier_threshold
    elif mode == "propagation_threshold":
        if pls.propagation_weight is None:
            raise ConfigError("propagation_threshold refinement needs propagation_weight")
        kept = pls.propagation_weight >= propagation_threshold
    elif mode == "two_step_agreement":
        if pls.classifier_labels is None or pls.propagation_weight is None:
            raise ConfigError("two_step_agreement needs classifier labels and "
                              "propagation weights")
        kept = (pls.classifier_labels == pls.labels) & (
            pls.propagation_weight >= propagation_threshold
        )
    else:
        raise ConfigError(f"unknown refinement mode {mode!r}")
    return replace(pls, kept=kept)


def fit_table(ds: TabularDataset, rows: np.ndarray, labels: np.ndarray,
              config: RunConfig) -> CountTable:
    if config.encoding == "target":
        return fit_target_encoding(ds, rows, labels, smoothing=config.te_smoothing)
    return fit_cpr(ds, rows, labels)


def update_representation(
    ds: TabularDataset,
    base: CountTable,
    kept: PseudoLabelSet,
    labeled_idx: np.ndarray,
    labeled_labels: np.ndarray,
) -> CountTable:
    """Rebuild the table's counts from scratch on D_L plus the kept
    pseudo-labels; its read rule is kept.

    Equivalent to updating the labeled-only table with the kept counts; the
    rebuild keeps every run a pure function of the latest pseudo-labels.
    """
    rows = np.concatenate([np.asarray(labeled_idx, dtype=np.int64), kept.kept_rows()])
    labels = np.concatenate([np.asarray(labeled_labels, dtype=np.int64), kept.kept_labels()])
    return replace(base, counts=fit_cpr(ds, rows, labels).counts)


@dataclass
class RunMetrics:
    test_accuracy: float
    kept_fraction: float
    pseudo_precision: float | None
    n_kept: int
    loss_curves: dict
    # 10-bin histogram over [0, 1] of the confidence stream driving
    # refinement: propagation weights (cmixup) or classifier confidence (vime)
    weight_histogram: list | None = None


@dataclass
class ExperimentReport:
    method: str
    seed: int
    config: dict
    runs: list[RunMetrics]
    final_test_accuracy: float
    wall_clock_s: float
    library_version: str = __version__

    def to_json(self) -> str:
        payload = asdict(self)
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        payload = json.loads(text)
        payload["runs"] = [RunMetrics(**r) for r in payload["runs"]]
        return cls(**payload)


def _train_run(xl, yl, xu, unlabeled_idx, num_classes: int, config: RunConfig, seed: int):
    """One run of the configured pipeline: step 1 (vime's pretext or the
    cmixup encoder), then a predictor with consistency regularization on the
    frozen encoder, shared by both. Returns the step-2 model, the
    pseudo-labels and the loss curves."""
    curves = {}
    if config.pipeline == "vime":
        model = build_vime_model(xl.shape[1], num_classes, latent_dim=config.latent_dim,
                                 predictor_hidden=config.predictor_hidden, seed=seed,
                                 with_encoder=config.pretext_enabled)
        spec = CorruptionSpec(config.p_mask, seed=seed)
        if config.pretext_enabled:
            curves["pretext"] = vime.pretext_train(
                model, xu, spec, epochs=config.pretext_epochs, batch_size=config.batch_size)
    else:
        net = cmixup.build_cmixup_model(xl.shape[1], num_classes, latent_dim=config.latent_dim,
                                        flags=config.component_flags, seed=seed)
        prop, curves["encoder"] = cmixup.encoder_train(
            net, xl, yl, xu, num_classes, warmup_epochs=config.warmup_epochs,
            epochs=config.encoder_epochs, knn_k=config.knn_k,
            batch_size=config.batch_size, seed=seed,
        )
        model = VimeModel(net, ModelGraph.mlp(
            config.latent_dim, config.predictor_hidden, num_classes, "softmax",
            seed=derive_seed(seed, "cm-step2-predictor"), dtype=np.float32))
        spec = CorruptionSpec(config.p_mask, seed=derive_seed(seed, "cm-step2"))
    curves["semisup"] = vime.semisup_train(
        model, xl, yl, xu, spec, beta=config.beta_consistency,
        k_corruptions=config.k_corruptions, epochs=config.semisup_epochs,
        batch_size=config.batch_size,
    )

    if config.pipeline == "vime":
        labels, conf = vime.predict(model, xu)
        return model, PseudoLabelSet(unlabeled_idx, labels, classifier_conf=conf), curves
    # propagation ran over [labeled; unlabeled] order: the unlabeled tail
    n_lab = xl.shape[0]
    clf_labels = clf_conf = None
    if "classifier" in net.blocks:
        clf_labels, clf_conf = cmixup.classify(net, xu)
    return model, PseudoLabelSet(unlabeled_idx, prop.pseudo_label[n_lab:],
                                 classifier_conf=clf_conf, classifier_labels=clf_labels,
                                 propagation_weight=prop.weight[n_lab:]), curves


def run_progressive(ds: TabularDataset, split: DataSplit, config: RunConfig) -> ExperimentReport:
    """Execute the multi-run loop and report per-run metrics.

    Run 1 always uses the table fit on the labeled rows only; after each run
    pseudo-labels are produced, refined, and (when updates are enabled) the
    table is rebuilt before the next run. Each run encodes the split's rows
    once, in partition order (labeled, unlabeled, test), and the trainers and
    the test read contiguous views of that one matrix.
    """
    problems = config.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    t0 = time.perf_counter()
    y = ds.labels
    dss = apply_scaler(ds, fit_scaler(ds, split.train_idx))
    labeled_labels = y[split.labeled_idx]
    table = fit_table(dss, split.labeled_idx, labeled_labels, config)
    rows = np.concatenate([split.labeled_idx, split.unlabeled_idx, split.test_idx])
    bounds = np.cumsum([split.labeled_idx.size, split.unlabeled_idx.size])
    n_runs = config.resolved_n_runs()
    runs: list[RunMetrics] = []
    for run_i in range(1, n_runs + 1):
        xl, xu, xt = np.split(encode(dss, rows, table).matrix, bounds)
        model, pls, curves = _train_run(xl, labeled_labels, xu, split.unlabeled_idx,
                                        ds.num_classes, config,
                                        derive_seed(config.seed, "run", run_i))
        test_acc = vime.accuracy(model, xt, y[split.test_idx])

        refined = refine_pseudo_labels(pls, config.refinement_mode,
                                       config.classifier_threshold,
                                       config.propagation_threshold)
        n_kept = int(refined.kept.sum())
        kept_fraction = float(n_kept / max(1, refined.rows.size))
        precision = None
        if n_kept:
            precision = float(
                (refined.kept_labels() == y[refined.kept_rows()]).mean()
            )
        confidence = (pls.propagation_weight if pls.propagation_weight is not None
                      else pls.classifier_conf)
        histogram = None
        if confidence is not None and confidence.size:
            histogram = np.histogram(confidence, bins=10, range=(0.0, 1.0))[0].tolist()
        runs.append(RunMetrics(float(test_acc), kept_fraction, precision, n_kept,
                               curves, histogram))
        if config.update_enabled and run_i < n_runs:
            table = update_representation(dss, table, refined,
                                          split.labeled_idx, labeled_labels)
    cfg_dict = {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(config).items()}
    cfg_dict["n_runs"] = n_runs
    return ExperimentReport(
        method=config.name or config.pipeline,
        seed=config.seed,
        config=cfg_dict,
        runs=runs,
        final_test_accuracy=runs[-1].test_accuracy,
        wall_clock_s=time.perf_counter() - t0,
    )


def compare_runs(reports: list[ExperimentReport]) -> dict:
    """Per-method mean/std of final test accuracy (population std), plus the
    raw per-seed values ordered by seed."""
    if not reports:
        raise ConfigError("compare_runs needs at least one report")
    by_method: dict[str, list[ExperimentReport]] = {}
    for r in reports:
        by_method.setdefault(r.method, []).append(r)
    summary = {}
    for method in sorted(by_method):
        group = sorted(by_method[method], key=lambda r: r.seed)
        accs = np.array([r.final_test_accuracy for r in group])
        summary[method] = {
            "mean": float(accs.mean()),
            "std": float(accs.std()),
            "n_seeds": int(accs.size),
            "raw": [float(a) for a in accs],
            "seeds": [r.seed for r in group],
        }
    return summary
