"""Organism data stand-ins: *E.coli*, *S.aureus*, *S.cerevisiae*.

The paper evaluates inference accuracy on three DREAM5 compendia [22] with
known gold-standard networks. Those proprietary-download data sets are not
available offline, so this module synthesizes organism-shaped stand-ins
(documented substitution in DESIGN.md): a scale-free gold-standard GRN with
the organism's edge density, expression generated through the *same* linear
model the paper uses for its synthetic data (``M = E (I - B)^{-1}``), at a
configurable scale that preserves each organism's samples-to-genes aspect
ratio. The gold standard rides along as ``truth_edges`` for ROC evaluation.
:func:`build_real_database` cuts the paper's ``Real`` matrix database
(Section 6.3) from these compendia.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULTS
from ..core.randomization import default_rng
from ..errors import InternalError, ValidationError
from .database import GeneFeatureDatabase
from .matrix import GeneFeatureMatrix

__all__ = [
    "OrganismSpec",
    "ORGANISMS",
    "build_real_database",
    "generate_gold_standard",
    "generate_organism_matrix",
]


@dataclass(frozen=True)
class OrganismSpec:
    """Shape parameters of one organism compendium.

    ``paper_*`` record the full-size data set of [22]; ``genes`` /
    ``samples`` / ``edges`` are the (scaled) sizes this generator produces.
    """

    name: str
    genes: int
    samples: int
    edges: int
    paper_genes: int
    paper_samples: int

    def __post_init__(self) -> None:
        if self.genes < 4 or self.samples < 4:
            raise ValidationError(
                f"organism {self.name!r} needs >= 4 genes and samples"
            )
        if self.edges < 1:
            raise ValidationError(f"organism {self.name!r} needs >= 1 edge")

    def scaled(self, genes: int, samples: int | None = None) -> "OrganismSpec":
        """Resize while keeping the organism's edge density and aspect ratio."""
        if genes < 4:
            raise ValidationError(f"genes must be >= 4, got {genes}")
        density = self.edges / self.genes
        new_samples = (
            samples
            if samples is not None
            else max(4, round(genes * self.paper_samples / self.paper_genes))
        )
        return OrganismSpec(
            name=self.name,
            genes=genes,
            samples=new_samples,
            edges=max(1, round(density * genes)),
            paper_genes=self.paper_genes,
            paper_samples=self.paper_samples,
        )


#: Defaults keep the paper's relative shapes at laptop scale. The paper's
#: gold standard for E.coli has 2,066 edges over 4,511 genes (~0.46/gene);
#: the same density is assumed for the other two organisms.
ORGANISMS: dict[str, OrganismSpec] = {
    "ecoli": OrganismSpec(
        name="ecoli",
        genes=200,
        samples=80,
        edges=92,
        paper_genes=4511,
        paper_samples=805,
    ),
    "saureus": OrganismSpec(
        name="saureus",
        genes=180,
        samples=36,
        edges=82,
        paper_genes=2810,
        paper_samples=160,
    ),
    "scerevisiae": OrganismSpec(
        name="scerevisiae",
        genes=220,
        samples=48,
        edges=101,
        paper_genes=5950,
        paper_samples=536,
    ),
}


def generate_gold_standard(
    num_genes: int,
    num_edges: int,
    rng: np.random.Generator | int | None = None,
    regulator_fraction: float = 0.1,
) -> list[tuple[int, int]]:
    """A scale-free(ish) gold-standard GRN as directed (regulator, target) pairs.

    Real GRNs are transcription-factor centric: a small regulator set with a
    heavy-tailed out-degree. We pick ``regulator_fraction`` of the genes as
    regulators and attach targets preferentially to regulators that already
    have many targets, yielding hub structure like the DREAM5 standards.

    Gene indices are local (``0 .. num_genes-1``); callers map them to
    global IDs.
    """
    if num_genes < 4:
        raise ValidationError(f"num_genes must be >= 4, got {num_genes}")
    max_edges = num_genes * (num_genes - 1) // 2
    if not 1 <= num_edges <= max_edges:
        raise ValidationError(
            f"num_edges must be in [1, {max_edges}], got {num_edges}"
        )
    gen = default_rng(rng)
    num_regulators = max(2, int(round(regulator_fraction * num_genes)))
    regulators = list(range(num_regulators))
    weights = np.ones(num_regulators, dtype=np.float64)
    edges: set[tuple[int, int]] = set()
    attempts = 0
    while len(edges) < num_edges:
        attempts += 1
        if attempts > 50 * num_edges:
            raise InternalError("gold-standard generation failed to converge")
        reg = int(gen.choice(num_regulators, p=weights / weights.sum()))
        target = int(gen.integers(num_genes))
        if target == reg:
            continue
        pair = (regulators[reg], target)
        if pair in edges or (pair[1], pair[0]) in edges:
            continue
        edges.add(pair)
        weights[reg] += 1.0  # preferential attachment
    return sorted(edges)


def generate_organism_matrix(
    spec: OrganismSpec,
    source_id: int = 0,
    rng: np.random.Generator | int | None = None,
    gene_id_offset: int = 0,
    max_retries: int = 20,
    expression_std: float = 0.5,
    noisy_gene_fraction: float = 0.3,
    artifact_rate: float = 0.05,
    artifact_scale: float = 12.0,
) -> GeneFeatureMatrix:
    """Expression matrix + gold standard for one organism stand-in.

    The regulatory weights are scaled by each target's in-degree so that
    ``(I - B)`` stays well conditioned even around hub targets.

    Real microarray compendia are heterogeneous across probes: a minority
    of genes ("noisy probes") carry heavy-tailed hybridization/scanner
    artifacts. ``noisy_gene_fraction`` of the genes therefore receive
    Student-t(2) spikes (``artifact_rate`` of their entries, scaled by
    ``artifact_scale * expression_std``). This per-gene heterogeneity is
    what separates the paper's randomization measure from plain Pearson in
    the ROC experiments: a noisy probe's spurious ``|r|`` spikes come with
    an equally wide permutation null, so IM-GRN discounts them, while the
    Correlation competitor ranks purely by the inflated ``|r|``.
    """
    if not 0.0 <= noisy_gene_fraction <= 1.0:
        raise ValidationError(
            f"noisy_gene_fraction must be in [0,1], got {noisy_gene_fraction}"
        )
    if not 0.0 <= artifact_rate < 1.0:
        raise ValidationError(
            f"artifact_rate must be in [0,1), got {artifact_rate}"
        )
    if expression_std <= 0.0:
        raise ValidationError(
            f"expression_std must be > 0, got {expression_std}"
        )
    gen = default_rng(rng)
    last_error: Exception | None = None
    for _attempt in range(max_retries):
        gold = generate_gold_standard(spec.genes, spec.edges, gen)
        b = np.zeros((spec.genes, spec.genes), dtype=np.float64)
        in_degree = np.zeros(spec.genes, dtype=np.float64)
        for _reg, target in gold:
            in_degree[target] += 1.0
        for reg, target in gold:
            magnitude = gen.uniform(0.5, 1.0) / max(1.0, np.sqrt(in_degree[target]))
            sign = -1.0 if gen.random() < 0.5 else 1.0
            b[reg, target] = sign * magnitude
        system = np.eye(spec.genes) - b
        condition = np.linalg.cond(system)
        if not np.isfinite(condition) or condition > 1e8:
            last_error = InternalError(f"ill-conditioned system ({condition:.3g})")
            continue
        noise = gen.normal(0.0, expression_std, size=(spec.samples, spec.genes))
        values = np.linalg.solve(system.T, noise.T).T
        if noisy_gene_fraction > 0.0 and artifact_rate > 0.0:
            noisy_genes = gen.random(spec.genes) < noisy_gene_fraction
            spikes = (gen.random(values.shape) < artifact_rate) & noisy_genes
            magnitude = gen.standard_t(2, size=values.shape)
            values = values + spikes * magnitude * artifact_scale * expression_std
        gene_ids = [gene_id_offset + i for i in range(spec.genes)]
        truth = [(gene_ids[u], gene_ids[v]) for u, v in gold]
        try:
            return GeneFeatureMatrix(values, gene_ids, source_id, truth)
        except ValidationError as exc:
            last_error = exc
    raise InternalError(
        f"failed to generate organism {spec.name!r} after {max_retries} tries: "
        f"{last_error}"
    )


def build_real_database(
    n_matrices: int = DEFAULTS.n_matrices,
    genes_range: tuple[int, int] = DEFAULTS.genes_per_matrix,
    samples_range: tuple[int, int] = DEFAULTS.samples_per_matrix,
    seed: int = 7,
) -> GeneFeatureDatabase:
    """The ``Real`` data set: N/3 random sub-matrices from each organism.

    Mirrors Section 6.3: one master compendium per organism, from which
    ``l_i x n_i`` sub-matrices (random sample rows x random gene columns)
    are cut, keeping the gold-standard edges among the kept genes.
    """
    if n_matrices < 3:
        raise ValidationError(f"n_matrices must be >= 3, got {n_matrices}")
    rng = np.random.default_rng(seed)
    master_genes = max(2 * genes_range[1], 240)
    master_samples = max(2 * samples_range[1], 60)
    masters = []
    for offset, name in enumerate(("ecoli", "saureus", "scerevisiae")):
        spec = ORGANISMS[name].scaled(master_genes, master_samples)
        masters.append(
            generate_organism_matrix(
                spec,
                source_id=offset,
                rng=np.random.default_rng((seed, offset)),
                gene_id_offset=0,  # organisms share a gene namespace
            )
        )
    database = GeneFeatureDatabase()
    for source_id in range(n_matrices):
        master = masters[source_id % len(masters)]
        n_i = int(rng.integers(genes_range[0], genes_range[1] + 1))
        l_i = int(rng.integers(samples_range[0], samples_range[1] + 1))
        cols = sorted(
            int(g)
            for g in rng.choice(master.gene_ids, size=n_i, replace=False)
        )
        sub = master.submatrix(cols, source_id=source_id)
        rows = np.sort(rng.choice(sub.num_samples, size=l_i, replace=False))
        kept = set(sub.gene_ids)
        truth = [(u, v) for u, v in sub.truth_edges if u in kept and v in kept]
        database.add(
            GeneFeatureMatrix(
                sub.values[rows, :], sub.gene_ids, source_id, truth
            )
        )
    return database
