"""NUCA organizations: the paper's baselines (S-NUCA, R-NUCA, Jigsaw+C/+R)
and CDCS, all expressed through one scheme interface."""

from repro.nuca.base import (
    GLOBAL_VC_ID,
    NucaScheme,
    SchemeResult,
    SharingScheme,
    build_problem,
    default_mem_latency,
    process_vc_id,
)
from repro.nuca.cdcs import Cdcs, factor_variant
from repro.nuca.jigsaw import Jigsaw
from repro.nuca.partitioned import PartitionedShared
from repro.nuca.rnuca import RNuca, rotational_cluster
from repro.nuca.snuca import SNuca

#: The comparison schemes of the paper's tables/figures, in presentation
#: order (S-NUCA is the baseline they are normalized against).  The single
#: source of truth for every table header and row ordering — the CLI,
#: the experiment specs, and the benchmark drivers all import this.
SCHEMES: tuple[str, ...] = ("R-NUCA", "Jigsaw+C", "Jigsaw+R", "CDCS")


def standard_schemes(seed: int = 0) -> list[NucaScheme]:
    """The five schemes of Fig 11/13/15: S-NUCA, R-NUCA, Jigsaw+C,
    Jigsaw+R, CDCS (in the paper's plotting order)."""
    return [
        SNuca(seed),
        RNuca(seed),
        Jigsaw("clustered", seed),
        Jigsaw("random", seed),
        Cdcs(seed=seed),
    ]


__all__ = [
    "Cdcs",
    "GLOBAL_VC_ID",
    "Jigsaw",
    "NucaScheme",
    "PartitionedShared",
    "RNuca",
    "SCHEMES",
    "SNuca",
    "SchemeResult",
    "SharingScheme",
    "build_problem",
    "default_mem_latency",
    "factor_variant",
    "process_vc_id",
    "rotational_cluster",
    "standard_schemes",
]
