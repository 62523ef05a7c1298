"""repro.verify — symbolic cross-level PLA verification (execution-free).

The verifier closes the loop the paper's §5 compliance mechanism leaves
open: :mod:`repro.core.containment` decides *derivability* when a report is
registered, but nothing proved that the deployed artifacts — source
policies, warehouse authorizations, approved meta-report definitions, and
the catalog views actually executed — still agree with each other. This
package proves (or refutes, with a replayable counterexample) the Fig 5
ordering across all four levels without executing a single report. Both
sides decide predicate implication with the same solver:

* :mod:`repro.verify.domain` — finite abstract domains over predicate
  constants, numbers read densely (the small-model argument that makes
  enumeration exact),
* :mod:`repro.verify.solver` — satisfiability / implication / disjointness
  under SQL three-valued logic; the one predicate reasoner, also behind
  derivability, CQ containment and PLA lint in :mod:`repro.core`,
* :mod:`repro.verify.verdicts` — typed ``PROVED``/``REFUTED``/``UNKNOWN``
  results with proof traces, rendered as VER001–VER006 diagnostics,
* :mod:`repro.verify.fd` — functional dependencies derived from the star
  dimensions, conjoined into implication premises with provenance,
* :mod:`repro.verify.counterexample` — witness-row synthesis and replay
  through the production enforcement engine,
* :mod:`repro.verify.crosslevel` — the deployment-wide consistency pass,
* :mod:`repro.verify.incremental` — value-keyed verdict caching so
  re-verification after a mutation re-proves only the units it touched.
"""

from repro.verify.counterexample import (
    Counterexample,
    ReplayOutcome,
    build_replay_catalog,
    replay_escape,
)
from repro.verify.crosslevel import (
    DeploymentVerifier,
    SourcePolicy,
    VerificationInput,
    verify_scenario,
)
from repro.verify.fd import (
    FunctionalDependency,
    fds_from_star,
    violated_fd,
)
from repro.verify.incremental import (
    IncrementalVerifier,
    VerdictCache,
    result_from_dict,
    result_to_dict,
)
from repro.verify.domain import (
    PredicateShape,
    UnsupportedPredicate,
    build_domains,
    domain_size,
    scan_shape,
)
from repro.verify.solver import (
    DEFAULT_BUDGET,
    Sat,
    SolverResult,
    falsifiable,
    implication_counterexample,
    overlap,
    satisfiable,
    truth,
)
from repro.verify.verdicts import (
    CheckResult,
    ProofTrace,
    Verdict,
    VerificationReport,
)

__all__ = [
    "Sat",
    "SolverResult",
    "DEFAULT_BUDGET",
    "satisfiable",
    "falsifiable",
    "implication_counterexample",
    "overlap",
    "truth",
    "UnsupportedPredicate",
    "PredicateShape",
    "scan_shape",
    "build_domains",
    "domain_size",
    "Verdict",
    "ProofTrace",
    "CheckResult",
    "VerificationReport",
    "Counterexample",
    "ReplayOutcome",
    "build_replay_catalog",
    "replay_escape",
    "SourcePolicy",
    "VerificationInput",
    "DeploymentVerifier",
    "FunctionalDependency",
    "fds_from_star",
    "violated_fd",
    "IncrementalVerifier",
    "VerdictCache",
    "result_to_dict",
    "result_from_dict",
    "verify_scenario",
]
