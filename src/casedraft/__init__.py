"""casedraft: draft forensic report sections from a case bundle with an LLM
backend, then check every draft against the evidence it was given.

The package is organized as a small pipeline:

    model      -> case bundle types, validation, JSON round-trip
    ingest     -> parsers for the four source text layouts
    transform  -> distance, clustering, day bucketing, co-location, CSV
    prompting  -> input renderers and the 36-prompt experiment matrix
    gateway    -> local, hosted and mock generation backends
    grounding  -> claim extraction, hallucination and completeness scoring
    pipeline   -> report assembly, results store, experiment runner
    cli        -> one subcommand per stage

Drafting never touches the Discussion or Conclusion sections; those stay
with the examiner.  prompting.DRAFTED is the one place that says which
sections are drafted, and from which inputs.
"""

from .model import (
    CaseBundle,
    DeviceProfile,
    Direction,
    EvidenceItem,
    ImageHash,
    ItemKind,
    LocationRecord,
    Mandate,
    MessageRecord,
    MethodStep,
    ReportSectionKind,
    Sender,
    ValidationIssue,
    bundle_from_json,
    bundle_to_json,
    validate_bundle,
)

__version__ = "0.1.0"

__all__ = [
    "CaseBundle",
    "DeviceProfile",
    "Direction",
    "EvidenceItem",
    "ImageHash",
    "ItemKind",
    "LocationRecord",
    "Mandate",
    "MessageRecord",
    "MethodStep",
    "ReportSectionKind",
    "Sender",
    "ValidationIssue",
    "bundle_from_json",
    "bundle_to_json",
    "validate_bundle",
    "__version__",
]
