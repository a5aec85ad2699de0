// Package fleet is the long-running sweep service behind parade-serve:
// batches of simulation jobs — cells of the scenario matrix
// (harness.Matrix: app × mode × fabric × fault profile × crash schedule
// × policy × lanes × node count × seed) — arrive over HTTP/JSONL, are
// validated into typed JobSpecs, deduplicated by a canonical config
// fingerprint against an LRU result cache, and executed on a bounded
// worker pool with work-stealing admission. Results stream back as
// JSONL; service health and throughput are exported on a
// Prometheus-style /metrics endpoint wired to internal/obs.
//
// The dedupe cache leans on the determinism the rest of the repo
// enforces: a run is a pure function of its configuration (bit-identical
// at any lane count, GOMAXPROCS, fault interleaving, or host schedule —
// DESIGN.md §6h), so two jobs whose canonical configurations are equal
// provably have equal results, and a cache hit can return the stored
// report without re-execution. See SERVING.md for the serving surface.
package fleet

import "parade/internal/harness"

// JobSpec is one simulation job as submitted by a client: a cell of the
// scenario matrix. Validation, canonicalization, fingerprinting, and
// config lowering live on harness.Spec, so the service and the
// in-process matrix agree on every cell's identity.
type JobSpec = harness.Spec

// FieldError locates one invalid field of a JobSpec.
type FieldError = harness.FieldError

// JobSpecError is the typed validation error for a malformed JobSpec,
// with field-level detail.
type JobSpecError = harness.SpecError
