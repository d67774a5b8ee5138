// Package campaign turns single-scenario runs into experiment suites: one
// strict-decoded JSON spec declares a matrix of entries (scenario refs or
// inline scenarios) crossed with campaign-wide sweep and model defaults, and
// each entry expands into comparative variants — the NCC algorithm itself, its
// paired naive baseline (automatic via algo.BaselineFor, or explicit), and an
// optional k-machine-accounted run. Expansion is deterministic and every
// variant is a single canonical-hashed scenario, so campaign units flow
// through the same execution seams as ordinary jobs: the local runner,
// Execute, calls scenario.RunTraced in process, and the service runner
// submits them as nccd jobs where the result cache and cluster workers apply
// unchanged.
//
// The report builder merges per-unit Records into comparative tables — round,
// message and word totals per variant, verification pass counts, and the
// baseline-rounds-per-NCC-round speedup column that quantifies the paper's
// headline claims. Reports are deterministic (no wall-clock fields), so the
// same campaign produces byte-identical report JSON whether it ran locally,
// against a coordinator, or straight out of the result cache. That makes the
// report its own regression check: the tests pin the sha256 of every shipped
// campaign's report, so any change to a round, message, word or verification
// count of a shipped campaign shows as a changed hash.
package campaign
