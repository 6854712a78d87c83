// Package farm orchestrates fleets of simulator runs: content-addressed
// jobs deduplicated by configuration hash, a bounded worker pool (only
// the fleet is concurrent — each simulation stays single-goroutine
// deterministic), a two-layer result cache (in-memory map in front of an
// on-disk directory with atomic writes and corruption-tolerant reads),
// per-job panic isolation with one retry, and a progress/ETA reporter.
// The cache is the only sweep record: a sweep that stops part-way is
// resumed by running the same jobs again, and only the jobs without a
// cache entry simulate.
//
// farm is an orchestration package: it sits on the nondeterm lint
// allowlist (internal/lint/nondeterm.go), so goroutines, sync
// primitives, and wall-clock reads are permitted here while remaining
// banned in the simulator proper. The determinism boundary is enforced
// structurally instead: everything observable — result maps and the
// tables assembled from them — is keyed by job hash, so sweep outputs
// are byte-identical regardless of worker count, completion order, or
// cache temperature.
package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"senss/internal/crypto"
	"senss/internal/machine"
	"senss/internal/workload"
)

// Job is one simulator run: a workload at a problem scale under a
// machine configuration. Identical jobs requested by different figures
// share one hash, and so one run.
type Job struct {
	Workload string
	Size     workload.Size
	Config   machine.Config
}

// Hash returns the job's content address: hex SHA-256, truncated to 32
// characters, over the canonical JSON encoding of (workload, size,
// config). machine.Config is a tree of plain value structs — no maps, no
// pointers — so encoding/json is canonical: field order is declaration
// order and equal configs encode to equal bytes. A change to the config
// schema changes hashes, which only invalidates cache entries; stale
// results are additionally fenced by the CacheVersion stamp.
func (j Job) Hash() string {
	cfg := j.Config
	// The crypto backend is part of the job identity (it names which
	// cipher implementation ran, so provenance stays honest), but "" and
	// the default name are the same backend and must share a cache entry.
	cfg.Security.Senss.Backend = crypto.Canonical(cfg.Security.Senss.Backend)
	payload, err := json.Marshal(struct {
		Workload string
		Size     workload.Size
		Config   machine.Config
	}{j.Workload, j.Size, cfg})
	if err != nil {
		// Config is a static value-struct tree; Marshal cannot fail on it.
		panic(fmt.Sprintf("farm: hashing job: %v", err))
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:16])
}

// String labels the job for progress lines and error messages.
func (j Job) String() string {
	sec := "base"
	if j.Config.Security.Mode != machine.SecurityOff {
		sec = "secured"
	}
	return fmt.Sprintf("%s/%dP/%dB/%s", j.Workload, j.Config.Procs, j.Config.Coherence.L2Size, sec)
}

// dedupe returns the jobs with duplicate hashes removed, preserving
// first-occurrence order, paired with each survivor's hash.
func dedupe(jobs []Job) ([]Job, []string) {
	seen := make(map[string]bool, len(jobs))
	unique := make([]Job, 0, len(jobs))
	hashes := make([]string, 0, len(jobs))
	for _, j := range jobs {
		h := j.Hash()
		if seen[h] {
			continue
		}
		seen[h] = true
		unique = append(unique, j)
		hashes = append(hashes, h)
	}
	return unique, hashes
}
