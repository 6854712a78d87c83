package serve

import (
	"fmt"

	"senss/internal/machine"
	"senss/internal/oracle"
	"senss/internal/stats"
	"senss/internal/workload"
)

// SessionSpec is the request body of POST /v1/sessions: the subset of
// machine.Config a tenant may choose, plus the workload to run. The
// mapping to a full machine.Config (Config) is a pure function, so a
// test can rebuild the exact configuration a served session used and
// replay it through driver.Run for a byte-identical cross-check.
type SessionSpec struct {
	Tenant   string `json:"tenant"`
	Workload string `json:"workload"`
	// Size selects the problem scale: "test" (default) or "bench".
	Size string `json:"size,omitempty"`
	// Procs is the processor count (default 2 — serving favors many
	// small machines over one big one).
	Procs int `json:"procs,omitempty"`
	// Security selects the protection mode: "base" (default), "senss",
	// "senss+mem", or "naive".
	Security string `json:"security,omitempty"`
	// Integrity adds the CHash tree (only with "senss+mem").
	Integrity bool `json:"integrity,omitempty"`
	// Crypto selects the block-cipher backend ("" = ref).
	Crypto string `json:"crypto,omitempty"`
	// Seed fixes machine randomness (0 = the library default).
	Seed uint64 `json:"seed,omitempty"`
	// Oracle attaches the lockstep differential checker; divergence
	// reports (redacted to SessionFP fingerprints) appear in stats.
	Oracle bool `json:"oracle,omitempty"`
	// Full keeps the paper's Figure 5 cache geometry. The default
	// (false) shrinks L1/L2/code to the bench-sim footprint so a host
	// can pack thousands of sessions.
	Full bool `json:"full,omitempty"`
}

// SizeVal parses the Size field.
func (s SessionSpec) SizeVal() (workload.Size, error) {
	switch s.Size {
	case "", "test":
		return workload.SizeTest, nil
	case "bench":
		return workload.SizeBench, nil
	}
	return 0, fmt.Errorf("serve: unknown size %q (want test or bench)", s.Size)
}

// Config maps the spec onto a full machine configuration. It is pure:
// the same spec always yields the same config.
func (s SessionSpec) Config() (machine.Config, error) {
	cfg := machine.DefaultConfig()
	cfg.Procs = 2
	if s.Procs != 0 {
		cfg.Procs = s.Procs
	}
	if !s.Full {
		cfg.SmallGeometry()
	}
	if s.Security != "" {
		mode, err := machine.ParseSecurityMode(s.Security)
		if err != nil {
			return cfg, fmt.Errorf("serve: %w", err)
		}
		cfg.Security.Mode = mode
		cfg.Security.Integrity = mode == machine.SecurityBusMem && s.Integrity
	}
	if s.Crypto != "" {
		cfg.Security.Senss.Backend = s.Crypto
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	cfg.Oracle = s.Oracle
	return cfg, nil
}

// Groups returns how many SHU group-table entries the session occupies
// in the service-wide accountant: one per secured machine (the default
// single group spanning its processors), none for the unprotected and
// naive baselines, which hold no SHU group.
func (s SessionSpec) Groups() int {
	switch s.Security {
	case "senss", "senss+mem":
		return 1
	}
	return 0
}

// SessionInfo is the response of session creation and listing.
type SessionInfo struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Workload string `json:"workload"`
	State    string `json:"state"`
	Groups   int    `json:"groups"`
	Cycles   uint64 `json:"cycles"`
	Steps    uint64 `json:"steps"`
}

// StepRequest is the (optional) body of POST /v1/sessions/{id}/step.
type StepRequest struct {
	// Cycles bounds the slice (0 = the server's default).
	Cycles uint64 `json:"cycles,omitempty"`
}

// StepResponse reports the outcome of one step.
type StepResponse struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Done   bool   `json:"done"`
	Cycles uint64 `json:"cycles"`
	Steps  uint64 `json:"steps"`
}

// StatsResponse is the payload of GET /v1/sessions/{id}/stats: the
// incremental measurement snapshot, and — once attached and diverged —
// the redacted oracle report.
type StatsResponse struct {
	ID       string         `json:"id"`
	Tenant   string         `json:"tenant"`
	Workload string         `json:"workload"`
	State    string         `json:"state"`
	Done     bool           `json:"done"`
	Cycles   uint64         `json:"cycles"`
	Steps    uint64         `json:"steps"`
	Stats    stats.Run      `json:"stats"`
	Oracle   *oracle.Report `json:"oracle,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// ServerStats is the payload of GET /v1/server: table occupancy, group
// accounting, and pool pressure.
type ServerStats struct {
	Sessions       int            `json:"sessions"`
	ByState        map[string]int `json:"by_state"`
	GroupsInUse    int            `json:"groups_in_use"`
	GroupCapacity  int            `json:"group_capacity"`
	GroupsByTenant map[string]int `json:"groups_by_tenant"`
	TenantQuota    int            `json:"tenant_quota"`
	Evicted        uint64         `json:"evicted"`
	InFlight       int            `json:"in_flight"`
	Workers        int            `json:"workers"`
	Backlog        int            `json:"backlog"`
}

// ErrorResponse is the uniform error envelope. Code is machine-readable:
// bad_request, too_large, not_found, session_paused, groups_exhausted,
// overloaded, internal.
type ErrorResponse struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSec mirrors the Retry-After header on overload responses.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}
