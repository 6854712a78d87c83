package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"senss/internal/crypto"
	"senss/internal/machine"
	"senss/internal/stats"
	"senss/internal/workload"
)

// goldenFile is the repository's conformance table: the full stats.Run of
// every golden workload × variant cell. The sim workloads check every run
// against it; the benchmark keeps no expected table of its own.
const goldenFile = "testdata/golden_cycles.json"

// variant is one column of the golden table.
type variant struct {
	label   string // golden key suffix, e.g. "senss/stdlib"
	mode    machine.SecurityMode
	backend string
}

var (
	variantBase  = variant{"base", machine.SecurityOff, ""}
	variantSenss = variant{"senss/stdlib", machine.SecurityBus, crypto.Stdlib}
	variantMem   = variant{"senss+mem/ref", machine.SecurityBusMem, crypto.Ref}
)

// simVariants lists the golden variants each sim workload runs.
var simVariants = map[string][]variant{
	wlSplash:     {variantBase, variantSenss},
	wlMemprotect: {variantMem},
}

// cell is one golden simulation: a paper kernel under one variant.
type cell struct {
	kernel  string
	variant variant
	cfg     machine.Config
	want    []byte // compact JSON of the golden stats.Run
}

func (c cell) key() string { return c.kernel + "/" + c.variant.label }

// goldenConfig is the conformance geometry of golden_cycles_test.go: four
// processors, 4 KiB L1, 64 KiB L2, 2 KiB of code, perfect masks and an
// authentication interval of 100, with the differential oracle off.
func goldenConfig(v variant) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Procs = 4
	cfg.Coherence.L1Size = 4 << 10
	cfg.Coherence.L2Size = 64 << 10
	cfg.CPU.CodeBytes = 2 << 10
	cfg.Security.Mode = v.mode
	cfg.Security.Senss.Backend = v.backend
	cfg.Security.Senss.Perfect = true
	cfg.Security.Senss.AuthInterval = 100
	if v.mode == machine.SecurityBusMem {
		cfg.Security.Integrity = true
	}
	return cfg
}

// loadGolden reads the golden table under root.
func loadGolden(root string) (map[string]json.RawMessage, error) {
	raw, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, fmt.Errorf("loading golden table: %w", err)
	}
	var table map[string]json.RawMessage
	if err := json.Unmarshal(raw, &table); err != nil {
		return nil, fmt.Errorf("loading golden table: %w", err)
	}
	return table, nil
}

// simCells builds the cells of a sim workload: the five paper kernels
// under each of its variants, each paired with its golden record. A
// missing record is an error, never a skipped cell.
func simCells(wl string, golden map[string]json.RawMessage) ([]cell, error) {
	variants, ok := simVariants[wl]
	if !ok {
		return nil, fmt.Errorf("%s is not a sim workload", wl)
	}
	var cells []cell
	for _, k := range workload.PaperSuite() {
		for _, v := range variants {
			c := cell{kernel: k, variant: v, cfg: goldenConfig(v)}
			raw, ok := golden[c.key()]
			if !ok {
				return nil, fmt.Errorf("golden table has no cell %s", c.key())
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, raw); err != nil {
				return nil, fmt.Errorf("golden cell %s: %w", c.key(), err)
			}
			c.want = compact.Bytes()
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// sameRun compares run with the expected record after a JSON round trip:
// every field of stats.Run must match byte for byte.
func sameRun(what string, run stats.Run, want []byte) error {
	got, err := json.Marshal(run)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: stats diverge from the expected record\n got: %s\nwant: %s", what, got, want)
	}
	return nil
}

// simOps is the simulated work of a run: retired loads, stores and RMWs.
func simOps(r stats.Run) uint64 { return r.Loads + r.Stores + r.RMWs }
