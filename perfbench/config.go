package main

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// config is config.json: the calibration BENCHMARK.json has no room
// for. It is embedded in the binary.
type config struct {
	// HeldoutSeed is a seed not used while the benchmark was tuned; a
	// change claiming a gain must also win on it.
	HeldoutSeed int64 `json:"heldout_seed"`
	// CalibrationHost describes the host the rates, ladders, limits and
	// BENCHMARK.json's bounds were calibrated on.
	CalibrationHost map[string]any `json:"calibration_host"`
	Paper           paperConfig    `json:"paper"`
	ServeUnique     serveConfig    `json:"serve_unique"`
	ServeRepeat     serveConfig    `json:"serve_repeat"`
	// Moves names, for each per-layer metric, the end-to-end metrics it
	// should move and on which workloads.
	Moves map[string][]string `json:"per_layer_moves"`
}

// paperConfig pins the paper workload's corpora and their answers.
type paperConfig struct {
	// CorpusSeeds are the dataset seeds a --seed maps onto (by its
	// residue); HeldoutCorpusSeed is used for the held-out seed only.
	// They are the seeds among 1-57 whose corpus has 51.1-52.4 M
	// nonzeros, a median matrix of 9.9-11.0 k nonzeros and a common
	// subset of 1475-1500 matrices (the n Table 9 trains at): the seed
	// changes which matrices a run sees, not how much work they make.
	CorpusSeeds       []int64 `json:"corpus_seeds"`
	HeldoutCorpusSeed int64   `json:"heldout_corpus_seed"`
	// Digests maps a corpus seed to its answer digests.
	Digests map[string]paperDigests `json:"digests"`
}

// paperDigests are SHA-256 digests of one corpus seed's answers.
type paperDigests struct {
	Corpus     string `json:"corpus"`
	Table3     string `json:"table3"`
	Table8     string `json:"table8"`
	Selections string `json:"selections"`
}

// serveConfig calibrates one serve workload.
type serveConfig struct {
	// NominalRPS is the open-loop rate a traced run reads loadgen.p50_ms,
	// loadgen.p99_ms and loadgen.late_ms_max at.
	NominalRPS float64 `json:"nominal_rps"`
	// LadderRPS are the ascending rates max_rps is searched over.
	LadderRPS []float64 `json:"ladder_rps"`
	// P99LimitMs is the latency limit of the ladder rule.
	P99LimitMs float64 `json:"p99_limit_ms"`
	// RoundRequests is the length of one closed-loop round; wall_s is
	// the median round. serve_repeat runs one rollout per round.
	RoundRequests int `json:"round_requests"`
	// Pool sizes the request pool: Items matrices generated at Scale
	// whose MatrixMarket text is between MinKB and MaxKB.
	PoolItems int     `json:"pool_items"`
	PoolScale float64 `json:"pool_scale"`
	MinKB     int     `json:"min_kb"`
	MaxKB     int     `json:"max_kb"`
}

func loadConfig(data []byte) (*config, error) {
	var c config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("parsing config.json: %w", err)
	}
	if len(c.Paper.CorpusSeeds) == 0 {
		return nil, fmt.Errorf("config.json: paper needs corpus_seeds")
	}
	for _, s := range []serveConfig{c.ServeUnique, c.ServeRepeat} {
		if s.NominalRPS <= 0 || len(s.LadderRPS) == 0 || s.P99LimitMs <= 0 || s.PoolItems <= 0 || s.RoundRequests < 1 {
			return nil, fmt.Errorf("config.json: incomplete serve workload calibration")
		}
	}
	return &c, nil
}

// corpusSeed maps a workload seed onto a paper corpus whose answers are
// recorded, so every run checks Tables 3 and 8 against a reference.
func (c *config) corpusSeed(seed int64) int64 {
	if seed == c.HeldoutSeed {
		return c.Paper.HeldoutCorpusSeed
	}
	n := int64(len(c.Paper.CorpusSeeds))
	return c.Paper.CorpusSeeds[((seed%n)+n)%n]
}

// digests returns the recorded answers of a corpus seed.
func (c *config) digests(corpusSeed int64) (paperDigests, bool) {
	d, ok := c.Paper.Digests[strconv.FormatInt(corpusSeed, 10)]
	return d, ok
}
