package scenario

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/stats"
)

// The registry of named scenarios. Built-ins are registered at package
// initialisation; applications may Register more at any time.
var (
	regMu    sync.RWMutex
	registry = make(map[string]Spec)
)

// Register adds a named scenario to the registry. The spec must carry a
// non-empty, unused Name.
func Register(sp Spec) error {
	if sp.Name == "" {
		return fmt.Errorf("scenario: cannot register a spec without a name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, exists := registry[sp.Name]; exists {
		return fmt.Errorf("scenario: %q is already registered", sp.Name)
	}
	registry[sp.Name] = sp
	return nil
}

// MustRegister is Register for static scenario definitions.
func MustRegister(sp Spec) {
	if err := Register(sp); err != nil {
		panic(err)
	}
}

// Lookup returns the named scenario.
func Lookup(name string) (Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	sp, ok := registry[name]
	return sp, ok
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns every registered scenario, sorted by name.
func All() []Spec {
	names := Names()
	regMu.RLock()
	defer regMu.RUnlock()
	specs := make([]Spec, 0, len(names))
	for _, name := range names {
		specs = append(specs, registry[name])
	}
	return specs
}

// Info is the machine-readable registry entry behind `etsim -list-scenarios
// -json` and etserve's GET /scenarios: everything a client needs to discover
// and submit a workload without scraping table output.
type Info struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Group       string `json:"group"`
	Mesh        int    `json:"mesh"`
	Algorithm   string `json:"algorithm"`
	// Fingerprint is the spec's content address (see Spec.Fingerprint) — the
	// key its cached results live under, so clients can correlate listings
	// with store entries.
	Fingerprint string `json:"fingerprint"`
}

// Infos returns every registered scenario as a machine-readable entry, sorted
// by name. Scenarios whose spec cannot be fingerprinted (none of the
// built-ins) report an empty fingerprint rather than failing the listing.
func Infos() []Info {
	specs := All()
	infos := make([]Info, 0, len(specs))
	for _, sp := range specs {
		info := Info{
			Name:        sp.Name,
			Description: sp.Description,
			Group:       sp.Group,
			Mesh:        sp.Mesh,
			Algorithm:   displayAlgorithm(sp),
		}
		if f, err := sp.Fingerprint(); err == nil {
			info.Fingerprint = f.String()
		}
		infos = append(infos, info)
	}
	return infos
}

// The built-in group names, in listing order. GroupedTables appends any
// group registered by applications after these, and the unnamed group last.
const (
	GroupPaper     = "paper figures"
	GroupAblation  = "ablations"
	GroupStress    = "stress & degradation"
	GroupMC        = "monte-carlo cells"
	GroupOptimized = "optimized placements"
	GroupSharded   = "sharded control plane"
	GroupChaos     = "chaos & runtime faults"
	GroupBigMesh   = "big mesh"
)

// GroupedTables renders the registry as one stats table per scenario group
// (the body of every CLI's `-list-scenarios`): built-in groups first in their
// canonical order, then application-registered groups in first-seen order,
// then scenarios without a group under "other".
func GroupedTables() []*stats.Table {
	order := []string{GroupPaper, GroupAblation, GroupStress, GroupMC, GroupOptimized, GroupSharded, GroupChaos, GroupBigMesh}
	known := make(map[string]bool, len(order))
	for _, g := range order {
		known[g] = true
	}
	byGroup := make(map[string][]Spec)
	for _, sp := range All() {
		byGroup[sp.Group] = append(byGroup[sp.Group], sp)
		if sp.Group != "" && !known[sp.Group] {
			known[sp.Group] = true
			order = append(order, sp.Group)
		}
	}
	order = append(order, "")
	var tables []*stats.Table
	for _, group := range order {
		specs := byGroup[group]
		if len(specs) == 0 {
			continue
		}
		title := group
		if title == "" {
			title = "other"
		}
		t := stats.NewTable(title, "name", "mesh", "algorithm", "description")
		for _, sp := range specs {
			t.AddRow(sp.Name, fmt.Sprintf("%dx%d", sp.Mesh, sp.Mesh), displayAlgorithm(sp), sp.Description)
		}
		tables = append(tables, t)
	}
	return tables
}

func displayAlgorithm(sp Spec) string {
	if sp.Algorithm == "" {
		return AlgorithmEAR
	}
	return sp.Algorithm
}

// The built-in scenarios: the configurations behind the paper's figures and
// tables, plus stress and degradation workloads that exercise the parts of
// the stack the paper only sketches.
func init() {
	builtins := []Spec{
		{
			Name:        "paper-default",
			Group:       GroupPaper,
			Description: "Fig 7 baseline: EAR on the 4x4 mesh, thin-film batteries, one infinite-energy controller",
			Mesh:        4,
		},
		{
			Name:        "paper-sdr",
			Group:       GroupPaper,
			Description: "Fig 7 counterpart: shortest-distance routing on the otherwise identical 4x4 platform",
			Mesh:        4,
			Algorithm:   AlgorithmSDR,
		},
		{
			Name:        "paper-large",
			Group:       GroupPaper,
			Description: "Fig 7 largest point: EAR on the 8x8 mesh (64 nodes)",
			Mesh:        8,
		},
		{
			Name:        "table2-ideal",
			Group:       GroupPaper,
			Description: "Table 2 configuration: EAR with ideal batteries on the 4x4 mesh, compared against Theorem 1",
			Mesh:        4,
			Battery:     BatteryIdeal,
		},
		{
			Name:              "fig8-controllers",
			Group:             GroupPaper,
			Description:       "Fig 8 midpoint: EAR on the 5x5 mesh with 4 battery-powered controllers",
			Mesh:              5,
			Controllers:       4,
			FiniteControllers: true,
		},
		{
			Name:              "dual-controller-finite",
			Group:             GroupPaper,
			Description:       "controller redundancy study: 4x4 mesh with 2 battery-powered controllers (Sec 7.3)",
			Mesh:              4,
			Controllers:       2,
			FiniteControllers: true,
		},
		{
			Name:             "smartshirt-verified",
			Group:            GroupPaper,
			Description:      "the Fig 3a smart shirt: 6x6 mesh carrying real AES blocks, every ciphertext verified",
			Mesh:             6,
			VerifyPayload:    true,
			CollectNodeStats: true,
		},
		{
			Name:           "stress-burst",
			Group:          GroupStress,
			Description:    "heavy traffic: 6x6 mesh with 4 concurrent jobs contending for single-job buffers",
			Mesh:           6,
			ConcurrentJobs: 4,
		},
		{
			Name:           "stress-burst-sdr",
			Group:          GroupStress,
			Description:    "heavy traffic under SDR: 6x6 mesh, 4 concurrent jobs, no battery awareness",
			Mesh:           6,
			Algorithm:      AlgorithmSDR,
			ConcurrentJobs: 4,
		},
		{
			Name:               "degraded-fabric",
			Group:              GroupStress,
			Description:        "wear-and-tear: 5x5 mesh with 20% of the woven interconnects broken (seed 1)",
			Mesh:               5,
			FailedLinkFraction: 0.2,
			FailedLinkSeed:     1,
		},
		{
			Name:               "degraded-fabric-sdr",
			Group:              GroupStress,
			Description:        "wear-and-tear under SDR: the same damaged 5x5 fabric routed without battery awareness",
			Mesh:               5,
			Algorithm:          AlgorithmSDR,
			FailedLinkFraction: 0.2,
			FailedLinkSeed:     1,
		},
		{
			Name:        "ear-blind",
			Group:       GroupAblation,
			Description: "ablation A1 endpoint: EAR with Q=1, which ignores battery levels entirely",
			Mesh:        4,
			EARQ:        1,
		},
		{
			Name:        "proportional-mapping",
			Group:       GroupAblation,
			Description: "ablation A2: 6x6 mesh mapped with the Theorem-1 proportional duplicate counts",
			Mesh:        6,
			Mapping:     MappingProportional,
		},
		{
			Name:        "random-mapping",
			Group:       GroupAblation,
			Description: "ablation A2 baseline: 5x5 mesh with a seeded random module placement",
			Mesh:        5,
			Mapping:     MappingRandom,
			MappingSeed: 1,
		},
		// Replication-oriented scenarios: their specs differ only by the
		// seed-derived fields (MappingSeed, FailedLinkSeed), which a
		// Monte-Carlo campaign re-draws per replicate from its seed stream.
		// Run singly they are one draw; under `etcampaign` they are a
		// distribution with error bars.
		{
			Name:        "random-mapping-sweep",
			Group:       GroupMC,
			Description: "Monte-Carlo cell: EAR on a 6x6 mesh with random module placement, re-drawn per replicate",
			Mesh:        6,
			Mapping:     MappingRandom,
			MappingSeed: 1,
		},
		{
			Name:        "random-mapping-sweep-sdr",
			Group:       GroupMC,
			Description: "Monte-Carlo cell: the same random-placement 6x6 mesh under SDR, for replicated EAR/SDR gaps",
			Mesh:        6,
			Algorithm:   AlgorithmSDR,
			Mapping:     MappingRandom,
			MappingSeed: 1,
		},
		{
			Name:               "degraded-fabric-mc",
			Group:              GroupMC,
			Description:        "Monte-Carlo cell: 5x5 mesh with 15% failed links, the fault pattern re-drawn per replicate",
			Mesh:               5,
			FailedLinkFraction: 0.15,
			FailedLinkSeed:     1,
		},
		// Optimized placements discovered by the internal/optimize search
		// (produced by `etopt -emit-spec`, multi-restart annealing over the
		// sim objective: -strategy anneal -objective sim -budget 300
		// -restarts 6 -seed 1). The explicit assignments replay the exact
		// winners, so campaigns and traces run on searched placements out of
		// the box; compare against paper-default / paper-sdr for the searched
		// vs fixed-mapping gap.
		{
			Name:        "optimized-4x4",
			Group:       GroupOptimized,
			Description: "searched placement: EAR on the 4x4 mesh with the etopt-optimized explicit mapping (87 vs 71 jobs checkerboard)",
			Mesh:        4,
			Mapping:     MappingExplicit,
			Assignment:  "1,2,3,1,3,1,3,2,3,1,3,3,2,3,2,1",
		},
		{
			Name:        "optimized-4x4-sdr",
			Group:       GroupOptimized,
			Description: "searched placement: SDR on the 4x4 mesh with the etopt-optimized explicit mapping (71 vs 10 jobs checkerboard)",
			Mesh:        4,
			Algorithm:   AlgorithmSDR,
			Mapping:     MappingExplicit,
			Assignment:  "3,2,1,3,1,3,3,2,2,3,3,1,3,1,2,3",
		},
		// Sharded control-plane scenarios: regional controllers on contiguous
		// row bands of the mesh, exchanging battery summaries only every
		// StalenessFrames frames (see internal/controlplane).
		{
			Name:            "sharded-8x8",
			Group:           GroupSharded,
			Description:     "sharded control: EAR on the 8x8 mesh with 4 regional controllers exchanging summaries every 8 frames",
			Mesh:            8,
			ControlPlane:    "sharded",
			Shards:          4,
			StalenessFrames: 8,
		},
		{
			Name:            "sharded-8x8-stale",
			Group:           GroupSharded,
			Description:     "staleness stress: the sharded 8x8 mesh with a 32-frame summary-exchange period",
			Mesh:            8,
			ControlPlane:    "sharded",
			Shards:          4,
			StalenessFrames: 32,
		},
		{
			Name:              "sharded-finite-controllers",
			Group:             GroupSharded,
			Description:       "Fig 8 extension: sharded 6x6 mesh where each of 4 regions runs 2 battery-powered controllers",
			Mesh:              6,
			ControlPlane:      "sharded",
			Shards:            4,
			StalenessFrames:   8,
			Controllers:       2,
			FiniteControllers: true,
		},
		{
			Name:               "degraded-random-mc",
			Group:              GroupMC,
			Description:        "Monte-Carlo cell: random placement on a damaged 5x5 fabric, both draws re-seeded per replicate",
			Mesh:               5,
			Mapping:            MappingRandom,
			MappingSeed:        1,
			FailedLinkFraction: 0.1,
			FailedLinkSeed:     1,
		},
		// Chaos scenarios: runtime fault schedules applied mid-run (see
		// internal/faults). Every schedule is a pure function of its seed, so
		// these runs are exactly as reproducible as the fault-free ones; under
		// `etcampaign` the schedule seed is re-drawn per replicate from the
		// Transient channel.
		{
			Name:        "chaos-links",
			Group:       GroupChaos,
			Description: "transient link faults: 6x6 mesh where a random interconnect vanishes ~5% of frames and heals after 8",
			Mesh:        6,
			Faults:      "link=0.05:8,seed=1",
		},
		{
			Name:        "chaos-crashes",
			Group:       GroupChaos,
			Description: "node crash/restore cycles: 6x6 mesh where a node crashes ~3% of frames and restores after 12",
			Mesh:        6,
			Faults:      "crash=0.03:12,seed=1",
		},
		{
			Name:        "chaos-wear",
			Group:       GroupChaos,
			Description: "traversal wear: 6x6 mesh whose links break for good after ~150 packet traversals (Weibull k=2)",
			Mesh:        6,
			Faults:      "wear=150,seed=1",
		},
		{
			Name:        "chaos-blackout",
			Group:       GroupChaos,
			Description: "controller blackout: 4x4 mesh whose central controller goes dark for frames 30-60 (last-known-good tables)",
			Mesh:        4,
			Faults:      "kill=0@30:60",
		},
		{
			Name:            "chaos-region-failover",
			Group:           GroupChaos,
			Description:     "shard failover: sharded 8x8 mesh where region 1 dies at frame 40 and returns at 120; neighbours adopt its nodes",
			Mesh:            8,
			ControlPlane:    "sharded",
			Shards:          4,
			StalenessFrames: 8,
			Faults:          "kill=1@40:120",
		},
		{
			Name:            "chaos-storm",
			Group:           GroupChaos,
			Description:     "everything at once: sharded 8x8 mesh under link faults, crashes, wear and a region kill window",
			Mesh:            8,
			ControlPlane:    "sharded",
			Shards:          4,
			StalenessFrames: 8,
			Faults:          "link=0.05:8,crash=0.02:12,wear=4000,kill=2@60:140,seed=1",
		},
		// Big-mesh scenarios: platforms far beyond the paper's 8x8 ceiling,
		// tractable because the controller's phase 2 runs as an incremental
		// dirty-set repair instead of a full Floyd–Warshall pass per change
		// (see internal/routing.DeltaWorkspace). MaxCycles bounds both so a
		// run finishes in bounded time; they are sweeps over the early-life
		// battery-drain regime, not runs to system death.
		{
			Name:        "big-mesh-16",
			Group:       GroupBigMesh,
			Description: "scaling: EAR on the 16x16 mesh (256 nodes), incremental recompute, bounded to 200 frames",
			Mesh:        16,
			MaxCycles:   200 * 1024,
		},
		{
			Name:        "big-mesh-64",
			Group:       GroupBigMesh,
			Description: "scaling: EAR on the 64x64 mesh (4096 nodes); one full pass at start-up, incremental repairs after",
			Mesh:        64,
			MaxCycles:   50 * 1024,
		},
	}
	for _, sp := range builtins {
		MustRegister(sp)
	}
}
