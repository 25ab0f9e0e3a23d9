package main

import _ "embed"

// The correctness goldens, recorded at the default seed before the
// benchmark existed. Every operation of a run is checked against them.
var (
	// goldenSweep is `etbench -workers 1` stdout: every default experiment
	// at the paper's mesh sizes.
	//go:embed testdata/paper-sweep.txt
	goldenSweep string

	// goldenMesh16 is the SHA-256 of the big-mesh-16 sim.Result JSON.
	//go:embed testdata/mesh-16.sha256
	goldenMesh16 string

	// goldenChaos holds, one per line, the SHA-256 of the sim.Result JSON
	// of the default seed's chaos schedules (fault seeds 1 to 8).
	//go:embed testdata/chaos-8x8.sha256
	goldenChaos string

	// goldenServeHot holds, one per line, the POST /simulate response body
	// of each hot spec, in hotSpecs order.
	//go:embed testdata/serve-hot.jsonl
	goldenServeHot string
)
