package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestCanonicalDefaultsCollapse checks the core normalization property: a
// spec that spells the paper defaults out encodes identically to one that
// leaves them zero.
func TestCanonicalDefaultsCollapse(t *testing.T) {
	bare := Spec{Mesh: 4}
	explicit := Spec{
		Name:             "some-name", // identity fields never enter the encoding
		Description:      "words",
		Group:            "group",
		Mesh:             4,
		Algorithm:        AlgorithmEAR,
		EARQ:             2,
		BatteryLevels:    8,
		Battery:          BatteryThinFilm,
		Mapping:          MappingCheckerboard,
		MappingSeed:      99, // inert: checkerboard ignores the seed
		Controllers:      1,
		ControlPlane:     "centralized",
		Recompute:        "incremental",
		ConcurrentJobs:   1,
		FailedLinkSeed:   7, // inert: no failed-link fraction
		CollectNodeStats: false,
	}
	a, err := bare.CanonicalJSON()
	if err != nil {
		t.Fatalf("bare: %v", err)
	}
	b, err := explicit.CanonicalJSON()
	if err != nil {
		t.Fatalf("explicit: %v", err)
	}
	if string(a) != string(b) {
		t.Fatalf("default-elided and default-explicit specs encode differently:\n%s\n%s", a, b)
	}

	fa, _ := bare.Fingerprint()
	fb, _ := explicit.Fingerprint()
	if fa != fb {
		t.Fatalf("fingerprints differ: %s vs %s", fa, fb)
	}
}

// TestCanonicalDistinguishesConfigurations checks the other direction: every
// simulation-relevant field change must move the fingerprint.
func TestCanonicalDistinguishesConfigurations(t *testing.T) {
	base := Spec{Mesh: 4}
	variants := []Spec{
		{Mesh: 5},
		{Mesh: 4, Algorithm: AlgorithmSDR},
		{Mesh: 4, EARQ: 3},
		{Mesh: 4, Battery: BatteryIdeal},
		{Mesh: 4, Mapping: MappingRandom, MappingSeed: 1},
		{Mesh: 4, Mapping: MappingRandom, MappingSeed: 2},
		{Mesh: 4, Controllers: 2},
		{Mesh: 4, ControlPlane: "sharded"},
		{Mesh: 4, Recompute: "full"},
		{Mesh: 4, FiniteControllers: true},
		{Mesh: 4, ConcurrentJobs: 2},
		{Mesh: 4, FailedLinkFraction: 0.1, FailedLinkSeed: 1},
		{Mesh: 4, Faults: "link=0.05:8,seed=1"},
		{Mesh: 4, VerifyPayload: true},
		{Mesh: 4, CollectNodeStats: true},
		{Mesh: 4, MaxCycles: 1000},
	}
	bf, err := base.Fingerprint()
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	seen := map[Fingerprint]int{bf: -1}
	for i, v := range variants {
		f, err := v.Fingerprint()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[f]; dup {
			t.Errorf("variant %d collides with variant %d: %s", i, prev, f)
		}
		seen[f] = i
	}
}

// TestCanonicalGoldenFingerprints pins the cache keys of representative
// registered scenarios. These values are the on-disk identity of every cached
// result: if this test fails, the canonical encoding changed, existing disk
// caches went stale, and fingerprintDomain must be bumped — do not just
// update the constants without doing that.
func TestCanonicalGoldenFingerprints(t *testing.T) {
	golden := map[string]string{
		"paper-default":       "ee2b830a6e9ac740621e70e9fa19acbf5752d3c9e55d65b9dac7bdb117692842",
		"paper-sdr":           "db3e95040bccc9bc8e362dbc64b3a358c4a6e4125626fac0ea166cc280082bc4",
		"smartshirt-verified": "0e546773b846e407a64a4be3ccf60ecc97d0904650511d42ffea24479be53bc5",
		"sharded-8x8":         "6b12732666961f665cc4bfe1acfb27a92740a35430d78823e82c491e1c6903dd",
		"chaos-storm":         "03b8982c6400dbb0e2f4ab9f15e3db5946322fef2bf327a3c5391db4a0710237",
		"big-mesh-16":         "207b562dc72090b628b118d04c81a5cc151db5b25d8bba18d88fdaeab2ae7eb9",
	}
	for name, want := range golden {
		sp, ok := Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		f, err := sp.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.String() != want {
			t.Errorf("%s fingerprint drifted:\n got  %s\n want %s", name, f, want)
		}
	}
}

// TestParseSpecJSONRoundTrip checks encode→decode→encode is the identity on
// every registered scenario.
func TestParseSpecJSONRoundTrip(t *testing.T) {
	for _, sp := range All() {
		// Round-trip through the full (non-canonical) JSON of the spec, the
		// form clients are expected to submit.
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("%s: marshal: %v", sp.Name, err)
		}
		back, err := ParseSpecJSON(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", sp.Name, err)
		}
		want, err := sp.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", sp.Name, err)
		}
		got, err := back.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical after round trip: %v", sp.Name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: canonical form changed across a JSON round trip:\n%s\n%s", sp.Name, want, got)
		}
	}
}

// TestParseSpecJSONFieldOrderIndependent decodes the same spec with its
// fields in two different orders.
func TestParseSpecJSONFieldOrderIndependent(t *testing.T) {
	a := []byte(`{"Mesh":5,"Algorithm":"SDR","ConcurrentJobs":3}`)
	b := []byte(`{"ConcurrentJobs":3,"Algorithm":"SDR","Mesh":5}`)
	spA, err := ParseSpecJSON(a)
	if err != nil {
		t.Fatalf("a: %v", err)
	}
	spB, err := ParseSpecJSON(b)
	if err != nil {
		t.Fatalf("b: %v", err)
	}
	fa, _ := spA.Fingerprint()
	fb, _ := spB.Fingerprint()
	if fa != fb {
		t.Fatalf("field order changed the fingerprint: %s vs %s", fa, fb)
	}
}

// TestParseSpecJSONRejectsUnknownFields: a typoed field must be an error, not
// a silently different scenario.
func TestParseSpecJSONRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpecJSON([]byte(`{"Mesh":4,"Allgorithm":"SDR"}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), "Allgorithm") {
		t.Fatalf("error does not name the offending field: %v", err)
	}
	if _, err := ParseSpecJSON([]byte(`{"Mesh":4} {"Mesh":5}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

// TestNormalizedClearsInertFields checks the fields a configuration ignores
// cannot split the cache.
func TestNormalizedClearsInertFields(t *testing.T) {
	// SDR ignores the EAR knobs.
	sdr1 := Spec{Mesh: 4, Algorithm: AlgorithmSDR, EARQ: 3, BatteryLevels: 16}
	sdr2 := Spec{Mesh: 4, Algorithm: AlgorithmSDR}
	f1, _ := sdr1.Fingerprint()
	f2, _ := sdr2.Fingerprint()
	if f1 != f2 {
		t.Error("SDR spec split by inert EAR knobs")
	}
	// A non-random mapping ignores the mapping seed.
	m1 := Spec{Mesh: 4, MappingSeed: 123}
	m2 := Spec{Mesh: 4}
	f1, _ = m1.Fingerprint()
	f2, _ = m2.Fingerprint()
	if f1 != f2 {
		t.Error("checkerboard spec split by inert mapping seed")
	}
	// The fault-schedule clause form is canonicalised.
	c1 := Spec{Mesh: 4, Faults: "seed=1,link=0.05:8"}
	c2 := Spec{Mesh: 4, Faults: "link=0.05:8,seed=1"}
	f1, e1 := c1.Fingerprint()
	f2, e2 := c2.Fingerprint()
	if e1 != nil || e2 != nil {
		t.Fatalf("fault canonicalisation errored: %v %v", e1, e2)
	}
	if f1 != f2 {
		t.Error("equivalent fault clause spellings split the cache")
	}
	// So is an explicit placement: spaces, a plus sign and leading zeros
	// spell the same assignment.
	p1 := Spec{Mesh: 4, Mapping: MappingExplicit, Assignment: "1,2,3,1,3,1,3,2,3,1,3,3,2,3,2,1"}
	p2 := Spec{Mesh: 4, Mapping: MappingExplicit, Assignment: " 1,2,3,1,3,1,3,2,3,1,3,3,2,3,2,+01"}
	f1, e1 = p1.Fingerprint()
	f2, e2 = p2.Fingerprint()
	if e1 != nil || e2 != nil {
		t.Fatalf("assignment canonicalisation errored: %v %v", e1, e2)
	}
	if f1 != f2 {
		t.Error("equivalent explicit assignment spellings split the cache")
	}
	if _, err := (Spec{Mesh: 4, Mapping: MappingExplicit, Assignment: "1,x"}).Fingerprint(); err == nil {
		t.Error("a malformed explicit assignment canonicalised")
	}
}
