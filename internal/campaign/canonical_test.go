package campaign

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestCampaignFingerprintDistinguishes: every aggregate-relevant field must
// move the fingerprint, including scenario-level changes through the nested
// canonical encoding.
func TestCampaignFingerprintDistinguishes(t *testing.T) {
	base := Spec{Scenario: scenario.Spec{Mesh: 4}, Replications: 10, Seed: 7}
	variants := []Spec{
		{Scenario: scenario.Spec{Mesh: 4}, Replications: 11, Seed: 7},
		{Scenario: scenario.Spec{Mesh: 4}, Replications: 10, Seed: 8},
		{Scenario: scenario.Spec{Mesh: 5}, Replications: 10, Seed: 7},
		{Scenario: scenario.Spec{Mesh: 4, Algorithm: scenario.AlgorithmSDR}, Replications: 10, Seed: 7},
	}
	bf, err := base.Fingerprint()
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	seen := map[scenario.Fingerprint]int{bf: -1}
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

// TestCampaignFingerprintDomainSeparation: a campaign over a scenario must
// never share a cache key with the bare scenario — their cached values have
// different shapes.
func TestCampaignFingerprintDomainSeparation(t *testing.T) {
	scen := scenario.Spec{Mesh: 4}
	camp := Spec{Scenario: scen, Replications: 1, Seed: 0}
	sf, err := scen.Fingerprint()
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	cf, err := camp.Fingerprint()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if sf == cf {
		t.Fatalf("campaign and scenario fingerprints alias: %s", sf)
	}
}

// TestCampaignGoldenFingerprint pins one campaign cache key. Like the scenario
// golden fingerprints, a drift here means existing disk caches went stale and
// campaignDomain must be bumped — do not just update the constant.
func TestCampaignGoldenFingerprint(t *testing.T) {
	sp, ok := scenario.Lookup("paper-default")
	if !ok {
		t.Fatal("paper-default not registered")
	}
	camp := Spec{Scenario: sp, Replications: 32, Seed: 42}
	f, err := camp.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	const want = "db64e9e05cb8a2dc004a67c9119d494ba2e90e9229c3647932f81d91f6e74ed6"
	if f.String() != want {
		t.Errorf("campaign fingerprint drifted:\n got  %s\n want %s", f, want)
	}
}

// TestCampaignParseSpecJSON checks strict decoding: round trip, unknown fields
// at the top level AND inside the nested scenario, trailing data.
func TestCampaignParseSpecJSON(t *testing.T) {
	good := []byte(`{"Scenario":{"Mesh":4,"Algorithm":"SDR"},"Replications":5,"Seed":9}`)
	sp, err := ParseSpecJSON(good)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if sp.Scenario.Mesh != 4 || sp.Scenario.Algorithm != scenario.AlgorithmSDR ||
		sp.Replications != 5 || sp.Seed != 9 {
		t.Fatalf("round trip lost fields: %+v", sp)
	}

	if _, err := ParseSpecJSON([]byte(`{"Scenario":{"Mesh":4},"Replicationz":5}`)); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
	// The batch size is internal: a spec cannot set it.
	if _, err := ParseSpecJSON([]byte(`{"Scenario":{"Mesh":4},"Replications":5,"BatchSize":2}`)); err == nil {
		t.Fatal("BatchSize field accepted")
	}
	_, err = ParseSpecJSON([]byte(`{"Scenario":{"Mesh":4,"Allgorithm":"SDR"},"Replications":5}`))
	if err == nil {
		t.Fatal("unknown nested scenario field accepted")
	}
	if !strings.Contains(err.Error(), "Allgorithm") {
		t.Fatalf("error does not name the offending nested field: %v", err)
	}
	if _, err := ParseSpecJSON([]byte(`{"Scenario":{"Mesh":4},"Replications":1} junk`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

// TestCampaignWithContextCancel is the dispatch-promptness contract: under an
// already-cancelled context no replicate may start, and Run returns the
// context's error instead of a partial aggregate. One 64x64 replicate
// simulates for many seconds, so a campaign that started any of its
// replicates could not return before the deadline.
func TestCampaignWithContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp := Spec{Scenario: scenario.Spec{Mesh: 64}, Replications: 64, Seed: 1}
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, newPool(2), sp)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled campaign simulated a replicate")
	}
}
