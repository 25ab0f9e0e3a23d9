package main

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// parseSpec runs etsim's flag → scenario.Spec translation on args.
func parseSpec(t *testing.T, args ...string) (scenario.Spec, error) {
	t.Helper()
	o := newOptions()
	if err := o.parse(args); err != nil {
		t.Fatal(err)
	}
	return o.spec()
}

func fingerprint(t *testing.T, sp scenario.Spec) string {
	t.Helper()
	f, err := sp.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return f.String()
}

func registered(t *testing.T, name string) scenario.Spec {
	t.Helper()
	sp, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q is not registered", name)
	}
	return sp
}

// TestFlagsToSpec pins the translation by canonical fingerprint: the ad-hoc
// flags describe the same simulation as the equivalent registered or
// hand-written spec, and the override flags land on a named scenario.
func TestFlagsToSpec(t *testing.T) {
	everyFlag := scenario.Spec{
		Mesh:              6,
		EARQ:              3,
		Battery:           scenario.BatteryIdeal,
		Controllers:       3,
		FiniteControllers: true,
		ConcurrentJobs:    2,
		ControlPlane:      "sharded",
		Shards:            2,
		StalenessFrames:   4,
		Recompute:         "full",
		Faults:            "link=0.05:8,seed=7",
		VerifyPayload:     true,
		CollectNodeStats:  true,
		MaxCycles:         5000,
	}
	shardedDefault := registered(t, "paper-default")
	shardedDefault.ControlPlane = "sharded"
	shardedDefault.Shards = 2
	mapped := registered(t, "paper-default")
	mapped.Mapping = scenario.MappingRowMajor
	mapped.MappingSeed, mapped.FailedLinkSeed = 9, 9

	for _, tc := range []struct {
		name string
		args []string
		want scenario.Spec
	}{
		{"defaults", []string{"-mesh", "4"}, registered(t, "paper-default")},
		{"no flags", nil, registered(t, "paper-default")},
		{"sdr", []string{"-mesh", "4", "-alg", "SDR"}, registered(t, "paper-sdr")},
		{"lower-case sdr", []string{"-mesh", "4", "-alg", "sdr"}, registered(t, "paper-sdr")},
		{"lower-case ear", []string{"-alg", "ear"}, registered(t, "paper-default")},
		{"zero means default", []string{"-controllers", "0", "-jobs", "0", "-ear-q", "0"}, registered(t, "paper-default")},
		{"every ad-hoc flag", []string{
			"-mesh", "6", "-alg", "EAR", "-ear-q", "3", "-battery", "ideal",
			"-controllers", "3", "-controller-battery", "-jobs", "2",
			"-controlplane", "sharded", "-shards", "2", "-staleness", "4", "-recompute", "full",
			"-faults", "seed=7,link=0.05:8", "-verify", "-v", "-max-cycles", "5000",
		}, everyFlag},
		{"named with plane override", []string{"-scenario", "paper-default", "-controlplane", "sharded", "-shards", "2"}, shardedDefault},
		{"named with mapping and seed", []string{"-scenario", "paper-default", "-mapping", "rowmajor", "-seed", "9"}, mapped},
		{"zero max cycles keeps the scenario's", []string{"-scenario", "big-mesh-16", "-max-cycles", "0"}, registered(t, "big-mesh-16")},
		{"sharded defaults", []string{"-mesh", "8", "-controlplane", "sharded"}, scenario.Spec{Mesh: 8, ControlPlane: "sharded"}},
		{"sharded defaults spelled out", []string{"-mesh", "8", "-controlplane", "sharded", "-shards", "4", "-staleness", "1"},
			scenario.Spec{Mesh: 8, ControlPlane: "sharded"}},
		{"defaults spelled out", []string{"-mesh", "4", "-controllers", "1", "-jobs", "1", "-ear-q", "2", "-recompute", "incremental"},
			registered(t, "paper-default")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseSpec(t, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(t, got) != fingerprint(t, tc.want) {
				g, _ := got.CanonicalJSON()
				w, _ := tc.want.CanonicalJSON()
				t.Fatalf("flags %q give\n%s\nwant\n%s", tc.args, g, w)
			}
			if _, err := got.Strategy(); err != nil {
				t.Fatalf("flags %q: %v", tc.args, err)
			}
		})
	}
}

// TestFlagsRejected covers the flag combinations etsim refuses to run,
// whether the translation or the spec's own validation catches them.
func TestFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-scenario", "paper-default", "-mesh", "8"}, "conflicting flag(s) [-mesh]"},
		{[]string{"-scenario", "paper-default", "-mesh", "8", "-alg", "SDR"}, "conflicting flag(s) [-alg -mesh]"},
		{[]string{"-scenario", "paper-default", "-ear-q", "3"}, "conflicting flag(s) [-ear-q]"},
		{[]string{"-scenario", "no-such-scenario"}, "unknown scenario"},
		{[]string{"-mesh", "4", "-seed", "3"}, "require -scenario"},
		{[]string{"-mapping", "random"}, "require -scenario"},
		{[]string{"-ear-q", "1e-20"}, "EAR Q"},
		{[]string{"-ear-q", "-1"}, "EAR Q"},
		{[]string{"-ear-q", "1e10"}, "EAR Q"},
		{[]string{"-alg", "foo"}, "unknown algorithm"},
		{[]string{"-battery", "lead"}, "unknown battery model"},
		{[]string{"-jobs", "-1"}, "concurrent job count"},
		{[]string{"-controllers", "-1"}, "controller count"},
		{[]string{"-shards", "4"}, "sharded control plane"},
		{[]string{"-controlplane", "mesh"}, "unknown control plane"},
		{[]string{"-recompute", "eager"}, "unknown recompute strategy"},
		{[]string{"-max-cycles", "-5"}, "max cycles must be non-negative"},
		{[]string{"-shards", "-3"}, "shard count must be non-negative"},
		{[]string{"-controlplane", "sharded", "-shards", "-3"}, "shard count must be non-negative"},
		{[]string{"-controlplane", "sharded", "-staleness", "-2"}, "staleness bound must be non-negative"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			sp, err := parseSpec(t, tc.args...)
			if err == nil {
				_, err = sp.Strategy()
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("flags %q: error %v, want one containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}
