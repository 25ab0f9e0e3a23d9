package app

import (
	"errors"
	"math"
	"testing"

	"repro/internal/aes"
)

func TestAES128MatchesTable1(t *testing.T) {
	a := AES128()
	if a.Name != "AES-128" {
		t.Errorf("Name = %q, want AES-128", a.Name)
	}
	if a.NumModules() != 3 {
		t.Fatalf("NumModules = %d, want 3", a.NumModules())
	}
	wantOps := map[ModuleID]int{
		ModuleSubBytesShiftRows: 10,
		ModuleMixColumns:        9,
		ModuleAddRoundKey:       11,
	}
	wantEnergy := map[ModuleID]float64{
		ModuleSubBytesShiftRows: 120.1,
		ModuleMixColumns:        73.34,
		ModuleAddRoundKey:       176.55,
	}
	for id, ops := range wantOps {
		m := a.Modules[id-1]
		if m.OpsPerJob != ops {
			t.Errorf("module %d OpsPerJob = %d, want %d", id, m.OpsPerJob, ops)
		}
		if m.EnergyPerOpPJ != wantEnergy[id] {
			t.Errorf("module %d energy = %g, want %g", id, m.EnergyPerOpPJ, wantEnergy[id])
		}
	}
	if a.OperationsPerJob() != 30 {
		t.Errorf("OperationsPerJob = %d, want 30", a.OperationsPerJob())
	}
	if a.PacketBits != DefaultPacketBits {
		t.Errorf("PacketBits = %d, want %d", a.PacketBits, DefaultPacketBits)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAES128FlowStructure(t *testing.T) {
	a := AES128()
	flow := a.Flow
	if flow[0] != ModuleAddRoundKey {
		t.Errorf("first operation = %d, want AddRoundKey (3)", flow[0])
	}
	if flow[len(flow)-1] != ModuleAddRoundKey {
		t.Errorf("last operation = %d, want AddRoundKey (3)", flow[len(flow)-1])
	}
	// Middle rounds repeat the pattern 1, 2, 3.
	for round := 0; round < 9; round++ {
		base := 1 + 3*round
		if flow[base] != ModuleSubBytesShiftRows ||
			flow[base+1] != ModuleMixColumns ||
			flow[base+2] != ModuleAddRoundKey {
			t.Fatalf("round %d flow = %v, want [1 2 3]", round+1, flow[base:base+3])
		}
	}
}

func TestAESOtherKeySizes(t *testing.T) {
	for _, tc := range []struct {
		size       aes.KeySize
		m1, m2, m3 int
	}{
		{aes.Key192, 12, 11, 13},
		{aes.Key256, 14, 13, 15},
	} {
		a, err := AES(tc.size)
		if err != nil {
			t.Fatalf("AES(%v): %v", tc.size, err)
		}
		if a.Modules[0].OpsPerJob != tc.m1 ||
			a.Modules[1].OpsPerJob != tc.m2 ||
			a.Modules[2].OpsPerJob != tc.m3 {
			t.Errorf("%v ops = (%d,%d,%d), want (%d,%d,%d)", tc.size,
				a.Modules[0].OpsPerJob, a.Modules[1].OpsPerJob, a.Modules[2].OpsPerJob,
				tc.m1, tc.m2, tc.m3)
		}
	}
	if _, err := AES(aes.KeySize(99)); err == nil {
		t.Error("AES with invalid key size should fail")
	}
}

func TestModuleForOp(t *testing.T) {
	cases := map[aes.OpKind]ModuleID{
		aes.OpSubBytesShiftRows: ModuleSubBytesShiftRows,
		aes.OpMixColumns:        ModuleMixColumns,
		aes.OpAddRoundKey:       ModuleAddRoundKey,
	}
	for kind, want := range cases {
		got, err := ModuleForOp(kind)
		if err != nil || got != want {
			t.Errorf("ModuleForOp(%v) = %d, %v; want %d", kind, got, err, want)
		}
	}
	if _, err := ModuleForOp(aes.OpKind(77)); err == nil {
		t.Error("unknown op kind accepted")
	}
}

func TestModuleLookup(t *testing.T) {
	a := AES128()
	if _, err := a.Module(0); !errors.Is(err, ErrBadFlow) {
		t.Errorf("Module(0) error = %v, want ErrBadFlow", err)
	}
	if _, err := a.Module(4); !errors.Is(err, ErrBadFlow) {
		t.Errorf("Module(4) error = %v, want ErrBadFlow", err)
	}
	m, err := a.Module(2)
	if err != nil || m.Name != "MixColumns" {
		t.Errorf("Module(2) = %+v, %v", m, err)
	}
}

func TestValidateCatchesInconsistencies(t *testing.T) {
	valid := AES128()
	cases := []struct {
		name   string
		mutate func(a *Application)
		want   error
	}{
		{"no modules", func(a *Application) { a.Modules = nil }, ErrNoModules},
		{"bad packet bits", func(a *Application) { a.PacketBits = 0 }, ErrBadPacketBits},
		{"empty flow", func(a *Application) { a.Flow = nil }, ErrEmptyFlow},
		{"bad module id", func(a *Application) { a.Modules[1].ID = 7 }, ErrBadModuleID},
		{"zero energy", func(a *Application) { a.Modules[0].EnergyPerOpPJ = 0 }, ErrBadEnergy},
		{"negative energy", func(a *Application) { a.Modules[0].EnergyPerOpPJ = -3 }, ErrBadEnergy},
		{"NaN energy", func(a *Application) { a.Modules[0].EnergyPerOpPJ = math.NaN() }, ErrBadEnergy},
		{"infinite energy", func(a *Application) { a.Modules[1].EnergyPerOpPJ = math.Inf(1) }, ErrBadEnergy},
		{"zero ops", func(a *Application) { a.Modules[2].OpsPerJob = 0 }, errNoOps},
		{"negative ops", func(a *Application) { a.Modules[0].OpsPerJob = -4 }, errNoOps},
		{"flow unknown module", func(a *Application) { a.Flow[5] = 9 }, ErrBadFlow},
		{"flow count mismatch", func(a *Application) { a.Flow[1] = ModuleAddRoundKey }, ErrBadOpCount},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := *valid
			a.Modules = append([]Module(nil), valid.Modules...)
			a.Flow = append([]ModuleID(nil), valid.Flow...)
			tc.mutate(&a)
			if err := a.Validate(); !errors.Is(err, tc.want) {
				t.Errorf("Validate = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestBuilderConstructsValidApplication(t *testing.T) {
	b := NewBuilder("health-monitor")
	sample := b.AddModule("sample-filter", 45.0)
	feature := b.AddModule("feature-extract", 150.0)
	classify := b.AddModule("classifier", 310.0)
	appl, err := b.PacketBits(128).
		Repeat(8, sample, feature).
		Step(classify).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if appl.NumModules() != 3 {
		t.Fatalf("NumModules = %d, want 3", appl.NumModules())
	}
	if appl.Modules[sample-1].OpsPerJob != 8 ||
		appl.Modules[feature-1].OpsPerJob != 8 ||
		appl.Modules[classify-1].OpsPerJob != 1 {
		t.Errorf("ops per job = %d/%d/%d, want 8/8/1",
			appl.Modules[sample-1].OpsPerJob,
			appl.Modules[feature-1].OpsPerJob,
			appl.Modules[classify-1].OpsPerJob)
	}
	if appl.OperationsPerJob() != 17 {
		t.Errorf("OperationsPerJob = %d, want 17", appl.OperationsPerJob())
	}
	if appl.PacketBits != 128 {
		t.Errorf("PacketBits = %d, want 128", appl.PacketBits)
	}
	if appl.Modules[sample-1].EnergyPerOpPJ != 45 ||
		appl.Modules[feature-1].EnergyPerOpPJ != 150 ||
		appl.Modules[classify-1].EnergyPerOpPJ != 310 {
		t.Errorf("energies per op = %g/%g/%g, want 45/150/310",
			appl.Modules[sample-1].EnergyPerOpPJ,
			appl.Modules[feature-1].EnergyPerOpPJ,
			appl.Modules[classify-1].EnergyPerOpPJ)
	}
}

func TestBuilderRejectsUnusedModule(t *testing.T) {
	b := NewBuilder("broken")
	used := b.AddModule("used", 10)
	b.AddModule("never-used", 20)
	if _, err := b.Step(used).Build(); err == nil {
		t.Fatal("Build should fail when a module never appears in the flow")
	}
}

func TestBuilderRejectsEmptyFlow(t *testing.T) {
	b := NewBuilder("empty")
	b.AddModule("m", 10)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build with empty flow should fail")
	}
}

func TestBuilderRejectsBadPacketBits(t *testing.T) {
	b := NewBuilder("bad-packet")
	m := b.AddModule("m", 10)
	if _, err := b.PacketBits(-1).Step(m).Build(); err == nil {
		t.Fatal("Build with negative packet bits should fail")
	}
}
