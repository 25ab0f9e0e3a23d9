// Package app describes target applications in the terms of the paper's
// problem formulation (Table 1): an application is partitioned into p
// modules, each performing a unique function; module i must execute f_i
// operations per job, each consuming E_i picojoules of computation energy,
// and modules cooperate by exchanging fixed-length packets.
//
// The package provides the AES cipher application evaluated in the paper
// (the default driver for et_sim) as well as a builder for custom
// applications used by the examples and ablation studies.
package app

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/aes"
)

// ModuleID identifies an application module. IDs are 1-based to match the
// paper's notation (module i, 1 <= i <= p).
type ModuleID int

// Module is one application module (an IP core mapped onto one or more
// nodes).
type Module struct {
	// ID is the 1-based module index.
	ID ModuleID
	// Name is a human-readable label, e.g. "SubBytes/ShiftRows".
	Name string
	// OpsPerJob is f_i: the number of operations the module performs per job.
	OpsPerJob int
	// EnergyPerOpPJ is E_i: the computation energy per operation in pJ.
	EnergyPerOpPJ float64
}

// Application is the static description of a partitioned target application.
type Application struct {
	// Name labels the application, e.g. "AES-128".
	Name string
	// Modules lists the p distinct modules; Modules[i] has ID i+1.
	Modules []Module
	// Flow is the operation sequence of one job in data-flow order: Flow[k]
	// is the module that performs the k-th operation. The number of
	// occurrences of module i in Flow must equal Modules[i-1].OpsPerJob.
	Flow []ModuleID
	// PacketBits is the fixed packet length (in bits) exchanged between
	// modules, including any header overhead.
	PacketBits int
}

// Validation errors.
var (
	ErrNoModules     = errors.New("app: application has no modules")
	ErrBadModuleID   = errors.New("app: module IDs must be 1..p in order")
	ErrBadOpCount    = errors.New("app: flow operation counts disagree with OpsPerJob")
	ErrBadFlow       = errors.New("app: flow references an unknown module")
	ErrBadEnergy     = errors.New("app: module energy must be positive and finite")
	ErrBadPacketBits = errors.New("app: packet size must be positive")
	ErrEmptyFlow     = errors.New("app: flow must contain at least one operation")

	errNoOps = errors.New("app: operation count must be positive")
)

// Validate checks internal consistency of the application description.
func (a *Application) Validate() error {
	if len(a.Modules) == 0 {
		return ErrNoModules
	}
	if a.PacketBits <= 0 {
		return fmt.Errorf("%w: %d", ErrBadPacketBits, a.PacketBits)
	}
	if len(a.Flow) == 0 {
		return ErrEmptyFlow
	}
	for i, m := range a.Modules {
		if m.ID != ModuleID(i+1) {
			return fmt.Errorf("%w: Modules[%d].ID = %d", ErrBadModuleID, i, m.ID)
		}
		if !(m.EnergyPerOpPJ > 0) || math.IsInf(m.EnergyPerOpPJ, 1) {
			return fmt.Errorf("%w: module %d has E = %g", ErrBadEnergy, m.ID, m.EnergyPerOpPJ)
		}
		if m.OpsPerJob <= 0 {
			return fmt.Errorf("%w: module %d has f = %d", errNoOps, m.ID, m.OpsPerJob)
		}
	}
	counts := make(map[ModuleID]int)
	for k, id := range a.Flow {
		if int(id) < 1 || int(id) > len(a.Modules) {
			return fmt.Errorf("%w: Flow[%d] = %d", ErrBadFlow, k, id)
		}
		counts[id]++
	}
	for _, m := range a.Modules {
		if counts[m.ID] != m.OpsPerJob {
			return fmt.Errorf("%w: module %d appears %d times in flow, OpsPerJob = %d",
				ErrBadOpCount, m.ID, counts[m.ID], m.OpsPerJob)
		}
	}
	return nil
}

// NumModules returns p, the number of distinct modules.
func (a *Application) NumModules() int { return len(a.Modules) }

// Module returns the module with the given 1-based ID.
func (a *Application) Module(id ModuleID) (Module, error) {
	if int(id) < 1 || int(id) > len(a.Modules) {
		return Module{}, fmt.Errorf("%w: %d", ErrBadFlow, id)
	}
	return a.Modules[id-1], nil
}

// OperationsPerJob returns the total number of operations per job
// (the length of the flow, i.e. sum of f_i).
func (a *Application) OperationsPerJob() int { return len(a.Flow) }

// PaperAESEnergies are the per-operation computation energies measured by the
// authors for their 0.16 um Verilog implementations at 100 MHz (Sec 5.1.1).
var PaperAESEnergies = [3]float64{120.1, 73.34, 176.55}

// DefaultPacketBits is the fixed packet length used by the reproduction.
// The paper does not state the packet size; 261 bits (a 256-bit payload
// carrying the 128-bit state plus round-key/control fields and a small
// header) is the calibration for which the Theorem-1 upper bound matches the
// paper's Table 2 values (see DESIGN.md).
const DefaultPacketBits = 261

// AES module IDs according to the paper's partitioning (Sec 5.1.1).
const (
	ModuleSubBytesShiftRows ModuleID = 1
	ModuleMixColumns        ModuleID = 2
	ModuleAddRoundKey       ModuleID = 3
)

// ModuleForOp maps an AES operation kind onto the module that executes it.
func ModuleForOp(kind aes.OpKind) (ModuleID, error) {
	switch kind {
	case aes.OpSubBytesShiftRows:
		return ModuleSubBytesShiftRows, nil
	case aes.OpMixColumns:
		return ModuleMixColumns, nil
	case aes.OpAddRoundKey:
		return ModuleAddRoundKey, nil
	default:
		return 0, fmt.Errorf("app: unknown AES operation kind %d", kind)
	}
}

// AES returns the application description for the AES cipher with the given
// key size, using the paper's module partitioning, per-operation energies and
// the default packet size. For AES-128 this reproduces Table 1's
// f = (10, 9, 11).
func AES(size aes.KeySize) (*Application, error) {
	steps, err := aes.EncryptionSteps(size)
	if err != nil {
		return nil, err
	}
	flow := make([]ModuleID, len(steps))
	counts := make(map[ModuleID]int)
	for i, s := range steps {
		id, err := ModuleForOp(s.Kind)
		if err != nil {
			return nil, err
		}
		flow[i] = id
		counts[id]++
	}
	a := &Application{
		Name: size.String(),
		Modules: []Module{
			{ID: ModuleSubBytesShiftRows, Name: "SubBytes/ShiftRows", OpsPerJob: counts[ModuleSubBytesShiftRows], EnergyPerOpPJ: PaperAESEnergies[0]},
			{ID: ModuleMixColumns, Name: "MixColumns", OpsPerJob: counts[ModuleMixColumns], EnergyPerOpPJ: PaperAESEnergies[1]},
			{ID: ModuleAddRoundKey, Name: "KeyExpansion/AddRoundKey", OpsPerJob: counts[ModuleAddRoundKey], EnergyPerOpPJ: PaperAESEnergies[2]},
		},
		Flow:       flow,
		PacketBits: DefaultPacketBits,
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// AES128 returns the 128-bit AES application, the paper's driver application.
func AES128() *Application {
	a, err := AES(aes.Key128)
	if err != nil {
		panic("app: AES-128 application construction failed: " + err.Error())
	}
	return a
}

// Builder incrementally constructs a custom application. It is used by the
// examples (e.g. a health-monitoring pipeline) and by ablation studies that
// vary module counts and energies.
type Builder struct {
	name       string
	modules    []Module
	flow       []ModuleID
	packetBits int
	err        error
}

// NewBuilder starts a new application description.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, packetBits: DefaultPacketBits}
}

// AddModule appends a module with the given name and per-operation energy.
// The operation count f_i is derived from the flow when Build is called.
// It returns the new module's ID.
func (b *Builder) AddModule(name string, energyPerOpPJ float64) ModuleID {
	id := ModuleID(len(b.modules) + 1)
	b.modules = append(b.modules, Module{ID: id, Name: name, EnergyPerOpPJ: energyPerOpPJ})
	return id
}

// PacketBits overrides the packet size.
func (b *Builder) PacketBits(bits int) *Builder {
	b.packetBits = bits
	return b
}

// Step appends one operation of the given module to the job flow.
func (b *Builder) Step(id ModuleID) *Builder {
	b.flow = append(b.flow, id)
	return b
}

// Repeat appends the given sub-flow n times, which is convenient for round-
// structured applications such as ciphers and filters.
func (b *Builder) Repeat(n int, ids ...ModuleID) *Builder {
	for i := 0; i < n; i++ {
		b.flow = append(b.flow, ids...)
	}
	return b
}

// Build finalises and validates the application.
func (b *Builder) Build() (*Application, error) {
	if b.err != nil {
		return nil, b.err
	}
	mods := make([]Module, len(b.modules))
	copy(mods, b.modules)
	counts := make(map[ModuleID]int)
	for _, id := range b.flow {
		counts[id]++
	}
	for i := range mods {
		mods[i].OpsPerJob = counts[mods[i].ID]
	}
	a := &Application{
		Name:       b.name,
		Modules:    mods,
		Flow:       append([]ModuleID(nil), b.flow...),
		PacketBits: b.packetBits,
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
