package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/app"
	"repro/internal/controlplane"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/routing"
)

// This file defines the spec's canonical byte encoding and content
// fingerprint — the identity under which results are memoized. The contract,
// relied on by internal/serve's content-addressed store:
//
//   - Two specs that describe the same simulation (after filling defaults and
//     clearing fields their configuration ignores) encode to the same bytes
//     and therefore the same fingerprint, even if one spelled the defaults
//     out and the other left them zero.
//   - Only a spec Strategy can build has an encoding. Normalizing is where a
//     spec is checked, so a spec Strategy rejects (SDR with a negative
//     BatteryLevels, say, which clearing the inert field would otherwise
//     turn into the plain SDR spec) never shares a valid spec's cache key.
//   - The identity fields (Name, Description, Group) are display metadata and
//     never enter the encoding: registering the same configuration under two
//     names yields one cache entry.
//   - The encoding is versioned through the fingerprint's domain string; any
//     future change to the canonical form must bump it so stale disk caches
//     can never alias new results.
//
// The golden-fingerprint tests in canonical_test.go pin the encoding: a
// refactor that silently changes cache keys fails there, not in production.

// fingerprintDomain versions the canonical encoding. Bump on any change to
// canonicalSpec or the normalization rules, and whenever the result a spec
// produces changes: v2 marks the full pass picking first hops by argmin,
// which moves some incremental runs at an inexact EAR Q.
const fingerprintDomain = "repro/scenario/v2\n"

// Fingerprint is the content address of a spec: a SHA-256 over the canonical
// byte encoding, domain-separated per spec kind.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// canonicalSpec is the fixed-shape encoding target: Spec's exact field list,
// so a Spec converts to it, with the identity fields hidden from the
// encoding. Every simulation-relevant field is always present, in
// declaration order; encoding/json marshals struct fields in exactly this
// order with deterministic number formatting, which is what makes the bytes
// canonical. A field added to Spec but not here breaks the conversion in
// CanonicalJSON at compile time instead of silently sharing cache keys.
type canonicalSpec struct {
	Name        string `json:"-"`
	Description string `json:"-"`
	Group       string `json:"-"`

	Mesh               int
	Algorithm          string
	EARQ               float64
	BatteryLevels      int
	Battery            string
	Mapping            string
	MappingSeed        uint64
	Assignment         string
	Controllers        int
	ControlPlane       string
	Shards             int
	StalenessFrames    int
	Recompute          string
	FiniteControllers  bool
	ConcurrentJobs     int
	FailedLinkFraction float64
	FailedLinkSeed     uint64
	Faults             string
	VerifyPayload      bool
	CollectNodeStats   bool
	MaxCycles          int64
}

// Normalized checks the spec and returns it with every defaultable field
// filled in and every field its configuration ignores cleared, so that
// semantically identical specs become structurally identical. The identity
// fields are preserved untouched. It accepts exactly the specs Strategy
// builds: an out-of-range value, an unknown name, or a fault schedule or
// placement that does not parse or does not fit the platform is an error,
// so a fingerprint always names a runnable spec.
func (sp Spec) Normalized() (Spec, error) {
	n, _, err := sp.normalize()
	return n, err
}

// parsed holds a normalized spec's text fields in parsed form, so Strategy
// parses each once.
type parsed struct {
	schedule  faults.Spec
	placement mapping.Explicit
}

// normalize is the one place a spec is checked. It range-checks the raw
// spec, fills defaults and clears inert fields, canonicalises the text
// fields, then checks the normalized spec against the platform it names.
func (sp Spec) normalize() (Spec, parsed, error) {
	fail := func(err error) (Spec, parsed, error) {
		return Spec{}, parsed{}, fmt.Errorf("scenario %s: %w", sp.Label(), err)
	}
	switch {
	case sp.Mesh < 1:
		return fail(fmt.Errorf("mesh size must be at least 1, got %d", sp.Mesh))
	case sp.Controllers < 0:
		return fail(fmt.Errorf("controller count must be non-negative (0 defaults to 1), got %d", sp.Controllers))
	case sp.ConcurrentJobs < 0:
		return fail(fmt.Errorf("concurrent job count must be non-negative (0 defaults to 1), got %d", sp.ConcurrentJobs))
	case sp.BatteryLevels < 0:
		return fail(fmt.Errorf("battery level count must be non-negative (0 = algorithm default), got %d", sp.BatteryLevels))
	case sp.MaxCycles < 0:
		return fail(fmt.Errorf("max cycles must be non-negative (0 = run to system death), got %d", sp.MaxCycles))
	case !(sp.FailedLinkFraction >= 0 && sp.FailedLinkFraction < 1):
		// The negated range test also rejects NaN.
		return fail(fmt.Errorf("failed link fraction must be in [0,1), got %g", sp.FailedLinkFraction))
	}

	n := sp
	var p parsed
	if n.Algorithm == "" {
		n.Algorithm = AlgorithmEAR
	}
	switch n.Algorithm {
	case AlgorithmEAR:
		// The zero values mean "paper default"; write the defaults out so an
		// explicit default and an elided one share an identity.
		params := routing.DefaultEARParams()
		if n.EARQ == 0 {
			n.EARQ = params.Q
		}
		if n.BatteryLevels == 0 {
			n.BatteryLevels = params.Levels
		}
	case AlgorithmSDR:
		// SDR reads neither knob; clear them so they cannot split the cache.
		n.EARQ = 0
		n.BatteryLevels = 0
	}
	if n.Battery == "" {
		n.Battery = BatteryThinFilm
	}
	if n.Mapping == "" {
		n.Mapping = MappingCheckerboard
	}
	if n.Mapping != MappingRandom {
		n.MappingSeed = 0
	}
	if n.Mapping != MappingExplicit {
		n.Assignment = ""
	} else {
		ex, err := mapping.ParseExplicit(n.Assignment)
		if err != nil {
			return fail(err)
		}
		// String() drops the spaces, signs and leading zeros ParseExplicit
		// accepts, so two spellings of one placement agree.
		n.Assignment = ex.String()
		p.placement = ex
	}
	if n.Controllers == 0 {
		n.Controllers = 1
	}
	kind, err := controlplane.ParseKind(n.ControlPlane)
	if err != nil {
		return fail(err)
	}
	n.ControlPlane = string(kind)
	if kind == controlplane.KindSharded {
		if n.Shards == 0 {
			n.Shards = controlplane.DefaultShards
		}
		if n.StalenessFrames == 0 {
			n.StalenessFrames = 1
		}
	}
	mode, err := controlplane.ParseRecompute(n.Recompute)
	if err != nil {
		return fail(err)
	}
	n.Recompute = mode.String()
	if n.ConcurrentJobs == 0 {
		n.ConcurrentJobs = 1
	}
	if n.FailedLinkFraction == 0 {
		n.FailedLinkSeed = 0
	}
	if n.Faults != "" {
		if p.schedule, err = faults.ParseSpec(n.Faults); err != nil {
			return fail(err)
		}
		// String() is the clause form's canonical spelling (fixed clause
		// order, no redundant fields), so two spellings of one schedule agree.
		n.Faults = p.schedule.String()
	}

	switch n.Algorithm {
	case AlgorithmEAR:
		if err := n.earParams().Validate(); err != nil {
			return fail(err)
		}
	case AlgorithmSDR:
	default:
		return Spec{}, parsed{}, fmt.Errorf("scenario: unknown algorithm %q (want %s or %s)",
			n.Algorithm, AlgorithmEAR, AlgorithmSDR)
	}
	if n.Battery != BatteryThinFilm && n.Battery != BatteryIdeal {
		return fail(fmt.Errorf("unknown battery model %q (want %s or %s)", n.Battery, BatteryThinFilm, BatteryIdeal))
	}
	control := n.control()
	if err := control.Validate(n.Mesh * n.Mesh); err != nil {
		return fail(err)
	}
	if err := p.schedule.Validate(control.ShardCount()); err != nil {
		return fail(err)
	}
	switch n.Mapping {
	case MappingCheckerboard, MappingProportional, MappingRowMajor, MappingRandom:
	case MappingExplicit:
		if err := p.placement.Validate(n.Mesh*n.Mesh, app.AES128()); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("unknown mapping %q (want one of: %s)", n.Mapping, strings.Join(MappingNames(), ", ")))
	}
	return n, p, nil
}

// CanonicalJSON returns the spec's canonical byte encoding: the normalized
// simulation-relevant fields as JSON in fixed field order. Byte equality of
// two encodings is semantic equality of the specs.
func (sp Spec) CanonicalJSON() ([]byte, error) {
	n, err := sp.Normalized()
	if err != nil {
		return nil, err
	}
	return json.Marshal(canonicalSpec(n))
}

// Fingerprint returns the spec's content address: SHA-256 over the domain
// string and the canonical encoding. It is the cache key under which
// internal/serve memoizes this spec's sim.Result.
func (sp Spec) Fingerprint() (Fingerprint, error) {
	enc, err := sp.CanonicalJSON()
	if err != nil {
		return Fingerprint{}, err
	}
	h := sha256.New()
	h.Write([]byte(fingerprintDomain))
	h.Write(enc)
	var f Fingerprint
	h.Sum(f[:0])
	return f, nil
}

// ParseSpecJSON decodes a spec from client-supplied JSON, strictly: unknown
// fields are rejected (a typoed field name must not silently run a different
// scenario than the client asked for), field order is irrelevant, and
// trailing data is an error. Keys match the exported field names of Spec
// (case-insensitively, as encoding/json does).
func ParseSpecJSON(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec JSON")
	}
	return sp, nil
}
