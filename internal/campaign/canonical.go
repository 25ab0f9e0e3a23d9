package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
)

// campaignDomain versions the campaign canonical encoding, separating its
// fingerprint space from scenario fingerprints: a campaign of one replicate
// never aliases the bare scenario's cache entry (their results have different
// shapes). Bump on any change to canonicalCampaign or to what it includes,
// and with the scenario domain whenever a scenario's result changes.
const campaignDomain = "repro/campaign/v2\n"

// canonicalCampaign is the fixed-shape encoding target for campaign specs.
// The embedded scenario is its canonical encoding, so every scenario-level
// normalization rule applies transitively.
type canonicalCampaign struct {
	Scenario     json.RawMessage
	Replications int
	Seed         uint64
}

// CanonicalJSON returns the campaign's canonical byte encoding.
func (sp Spec) CanonicalJSON() ([]byte, error) {
	scen, err := sp.Scenario.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	return json.Marshal(canonicalCampaign{
		Scenario:     scen,
		Replications: sp.Replications,
		Seed:         sp.Seed,
	})
}

// Fingerprint returns the campaign's content address: SHA-256 over the
// campaign domain string and the canonical encoding — the key under which
// internal/serve memoizes the campaign's aggregate summary.
func (sp Spec) Fingerprint() (scenario.Fingerprint, error) {
	enc, err := sp.CanonicalJSON()
	if err != nil {
		return scenario.Fingerprint{}, err
	}
	h := sha256.New()
	h.Write([]byte(campaignDomain))
	h.Write(enc)
	var f scenario.Fingerprint
	h.Sum(f[:0])
	return f, nil
}

// ParseSpecJSON decodes a campaign spec from client-supplied JSON, strictly:
// unknown fields anywhere (including inside the nested scenario) are
// rejected, field order is irrelevant, trailing data is an error.
func ParseSpecJSON(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("campaign: decoding spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("campaign: trailing data after spec JSON")
	}
	return sp, nil
}
