package fleet

import (
	"errors"
	"testing"

	"parade/internal/harness"
	"parade/internal/hlrc"
)

// TestJobSpecPolicyField covers the protocol-policy knob end to end:
// validation, job identity, config construction (including the derived
// directive threshold), and matrix expansion.
func TestJobSpecPolicyField(t *testing.T) {
	// Every accepted policy name validates; an unknown one is a typed
	// field error.
	for _, pol := range hlrc.PolicyNames() {
		s := validSpec()
		s.Policy = pol
		if err := s.Validate(); err != nil {
			t.Fatalf("policy %q: Validate() = %v", pol, err)
		}
	}
	bad := validSpec()
	bad.Policy = "eager"
	var se *JobSpecError
	if err := bad.Validate(); !errors.As(err, &se) || len(se.Fields) != 1 || se.Fields[0].Field != "policy" {
		t.Fatalf("unknown policy: Validate() = %v, want one policy field error", bad.Validate())
	}

	// The policy is part of job identity; the legacy empty string
	// fingerprints like the pre-policy schema so old job caches stay
	// valid.
	base, adp := validSpec(), validSpec()
	adp.Policy = hlrc.PolicyAdaptive
	if base.Fingerprint() == adp.Fingerprint() {
		t.Fatal("adaptive policy did not change the job fingerprint")
	}

	// BuildConfig wires the policy through and re-derives the directive
	// threshold for policied jobs (AutoThreshold), leaving legacy jobs'
	// configs untouched.
	cfgBase, err := base.Normalize().BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfgAdp, err := adp.Normalize().BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfgAdp.Policy != hlrc.PolicyAdaptive {
		t.Fatalf("BuildConfig policy = %q", cfgAdp.Policy)
	}
	if cfgBase.Policy != "" {
		t.Fatalf("legacy BuildConfig policy = %q, want empty", cfgBase.Policy)
	}
	if cfgAdp.SmallThreshold == cfgBase.SmallThreshold {
		t.Fatalf("adaptive job kept the fixed threshold %d; AutoThreshold never fired", cfgAdp.SmallThreshold)
	}

	// Matrix expansion: Policies multiplies the grid; omitting it keeps
	// the legacy single-policy expansion.
	m := harness.Matrix{
		Apps: []string{"ep"}, Modes: []string{"hybrid"},
		Policies: []string{"", hlrc.PolicyAdaptive},
	}
	specs := m.Expand()
	if len(specs) != 2 {
		t.Fatalf("Expand() produced %d specs, want 2", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		seen[s.Policy] = true
	}
	if !seen[""] || !seen[hlrc.PolicyAdaptive] {
		t.Fatalf("expanded policies = %v", seen)
	}
}
