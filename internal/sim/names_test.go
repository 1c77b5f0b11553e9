package sim

import (
	"fmt"
	"strings"
	"testing"

	"paydemand/internal/demand"
	"paydemand/internal/incentive"
)

// checkParseRoundTrips checks that parse maps every kind's String back
// to the kind, that the names are distinct, and that an unknown name is
// rejected with an error naming every valid kind.
func checkParseRoundTrips[K interface {
	comparable
	fmt.Stringer
}](t *testing.T, kinds []K, parse func(string) (K, error)) {
	t.Helper()
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if seen[name] {
			t.Errorf("two kinds named %q", name)
		}
		seen[name] = true
		got, err := parse(name)
		if err != nil || got != k {
			t.Errorf("parse(%q) = %v, %v; want %v", name, got, err, k)
		}
	}
	_, err := parse("bogus")
	if err == nil {
		t.Fatal("parse(bogus) accepted")
	}
	for _, k := range kinds {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("error %q does not name %q", err, k)
		}
	}
}

func TestParseMechanismRoundTrips(t *testing.T) {
	checkParseRoundTrips(t, mechanismKinds, ParseMechanism)
}

func TestParseAlgorithmRoundTrips(t *testing.T) {
	checkParseRoundTrips(t, algorithmKinds, ParseAlgorithm)
}

func TestParseMobilityRoundTrips(t *testing.T) {
	checkParseRoundTrips(t, mobilityKinds, ParseMobility)
}

// TestKindListsAreValid checks that Validate accepts exactly the listed
// kinds and that every listed mechanism and algorithm builds.
func TestKindListsAreValid(t *testing.T) {
	scheme, err := incentive.SchemeFromBudget(DefaultBudget, 400, DefaultRewardLambda, demand.LevelMapper{N: DefaultDemandLevels})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range mechanismKinds {
		cfg := smallConfig()
		cfg.Mechanism = k
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: %v", k, err)
		}
		if _, err := NewMechanism(k, scheme); err != nil {
			t.Errorf("NewMechanism(%v): %v", k, err)
		}
	}
	for _, k := range algorithmKinds {
		cfg := smallConfig()
		cfg.Algorithm = k
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: %v", k, err)
		}
		if _, err := cfg.NewAlgorithm(); err != nil {
			t.Errorf("%v.NewAlgorithm: %v", k, err)
		}
	}
	for _, k := range mobilityKinds {
		cfg := smallConfig()
		cfg.Mobility = k
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
	cfg := smallConfig()
	cfg.Algorithm = AlgorithmKind(99)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := NewMechanism(MechanismKind(99), scheme); err == nil {
		t.Error("NewMechanism accepted an unknown kind")
	}
}
