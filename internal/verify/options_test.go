package verify

import (
	"errors"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
)

// TestOptionsValidate is the table test for the façade's option
// validation: nonsense values must come back as a typed *OptionError
// naming the offending field, and valid values must pass.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name      string
		opts      Options
		wantField string // "" = valid
	}{
		{"zero-value", Options{}, ""},
		{"all-defaults-gpo", Options{Engine: GPO}, ""},
		{"zero-bounds-valid", Options{Engine: Exhaustive, MaxStates: 0, MaxNodes: 0, Workers: 0}, ""},
		{"positive-bounds-valid", Options{Engine: Symbolic, MaxStates: 10, MaxNodes: 10, Workers: 4}, ""},
		{"engine-negative", Options{Engine: Engine(-1)}, "Engine"},
		{"engine-past-end", Options{Engine: Unfolding + 1}, "Engine"},
		{"engine-way-out", Options{Engine: Engine(99)}, "Engine"},
		{"max-states-negative", Options{Engine: GPO, MaxStates: -1}, "MaxStates"},
		{"max-nodes-negative", Options{Engine: Symbolic, MaxNodes: -7}, "MaxNodes"},
		{"workers-negative", Options{Engine: Exhaustive, Workers: -2}, "Workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.wantField == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("Validate() = %v (%T), want *OptionError", err, err)
			}
			if oe.Field != tc.wantField {
				t.Fatalf("OptionError.Field = %q, want %q", oe.Field, tc.wantField)
			}
			if oe.Error() == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestChecksRejectInvalidOptions verifies both façade entry points route
// through Validate instead of panicking or silently misbehaving.
func TestChecksRejectInvalidOptions(t *testing.T) {
	net := models.NSDP(2)
	bad := []petri.Place{net.InitialPlaces()[0]}
	invalid := []Options{
		{Engine: Engine(42)},
		{Engine: GPO, MaxStates: -1},
		{Engine: Exhaustive, Workers: -1},
		{Engine: Symbolic, MaxNodes: -1},
	}
	for _, opts := range invalid {
		var oe *OptionError
		if _, err := CheckDeadlock(net, opts); !errors.As(err, &oe) {
			t.Errorf("CheckDeadlock(%+v) = %v, want *OptionError", opts, err)
		}
		if _, err := CheckSafety(net, bad, opts); !errors.As(err, &oe) {
			t.Errorf("CheckSafety(%+v) = %v, want *OptionError", opts, err)
		}
	}
}

// TestSafetyBadSetIsASet checks that CheckSafety treats bad as a set on
// every engine: an empty set, or one naming a place the net does not
// have, is an *OptionError, and a permuted or duplicated listing gets
// the verdict, witness and state count of the canonical (sorted,
// duplicate-free) one.
func TestSafetyBadSetIsASet(t *testing.T) {
	net := models.NSDP(2)
	hasL0, _ := net.PlaceByName("hasL0")
	hasL1, _ := net.PlaceByName("hasL1")
	canonical := []petri.Place{hasL0, hasL1}
	listings := map[string][]petri.Place{
		"permuted":   {hasL1, hasL0},
		"duplicated": {hasL0, hasL1, hasL0, hasL1},
	}
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			var oe *OptionError
			for _, invalid := range [][]petri.Place{nil, {}, {hasL0, petri.Place(net.NumPlaces())}, {-1}} {
				if _, err := CheckSafety(net, invalid, Options{Engine: eng}); !errors.As(err, &oe) {
					t.Errorf("bad=%v: got %v, want *OptionError", invalid, err)
				}
			}
			want, err := CheckSafety(net, canonical, Options{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			if !want.Deadlock {
				t.Fatal("canonical bad set not reachable")
			}
			for name, bad := range listings {
				got, err := CheckSafety(net, bad, Options{Engine: eng})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Deadlock != want.Deadlock || !got.Witness.Equal(want.Witness) || got.States != want.States {
					t.Errorf("%s: reachable=%v witness=%s states=%d, canonical gives %v %s %d", name,
						got.Deadlock, got.Witness.String(net), got.States,
						want.Deadlock, want.Witness.String(net), want.States)
				}
			}
		})
	}
}
